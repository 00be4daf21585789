#pragma once

/// \file run_result.hpp
/// The unified outcome type shared by every engine family (sync rounds,
/// population interactions, async and cluster event simulations). A run has
/// one time axis (rounds, parallel time, or simulated time — the family
/// decides), and every family reports the same convergence semantics on it:
///
///   epsilon_time    first sample with (1-ε) plurality support (-1: never),
///   consensus_time  first sample with full consensus (-1: never),
///   end_time        axis position when the run stopped,
///   steps           units of work executed (rounds / interactions / events).
///
/// Families with extra accounting derive from RunResult and add fields; the
/// shared semantics always live here.

#include <cstdint>
#include <string>

#include "opinion/types.hpp"
#include "support/json_value.hpp"
#include "support/json_writer.hpp"
#include "support/timeseries.hpp"

namespace papc::core {

struct RunResult {
    bool converged = false;        ///< all nodes agree at exit
    Opinion winner = 0;            ///< final (or current-dominant) opinion
    bool plurality_won = false;    ///< converged && winner == expected plurality
    double epsilon_time = -1.0;    ///< first time (1-ε)·n support is observed
    double consensus_time = -1.0;  ///< first time full consensus is observed
    double end_time = 0.0;         ///< time-axis position at loop exit
    std::uint64_t steps = 0;       ///< work units executed by the driver
    TimeSeries plurality_fraction; ///< recorded when the options request it
};

/// Internal-consistency invariants every engine family must satisfy:
/// ε-time precedes consensus time, both precede end_time, and a converged
/// run has a consensus detection unless it converged before the first
/// sample was possible.
[[nodiscard]] bool consistent(const RunResult& result);

/// Serializes the scalar fields and the recorded series to a stable
/// line-oriented `key value` text form (one key per line, series points as
/// `point <time> <value>` lines). Doubles round-trip exactly (hex floats).
[[nodiscard]] std::string serialize(const RunResult& result);

/// Emits the result as one JSON object. Scalar fields use their struct
/// names; the series becomes {"name": ..., "points": [[time, value], ...]}.
/// Doubles are written with round-trip precision, so
/// run_result_from_json(parse) reproduces the result exactly.
void write_json(JsonWriter& writer, const RunResult& result);

/// Convenience: the JSON document for one result.
[[nodiscard]] std::string to_json(const RunResult& result);

/// Rebuilds a result from the output of write_json. Missing members keep
/// their defaults (forward compatibility); wrong member types fail a
/// PAPC_CHECK.
[[nodiscard]] RunResult run_result_from_json(const JsonValue& value);

}  // namespace papc::core
