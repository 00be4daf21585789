#pragma once

/// \file registry.hpp
/// Name -> protocol mapping that makes every engine family in the repo
/// reachable through one call:
///
///   api::Scenario s;
///   s.protocol = "multi";
///   api::ScenarioResult r = api::run(s, /*seed=*/7);
///
/// Each entry carries capability metadata — which Scenario knobs the
/// protocol consumes and which family-specific extras its run reports —
/// so front ends (papc_cli --list-protocols) and sweeps can be fully
/// table-driven. For the built-ins, both come from one table per family
/// in registry.cpp: each result type lists its extras once, as (name,
/// value) rows that fill ScenarioResult::extras and name extra_metrics,
/// and each family has one base knob list that a protocol extends or
/// trims. The built-in protocols:
///
///   sync family        sync, two-choices, 3-majority, undecided, pull
///   population family  pp-3-state, pp-4-state, pp-undecided
///   async family       async, sequential, validated
///   cluster family     multi
///
/// The registry wraps the engines without perturbing their RNG streams:
/// for the biased workload, run("async", ...) is bit-identical to
/// async::run_single_leader with the same seed (pinned by the api tests).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/scenario.hpp"
#include "core/run_result.hpp"
#include "support/json_writer.hpp"

namespace papc::api {

/// Capability metadata of one registered protocol.
struct ProtocolInfo {
    std::string name;         ///< registry key ("async", "pp-3-state", ...)
    std::string family;       ///< "sync" | "population" | "async" | "cluster"
    std::string description;  ///< one-line summary for --list-protocols
    /// Scenario fields (canonical set_field names) this protocol consumes
    /// beyond the universal n/k/alpha/workload/epsilon/record block.
    std::vector<std::string> knobs;
    /// Names of the extras its run reports; ScenarioResult.extras holds
    /// exactly these keys (pinned by the registry tests).
    std::vector<std::string> extra_metrics;
    /// Opinion-count range ([min_k, max_k]; max_k 0 = unbounded). The
    /// two-opinion population protocols set both to 2.
    std::uint32_t min_k = 2;
    std::uint32_t max_k = 0;
};

/// Outcome of one scenario run: the unified result plus the family extras
/// flattened into named metrics (e.g. `exchanges`, `abort_rate`,
/// `clustering_time`).
struct ScenarioResult {
    core::RunResult run;
    std::map<std::string, double> extras;
};

class ProtocolRegistry {
public:
    using RunFn =
        std::function<ScenarioResult(const Scenario&, std::uint64_t seed)>;

    /// The process-wide registry, with every built-in protocol registered.
    [[nodiscard]] static ProtocolRegistry& instance();

    /// Registers a protocol; the name must be new. Open for downstream
    /// users — a custom engine only needs a RunFn to join sweeps and CLI.
    void register_protocol(ProtocolInfo info, RunFn fn);

    /// Metadata lookup; nullptr when the name is unknown.
    [[nodiscard]] const ProtocolInfo* find(const std::string& name) const;

    /// All registered names, sorted.
    [[nodiscard]] std::vector<std::string> names() const;

    /// Runs a scenario. The scenario must validate() cleanly, the protocol
    /// must exist and k must lie in the protocol's range (PAPC_CHECKed —
    /// front ends should call check() first for a friendly error).
    [[nodiscard]] ScenarioResult run(const Scenario& scenario,
                                     std::uint64_t seed) const;

    /// Full validation for front ends: scenario knob problems
    /// (api::validate) plus protocol existence and k-range.
    [[nodiscard]] std::vector<std::string> check(
        const Scenario& scenario) const;

private:
    ProtocolRegistry() = default;

    struct Entry {
        ProtocolInfo info;
        RunFn fn;
    };
    std::vector<Entry> entries_;
};

/// Convenience: ProtocolRegistry::instance().run(scenario, seed).
[[nodiscard]] ScenarioResult run(const Scenario& scenario, std::uint64_t seed);

/// Emits {"scenario": ..., "seed": ..., "result": ..., "extras": {...}}.
void write_json(JsonWriter& writer, const Scenario& scenario,
                std::uint64_t seed, const ScenarioResult& result);

}  // namespace papc::api
