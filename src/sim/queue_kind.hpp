#pragma once

/// \file queue_kind.hpp
/// Selection knob for the pluggable scheduler-queue subsystem
/// (scheduler_queue.hpp). Split into its own tiny header so configuration
/// structs (api::Scenario) can name a kind without pulling in the queue
/// implementations.

#include <optional>
#include <string>

namespace papc::sim {

/// Which SchedulerQueue implementation backs a discrete-event engine.
/// All kinds honour the same deterministic (time, seq) pop contract, so
/// for a fixed seed the choice changes throughput only, never results.
enum class QueueKind {
    kBinaryHeap,  ///< O(log n) push/pop; best below ~2^16 pending events
    kCalendar,    ///< O(1) amortized bucketed wheel; flat scaling to n >> 2^20
    kLadder,      ///< lazy multi-tier bucket ladder; O(1) amortized, sorts
                  ///< only the imminent events (skewed/far-future schedules)
};

/// Short stable name ("heap" / "calendar" / "ladder") for reports and CLI
/// flags.
[[nodiscard]] const char* to_string(QueueKind kind);

/// Parses "heap" / "binary-heap" / "calendar" / "ladder"; nullopt on
/// anything else (use from CLI / user-input paths).
[[nodiscard]] std::optional<QueueKind> try_parse_queue_kind(
    const std::string& name);

/// Parses like try_parse_queue_kind but aborts on unknown names (use when
/// the name is internal, not user input).
[[nodiscard]] QueueKind parse_queue_kind(const std::string& name);

}  // namespace papc::sim
