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
    kBinaryHeap,  ///< the default: an implicit 4-ary min-heap (the name
                  ///< is historical); O(log n) push/pop, and per-hold cost
                  ///< still above ladder's at 2^16 pending events
    kCalendar,    ///< O(1) amortized bucketed wheel; the slowest kind in
                  ///< every measured end-to-end run
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

}  // namespace papc::sim
