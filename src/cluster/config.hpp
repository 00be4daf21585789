#pragma once

/// \file config.hpp
/// Parameters of the decentralized multi-leader protocol (§4). The paper's
/// constants are asymptotic (cluster floor log^(c-1) n, leader probability
/// 1/log^c n, counting thresholds c2/c3·floor·loglog n); the defaults here
/// are tuned so the protocol exhibits the analyzed behaviour at
/// simulation-scale n (2^10 .. 2^20). The three constants below are fixed;
/// the rest are configurable. The knobs shared with the single-leader
/// engines (latency, budgets, sampling, faults, executor) live in
/// sim::EventConfig.

#include <cmath>
#include <cstddef>

#include "sim/event_engine.hpp"

namespace papc::cluster {

/// Pause window after a cluster reaches the floor, counted in 0-signals per
/// cluster member of the first `floor` members (paper: c2·floor·loglog n).
/// Expressed as a multiple of floor·loglog2(n).
inline constexpr double kPauseFactor = 1.0;

/// Additional 0-signals after the pause before the leader switches to
/// consensus mode (paper: c3·floor·loglog n), same units.
inline constexpr double kSwitchFactor = 2.0;

/// Per-cluster generation-size gate as a fraction of the cluster
/// cardinality (paper: 1/2 + 1/√log n).
inline constexpr double kGenerationSizeFraction = 0.55;

struct ClusterConfig : sim::EventConfig {
    // ----------------------------------------------------------- clustering
    /// Participation floor: clusters must reach this size to take part in
    /// the consensus phase (paper: log^(c-1) n). 0 = derive from n as
    /// max(8, (log2 n)^1.5).
    std::size_t size_floor = 0;

    /// Probability that a node elects itself cluster leader (paper:
    /// 1/log^c n). 0 = derive as 1/(4·size_floor) so the mean final cluster
    /// size is ≈ 4·floor.
    double leader_probability = 0.0;

    /// Hard cap on the clustering phase (time steps).
    double clustering_max_time = 400.0;

    // ------------------------------------------------------------ consensus
    /// Leader tick-counter thresholds, in *time units* relative to the birth
    /// of the leader's current generation: the two-choices window ends
    /// (sleeping starts) after `sleep_units`, propagation opens after
    /// `prop_units` (paper: C2 = Cbr+1+2/C1, C3 = 2Cbr+1+5/C1 — broadcast
    /// plus slack; defaults chosen empirically).
    double sleep_units = 2.0;
    double prop_units = 3.0;

    /// Adversarial failure injection (§4: resilience against limited
    /// attacks): at `leader_failure_time` a uniformly random
    /// `leader_failure_fraction` of the active cluster leaders crash.
    /// Crashed leaders stop answering: sampled members treat them like
    /// inactive clusters, their signals are dropped, and their own members
    /// fail over to refreshing tmp_* from the sampled leader instead.
    /// Negative time = no failure. The fault plan covers the consensus
    /// phase's signal and adopt messages and member crashes; its
    /// scheduled_crashes address ordinary members, never leaders.
    double leader_failure_time = -1.0;
    double leader_failure_fraction = 0.0;

    /// Resolved floor for population n.
    [[nodiscard]] std::size_t resolved_floor(std::size_t n) const {
        if (size_floor > 0) return size_floor;
        const double lg = std::log2(static_cast<double>(n));
        const auto derived = static_cast<std::size_t>(std::pow(lg, 1.5));
        return derived < 8 ? 8 : derived;
    }

    /// Resolved leader probability for population n.
    [[nodiscard]] double resolved_leader_probability(std::size_t n) const {
        if (leader_probability > 0.0) return leader_probability;
        return 1.0 / (4.0 * static_cast<double>(resolved_floor(n)));
    }
};

}  // namespace papc::cluster
