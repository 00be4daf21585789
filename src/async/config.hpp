#pragma once

/// \file config.hpp
/// Configuration of the asynchronous single-leader protocol (§3).

#include <cstdint>
#include <memory>

#include "fault/plan.hpp"
#include "opinion/types.hpp"
#include "sim/queue_kind.hpp"

namespace papc::async {

struct AsyncConfig {
    /// Latency rate λ of the default Exponential(λ) channel-establishment
    /// model. (A custom LatencyModel can be supplied to the simulation.)
    double lambda = 1.0;

    /// Assumed initial bias α0 — the nodes (and leader) know α0 and k
    /// (§3.2); only a lower bound is required.
    double alpha_hint = 1.5;

    /// Length of the leader's two-choices window in *time units*
    /// (Proposition 16 uses ≈ 2 units). Converted into the 0-signal count
    /// threshold C3·n internally using the measured steps-per-unit C1.
    double two_choices_units = 2.0;

    /// gen_size threshold as a fraction of n (Algorithm 3 uses ⌈n/2⌉).
    double generation_size_fraction = 0.5;

    /// Extra generations on top of the closed-form G* (safety slack).
    unsigned generation_slack = 2;

    /// Hard cap on simulated time (time steps); safety net only.
    double max_time = 5000.0;

    /// ε for ε-convergence reporting (§3: ε = 1/polylog n; fixed here).
    double epsilon = 0.02;

    /// Sampling interval (time steps) of the metronome that records time
    /// series and checks convergence.
    double sample_interval = 0.25;

    /// Record time series (disable in bulk sweeps to save memory).
    bool record_series = true;

    /// Adversarial failure injection (§4 motivation: "an adversary can
    /// compromise the entire computation by taking over the leader"): at
    /// this time the leader freezes — it stops processing signals and its
    /// public state never changes again. Negative = no failure.
    ///
    /// DEPRECATED shim: since the fault layer landed this is sugar for a
    /// `fault.scheduled_crashes` entry with node == fault::kLeaderNode at
    /// the same time (the engines splice it in; results are unchanged —
    /// pinned by tests/integration/resilience_test.cpp). Prefer the plan.
    double leader_failure_time = -1.0;

    /// Fault & adversary plan (src/fault/plan.hpp). An all-zero plan is
    /// byte-identical to no plan; any active channel makes the plan part
    /// of the trajectory identity.
    fault::FaultPlan fault;

    // Windowed-executor knobs. The async and validated engines read all
    // four; the sequential engine is a plain tick loop and reads only
    // `window` (and `lambda` for its auto width).

    /// Scheduler-queue implementation behind each shard of the windowed
    /// event executor. All kinds pop in identical (time, seq) order
    /// (pinned by the equivalence tests), so for a fixed seed this knob
    /// changes throughput only, never results. kLadder is the fastest at
    /// every measured size (ladder <= calendar <= heap from 2^10 to 2^22
    /// pending events); the heap stays the default reference.
    sim::QueueKind queue_kind = sim::QueueKind::kBinaryHeap;

    /// Worker threads of the windowed executor. Results are bit-identical
    /// at every thread count; only throughput changes.
    std::size_t threads = 1;

    /// Conservative window width delta, in time units. <= 0 derives
    /// sim::default_window(lambda). Part of the trajectory: two runs only
    /// reproduce each other with equal windows.
    double window = 0.0;

    /// Shard count of the windowed executor (0 = default). Like `window`,
    /// part of the trajectory; unlike `threads`, never auto-scaled.
    std::size_t event_shards = 0;
};

}  // namespace papc::async
