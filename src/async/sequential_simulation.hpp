#pragma once

/// \file sequential_simulation.hpp
/// The *pure Poisson clock* reference model the paper contrasts itself
/// against (§1, discussion of [EFK+17]): nodes tick at rate 1 but channel
/// establishment is instant, so the memoryless property lets the whole
/// execution be *sequentialized* — one node acts at a time, at global
/// exponential spacing Exp(n). Algorithm 2+3 run unchanged on top (a node
/// reads both peers and the leader atomically at its tick; locking never
/// triggers because actions are instantaneous).
///
/// This engine isolates what the edge latencies cost: bench
/// exp_exchange_latency compares sequential vs latency-model runs, and the
/// tests pin that the generation dynamics (leader trace shape) coincide.
///
/// Ordering assumptions: the n independent rate-1 clocks collapse into a
/// single global Exp(n) tick stream whose winner is a uniform node drawn
/// *after* the race (memorylessness). The model is inherently serial —
/// every node may touch every other node atomically at a tick — so the
/// engine is a plain tick loop with exactly one pending tick (ties are
/// impossible by construction). One advance() is one window: it opens at
/// the pending tick t, runs every tick in the half-open [t, t + Δ) (Δ =
/// config.window, or sim::default_window(config.lambda)), and draws all of
/// them from the window's substream, labelled (window counter, 0) under a
/// base split off the run generator. Those are the labels a one-shard
/// windowed executor would use, so windows, events and draws match it;
/// events_processed == ticks and there are never stragglers. Threads,
/// shards and the queue kind do not apply.

#include <cstdint>

#include "async/single_leader_core.hpp"

namespace papc::async {

/// Sequentialized single-leader protocol (no latencies).
class SequentialSingleLeaderSimulation final : public SingleLeaderCore {
public:
    SequentialSingleLeaderSimulation(const Assignment& assignment,
                                     const AsyncConfig& config,
                                     std::uint64_t seed);

    ~SequentialSingleLeaderSimulation() override;

    /// Runs to full consensus (or config.max_time). The AsyncResult's
    /// latency-specific fields (good_ticks == ticks, channels_opened == 0)
    /// reflect the instant-channel semantics; steps_per_unit is 1 (every
    /// node completes its action at its tick).
    [[nodiscard]] AsyncResult run();

    /// One window of global ticks per call (driven by run()).
    bool advance() override;

private:
    /// One global tick at time t: the race winner acts atomically.
    void tick(double t, Rng& rng);

    /// The model is serial, so message faults draw from one run-long
    /// Injector::serial_stream() held in fault_rng_.
    Rng fault_rng_{0};
    bool msg_faults_on_ = false;
    fault::FaultCounters message_faults_;

    Rng window_base_{0};  ///< parent of the per-window substreams
    double window_ = 0.0;
    double next_tick_ = 0.0;  ///< the single pending global tick
    std::uint64_t windows_ = 0;
};

/// Convenience wrapper on a biased-plurality workload.
[[nodiscard]] AsyncResult run_sequential_single_leader(std::size_t n,
                                                       std::uint32_t k,
                                                       double alpha,
                                                       const AsyncConfig& config,
                                                       std::uint64_t seed);

}  // namespace papc::async
