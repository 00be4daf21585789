#pragma once

/// \file validated_simulation.hpp
/// The §5 (Summary and Conclusion) model extension: *message exchange over
/// an established channel also takes time*. The paper sketches the fix for
/// the single-leader case:
///
///   "This can easily be relaxed in the single leader case by contacting
///    the leader after each potential update of opinions and generation
///    number, and the updates are committed only, if the state of the
///    leader has not been changed in the meantime."
///
/// This engine implements that two-phase commit protocol on top of the
/// Algorithm 2+3 machinery:
///   1. good tick at t0 — channels to two peers (concurrent) and the leader
///      open; established at t1 = t0 + max(T2,T2) + T2;
///   2. request/response messages cross the channels: peer states and the
///      leader state are *read* at t2 = t1 + 2·T4 (T4 = per-message
///      latency);
///   3. the node evaluates Algorithm 2 on the t2 snapshot; if it would
///      change state, it opens a fresh validation channel to the leader
///      (T2) and round-trips one message pair (2·T4), finishing at
///      t3 = t2 + T2 + 2·T4;
///   4. the update *commits* at t3 only if the leader's public (gen, prop)
///      is unchanged between t2 and t3; otherwise it aborts and the node
///      only refreshes its stored leader state.
/// Aborts preserve the §3.2 interleaving invariants under message delays;
/// bench/exp_exchange_latency measures their cost.
///
/// The event loop runs on the sharded windowed executor (see
/// sim/event_engine.hpp for the shared porting notes): one advance() =
/// one conservative window, peer/leader reads go through window-start
/// snapshots (the t2/t3 leader states the commit rule compares are the
/// snapshots of the windows containing t2 and t3), and fixed-seed results
/// are bit-identical at every thread count.

#include <cstdint>
#include <memory>

#include "async/single_leader_core.hpp"
#include "sim/latency.hpp"

namespace papc::async {

/// Result of a validated run: the base AsyncResult plus commit accounting.
struct ValidatedResult {
    AsyncResult base;
    std::uint64_t commits = 0;        ///< validated updates applied
    std::uint64_t aborts = 0;         ///< updates dropped by stale validation
    double abort_rate = 0.0;          ///< aborts / (commits + aborts)
};

/// One event of the validated simulation (defined in the .cpp).
struct ValidatedEvent;

/// Single-leader protocol under channel latencies T2 *and* per-message
/// latencies T4, with leader-validated commits (§5).
class ValidatedSingleLeaderSimulation final : public SingleLeaderCore {
public:
    /// `channel` models T2 (establishment), `message` models T4 (one
    /// message over an established channel). Both are owned.
    ValidatedSingleLeaderSimulation(const Assignment& assignment,
                                    const AsyncConfig& config,
                                    std::unique_ptr<sim::LatencyModel> channel,
                                    std::unique_ptr<sim::LatencyModel> message,
                                    std::uint64_t seed);

    ~ValidatedSingleLeaderSimulation() override;

    [[nodiscard]] ValidatedResult run();

    /// One window of events per call (driven by run()).
    bool advance() override;

private:
    std::unique_ptr<sim::LatencyModel> channel_;
    std::unique_ptr<sim::LatencyModel> message_;
    std::unique_ptr<sim::WindowedExecutor<ValidatedEvent>> executor_;
};

/// Convenience wrapper: biased-plurality workload, Exponential(λ) channels
/// and Exponential(message_rate) messages.
[[nodiscard]] ValidatedResult run_validated_single_leader(
    std::size_t n, std::uint32_t k, double alpha, const AsyncConfig& config,
    double message_rate, std::uint64_t seed);

}  // namespace papc::async
