#pragma once

/// \file simulation.hpp
/// Event-driven executor of the asynchronous single-leader protocol
/// (Algorithms 2 + 3, §3). The simulation implements exactly the random
/// process the paper analyzes:
///   - every node has a rate-1 Poisson clock;
///   - at a tick the node always sends a 0-signal to the leader (arriving
///     after one latency draw) and, if not locked, locks and opens channels
///     to two uniform peers (concurrently) and then the leader; the full
///     exchange completes after max(T2, T2) + T2;
///   - at completion the node atomically reads both peers and the leader
///     and applies Algorithm 2; generation promotions notify the leader
///     with an i-signal (one more latency draw).
///
/// The event loop runs on the sharded windowed executor, one window per
/// core::Engine::advance() call, under the porting rules of
/// sim/event_engine.hpp; signal events are owned by the leader's shard.

#include <cstdint>
#include <memory>

#include "async/single_leader_core.hpp"
#include "sim/latency.hpp"

namespace papc::async {

/// One event of the single-leader simulation (defined in the .cpp).
struct AsyncEvent;

/// Single-leader asynchronous simulation.
class SingleLeaderSimulation final : public SingleLeaderCore {
public:
    /// Seed salts of run_single_leader and api::run, so both build the same
    /// run from one seed: the workload draws from derive_seed(seed,
    /// kWorkloadSalt), the engine from derive_seed(seed, kRunSalt).
    static constexpr std::uint64_t kWorkloadSalt = 0xA551;
    static constexpr std::uint64_t kRunSalt = 0x51;

    /// Uses Exponential(config.lambda) latencies.
    SingleLeaderSimulation(const Assignment& assignment, const AsyncConfig& config,
                           std::uint64_t seed);

    /// Uses a caller-supplied latency model (takes ownership). The auto
    /// window width is still derived from config.lambda — set
    /// config.window explicitly for models with a very different scale.
    SingleLeaderSimulation(const Assignment& assignment, const AsyncConfig& config,
                           std::unique_ptr<sim::LatencyModel> latency,
                           std::uint64_t seed);

    ~SingleLeaderSimulation() override;

    /// Runs to full consensus (or config.max_time) and returns the result.
    [[nodiscard]] AsyncResult run();

    /// One window of events per call (driven by run()).
    bool advance() override;

private:
    std::unique_ptr<sim::LatencyModel> latency_;
    std::unique_ptr<sim::WindowedExecutor<AsyncEvent>> executor_;
};

/// Convenience: builds a biased-plurality workload and runs one simulation.
[[nodiscard]] AsyncResult run_single_leader(std::size_t n, std::uint32_t k,
                                            double alpha, const AsyncConfig& config,
                                            std::uint64_t seed);

}  // namespace papc::async
