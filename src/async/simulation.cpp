#include "async/simulation.hpp"

#include <algorithm>

#include "analysis/latency_units.hpp"
#include "support/check.hpp"

namespace papc::async {

enum class AsyncEventKind : std::uint8_t {
    kTick,        ///< a node's Poisson clock fired
    kExchange,    ///< a node's three channels are established
    kZeroSignal,  ///< a 0-signal reaches the leader
    kGenSignal,   ///< an i-signal reaches the leader
};

struct AsyncEvent {
    AsyncEventKind kind = AsyncEventKind::kTick;
    NodeId node = 0;
    NodeId peer1 = 0;
    NodeId peer2 = 0;
    Generation gen = 0;
};

SingleLeaderSimulation::SingleLeaderSimulation(const Assignment& assignment,
                                               const AsyncConfig& config,
                                               std::uint64_t seed)
    : SingleLeaderSimulation(assignment, config,
                             sim::make_exponential_latency(config.lambda), seed) {}

SingleLeaderSimulation::SingleLeaderSimulation(
    const Assignment& assignment, const AsyncConfig& config,
    std::unique_ptr<sim::LatencyModel> latency, std::uint64_t seed)
    : SingleLeaderCore(assignment, config, seed), latency_(std::move(latency)) {
    PAPC_CHECK(latency_ != nullptr);
}

SingleLeaderSimulation::~SingleLeaderSimulation() = default;

bool SingleLeaderSimulation::advance() {
    if (executor_->empty()) return false;
    begin_window();
    return run_window(
        *executor_,
        [this](sim::WindowedExecutor<AsyncEvent>::ShardContext& ctx, double t,
               AsyncEvent& ev) {
            ShardScratch& scratch = scratch_[ctx.shard()];
            Rng& rng = ctx.rng();
            const auto sample_peer = [&](NodeId self) {
                return static_cast<NodeId>(
                    rng.uniform_index_excluding(nodes_.size(), self));
            };
            switch (ev.kind) {
                case AsyncEventKind::kTick: {
                    ++scratch.ticks;
                    NodeState& v = nodes_[ev.node];
                    // A crashed node sends nothing and starts nothing, but
                    // its Poisson clock keeps running so it resumes after a
                    // recovery boundary.
                    if (crash_on_ && injector_->is_down(ev.node, t)) {
                        ++scratch.crash_skips;
                        ctx.emit(ctx.shard(), t + rng.exponential(1.0),
                                 AsyncEvent{AsyncEventKind::kTick, ev.node, 0,
                                            0, 0});
                        break;
                    }
                    // Line 1: 0-signal to the leader — fire and forget, but
                    // the signal itself travels one latency draw.
                    ctx.signal_message(
                        kLeaderShard, t, t + latency_->sample(rng),
                        AsyncEvent{AsyncEventKind::kZeroSignal, 0, 0, 0, 0});
                    // Line 2: locked nodes do nothing else at this tick.
                    if (!v.locked) {
                        v.locked = true;
                        ++scratch.good_ticks;
                        scratch.channels_opened += 3;
                        // Lines 3-4: open two peer channels concurrently,
                        // then the leader channel: max(T2,T2) + T2.
                        const double peer_a = latency_->sample(rng);
                        const double peer_b = latency_->sample(rng);
                        const double to_leader = latency_->sample(rng);
                        const double ready =
                            t + std::max(peer_a, peer_b) + to_leader;
                        ctx.emit(ctx.shard(), ready,
                                 AsyncEvent{AsyncEventKind::kExchange, ev.node,
                                            sample_peer(ev.node),
                                            sample_peer(ev.node), 0});
                    }
                    // Next Poisson tick (stays on the node's own shard).
                    ctx.emit(ctx.shard(), t + rng.exponential(1.0),
                             AsyncEvent{AsyncEventKind::kTick, ev.node, 0, 0, 0});
                    break;
                }

                case AsyncEventKind::kExchange: {
                    NodeState& v = nodes_[ev.node];
                    PAPC_CHECK(v.locked);
                    // A node that crashed while its channels were opening
                    // completes nothing: unlock and move on.
                    if (crash_on_ && injector_->is_down(ev.node, t)) {
                        ++scratch.crash_skips;
                        v.locked = false;
                        break;
                    }
                    ++scratch.exchanges;
                    // Peers and leader are read from the window-start
                    // snapshots (see begin_window()).
                    const NodeState& p1 = nodes_snap_[ev.peer1];
                    const NodeState& p2 = nodes_snap_[ev.peer2];
                    const PeerSample s1{p1.gen, p1.col};
                    const PeerSample s2{p2.gen, p2.col};
                    const Generation old_gen = v.gen;
                    const Opinion old_col = v.col;
                    const ExchangeDecision decision = decide_exchange(
                        v, snap_leader_gen_, snap_leader_prop_, s1, s2);
                    const bool changed = apply_decision(
                        v, decision, snap_leader_gen_, snap_leader_prop_);
                    switch (decision.kind) {
                        case ExchangeDecision::Kind::kTwoChoices:
                            ++scratch.two_choices;
                            break;
                        case ExchangeDecision::Kind::kPropagation:
                            ++scratch.propagation;
                            break;
                        case ExchangeDecision::Kind::kRefreshOnly:
                            ++scratch.refresh;
                            break;
                        case ExchangeDecision::Kind::kNone:
                            break;
                    }
                    if (changed) {
                        record_move(ctx.shard(),
                                    CensusMove{old_gen, old_col, v.gen, v.col});
                        // Invariant: never beyond the leader's generation
                        // (the snapshot is a lower bound of the live one).
                        PAPC_CHECK(v.gen <= snap_leader_gen_);
                        if (decision.send_gen_signal) {
                            // Corruption rewrites the generation payload
                            // downward into [1, gen] — an adversarially
                            // garbled but protocol-legal signal.
                            ctx.signal_message(
                                kLeaderShard, t, t + latency_->sample(rng),
                                AsyncEvent{AsyncEventKind::kGenSignal, 0, 0,
                                           0, v.gen},
                                [](Rng& fault_rng, AsyncEvent& msg) {
                                    msg.gen = static_cast<Generation>(
                                        1 + fault_rng.uniform_index(msg.gen));
                                });
                        }
                    }
                    v.locked = false;  // line 15
                    break;
                }

                case AsyncEventKind::kZeroSignal:
                    deliver_zero_signal(t);
                    break;

                case AsyncEventKind::kGenSignal:
                    deliver_gen_signal(t, ev.gen);
                    break;
            }
        });
}

AsyncResult SingleLeaderSimulation::run() {
    // C1 = F^{-1}(0.9) of T3 for this latency model (Monte Carlo;
    // deterministic given the seed).
    start([this] {
        Rng c1_rng = rng_.split();
        return analysis::t3_quantile_monte_carlo(*latency_, 0.9, 20000, c1_rng);
    });
    executor_ = make_executor<AsyncEvent>();
    for (NodeId v = 0; v < population(); ++v) {
        executor_->seed(executor_->shard_of(v), rng_.exponential(1.0),
                        AsyncEvent{AsyncEventKind::kTick, v, 0, 0, 0});
    }
    drive();
    fold(*executor_, result_);
    return finish();
}

AsyncResult run_single_leader(std::size_t n, std::uint32_t k, double alpha,
                              const AsyncConfig& config, std::uint64_t seed) {
    Rng workload_rng(derive_seed(seed, SingleLeaderSimulation::kWorkloadSalt));
    const Assignment assignment = make_biased_plurality(n, k, alpha, workload_rng);
    SingleLeaderSimulation simulation(
        assignment, config, derive_seed(seed, SingleLeaderSimulation::kRunSalt));
    return simulation.run();
}

}  // namespace papc::async
