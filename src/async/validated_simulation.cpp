#include "async/validated_simulation.hpp"

#include <algorithm>

#include "analysis/latency_units.hpp"
#include "support/check.hpp"

namespace papc::async {

enum class ValidatedEventKind : std::uint8_t {
    kTick,
    kSnapshot,    ///< channels + first message round done: read states
    kValidate,    ///< validation round-trip done: commit or abort
    kZeroSignal,
    kGenSignal,
};

struct ValidatedEvent {
    ValidatedEventKind kind = ValidatedEventKind::kTick;
    NodeId node = 0;
    NodeId peer1 = 0;
    NodeId peer2 = 0;
    Generation gen = 0;        ///< kGenSignal payload
    // kValidate payload: the tentative decision and the leader snapshot it
    // was computed against.
    ExchangeDecision decision{};
    Generation snap_gen = 0;
    bool snap_prop = false;
};

ValidatedSingleLeaderSimulation::ValidatedSingleLeaderSimulation(
    const Assignment& assignment, const AsyncConfig& config,
    std::unique_ptr<sim::LatencyModel> channel,
    std::unique_ptr<sim::LatencyModel> message, std::uint64_t seed)
    : SingleLeaderCore(assignment, config, seed),
      channel_(std::move(channel)),
      message_(std::move(message)) {
    PAPC_CHECK(channel_ != nullptr && message_ != nullptr);
}

ValidatedSingleLeaderSimulation::~ValidatedSingleLeaderSimulation() = default;

bool ValidatedSingleLeaderSimulation::advance() {
    if (executor_->empty()) return false;
    begin_window();
    return run_window(
        *executor_,
        [this](sim::WindowedExecutor<ValidatedEvent>::ShardContext& ctx,
               double t, ValidatedEvent& ev) {
            ShardScratch& scratch = scratch_[ctx.shard()];
            Rng& rng = ctx.rng();
            const auto sample_peer = [&](NodeId self) {
                return static_cast<NodeId>(
                    rng.uniform_index_excluding(nodes_.size(), self));
            };
            // A signal needs a channel plus one message crossing.
            const auto signal_delay = [&] {
                const double channel = channel_->sample(rng);
                return channel + message_->sample(rng);
            };
            switch (ev.kind) {
                case ValidatedEventKind::kTick: {
                    ++scratch.ticks;
                    NodeState& v = nodes_[ev.node];
                    if (crash_on_ && injector_->is_down(ev.node, t)) {
                        ++scratch.crash_skips;
                        ValidatedEvent next;
                        next.kind = ValidatedEventKind::kTick;
                        next.node = ev.node;
                        ctx.emit(ctx.shard(), t + rng.exponential(1.0), next);
                        break;
                    }
                    {
                        ValidatedEvent sig;
                        sig.kind = ValidatedEventKind::kZeroSignal;
                        ctx.signal_message(kLeaderShard, t,
                                           t + signal_delay(), sig);
                    }
                    if (!v.locked) {
                        v.locked = true;
                        ++scratch.good_ticks;
                        scratch.channels_opened += 3;
                        const double peer_a = channel_->sample(rng);
                        const double peer_b = channel_->sample(rng);
                        const double establish =
                            std::max(peer_a, peer_b) + channel_->sample(rng);
                        const double first_round =
                            2.0 * message_->sample(rng);  // request + reply
                        ValidatedEvent snap;
                        snap.kind = ValidatedEventKind::kSnapshot;
                        snap.node = ev.node;
                        snap.peer1 = sample_peer(ev.node);
                        snap.peer2 = sample_peer(ev.node);
                        ctx.emit(ctx.shard(), t + establish + first_round, snap);
                    }
                    ValidatedEvent next;
                    next.kind = ValidatedEventKind::kTick;
                    next.node = ev.node;
                    ctx.emit(ctx.shard(), t + rng.exponential(1.0), next);
                    break;
                }

                case ValidatedEventKind::kSnapshot: {
                    NodeState& v = nodes_[ev.node];
                    PAPC_CHECK(v.locked);
                    if (crash_on_ && injector_->is_down(ev.node, t)) {
                        ++scratch.crash_skips;
                        v.locked = false;
                        break;
                    }
                    ++scratch.exchanges;
                    const NodeState& p1 = nodes_snap_[ev.peer1];
                    const NodeState& p2 = nodes_snap_[ev.peer2];
                    const ExchangeDecision decision = decide_exchange(
                        v, snap_leader_gen_, snap_leader_prop_,
                        PeerSample{p1.gen, p1.col}, PeerSample{p2.gen, p2.col});
                    switch (decision.kind) {
                        case ExchangeDecision::Kind::kRefreshOnly:
                            ++scratch.refresh;
                            (void)apply_decision(v, decision, snap_leader_gen_,
                                                 snap_leader_prop_);
                            v.locked = false;
                            break;
                        case ExchangeDecision::Kind::kNone:
                            v.locked = false;
                            break;
                        case ExchangeDecision::Kind::kTwoChoices:
                        case ExchangeDecision::Kind::kPropagation: {
                            // Two-phase commit: validate against the leader
                            // over a fresh channel before applying (§5).
                            ++scratch.channels_opened;
                            ValidatedEvent val;
                            val.kind = ValidatedEventKind::kValidate;
                            val.node = ev.node;
                            val.decision = decision;
                            val.snap_gen = snap_leader_gen_;
                            val.snap_prop = snap_leader_prop_;
                            const double channel = channel_->sample(rng);
                            const double validation =
                                channel + 2.0 * message_->sample(rng);
                            ctx.emit(ctx.shard(), t + validation, val);
                            break;
                        }
                    }
                    break;
                }

                case ValidatedEventKind::kValidate: {
                    NodeState& v = nodes_[ev.node];
                    PAPC_CHECK(v.locked);
                    if (crash_on_ && injector_->is_down(ev.node, t)) {
                        ++scratch.crash_skips;
                        v.locked = false;
                        break;
                    }
                    if (snap_leader_gen_ == ev.snap_gen &&
                        snap_leader_prop_ == ev.snap_prop) {
                        // Leader unchanged between the two window
                        // snapshots: commit.
                        const Generation old_gen = v.gen;
                        const Opinion old_col = v.col;
                        const bool changed =
                            apply_decision(v, ev.decision, snap_leader_gen_,
                                           snap_leader_prop_);
                        if (changed) {
                            ++scratch.commits;
                            if (ev.decision.kind ==
                                ExchangeDecision::Kind::kTwoChoices) {
                                ++scratch.two_choices;
                            } else {
                                ++scratch.propagation;
                            }
                            record_move(ctx.shard(),
                                        CensusMove{old_gen, old_col, v.gen, v.col});
                            PAPC_CHECK(v.gen <= snap_leader_gen_);
                            if (ev.decision.send_gen_signal) {
                                ValidatedEvent sig;
                                sig.kind = ValidatedEventKind::kGenSignal;
                                sig.gen = v.gen;
                                ctx.signal_message(
                                    kLeaderShard, t, t + signal_delay(), sig,
                                    [](Rng& fault_rng, ValidatedEvent& msg) {
                                        msg.gen = static_cast<Generation>(
                                            1 +
                                            fault_rng.uniform_index(msg.gen));
                                    });
                            }
                        }
                    } else {
                        // Leader moved on: abort and refresh stored state.
                        ++scratch.aborts;
                        v.seen_gen = snap_leader_gen_;
                        v.seen_prop = snap_leader_prop_;
                    }
                    v.locked = false;
                    break;
                }

                case ValidatedEventKind::kZeroSignal:
                    deliver_zero_signal(t);
                    break;

                case ValidatedEventKind::kGenSignal:
                    deliver_gen_signal(t, ev.gen);
                    break;
            }
        });
}

ValidatedResult ValidatedSingleLeaderSimulation::run() {
    // One full cycle now includes two message round-trips and the
    // validation channel; measure C1 for this composition (Monte Carlo;
    // deterministic given the seed).
    start([this] {
        Rng c1_rng = rng_.split();
        return analysis::validated_cycle_quantile_monte_carlo(
            *channel_, *message_, 0.9, 20000, c1_rng);
    });
    executor_ = make_executor<ValidatedEvent>();
    for (NodeId v = 0; v < population(); ++v) {
        ValidatedEvent tick;
        tick.kind = ValidatedEventKind::kTick;
        tick.node = v;
        executor_->seed(executor_->shard_of(v), rng_.exponential(1.0), tick);
    }
    drive();

    ValidatedResult result;
    for (const ShardScratch& scratch : scratch_) {
        result.commits += scratch.commits;
        result.aborts += scratch.aborts;
    }
    fold(*executor_, result_);
    result.base = finish();
    const std::uint64_t attempts = result.commits + result.aborts;
    result.abort_rate =
        attempts == 0 ? 0.0
                      : static_cast<double>(result.aborts) /
                            static_cast<double>(attempts);
    return result;
}

ValidatedResult run_validated_single_leader(std::size_t n, std::uint32_t k,
                                            double alpha,
                                            const AsyncConfig& config,
                                            double message_rate,
                                            std::uint64_t seed) {
    Rng workload_rng(derive_seed(seed, ValidatedSingleLeaderSimulation::kWorkloadSalt));
    const Assignment assignment = make_biased_plurality(n, k, alpha, workload_rng);
    ValidatedSingleLeaderSimulation simulation(
        assignment, config, sim::make_exponential_latency(config.lambda),
        sim::make_exponential_latency(message_rate),
        derive_seed(seed, ValidatedSingleLeaderSimulation::kRunSalt));
    return simulation.run();
}

}  // namespace papc::async
