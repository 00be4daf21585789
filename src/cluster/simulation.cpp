#include "cluster/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/latency_units.hpp"
#include "analysis/theory.hpp"
#include "core/observer.hpp"
#include "support/check.hpp"

namespace papc::cluster {

enum class ClusterEventKind : std::uint8_t {
    kTick,
    kExchange,
    kSignal,     ///< member signal arriving at its own leader
    kAdopt,      ///< finished node pushing its final opinion to a sample
};

struct ClusterEvent {
    ClusterEventKind kind = ClusterEventKind::kTick;
    NodeId node = 0;
    NodeId s1 = 0;
    NodeId s2 = 0;
    NodeId s3 = 0;
    std::int32_t cluster = kNoCluster;  ///< kSignal target
    Generation sig_i = 0;
    LeaderState sig_s = LeaderState::kTwoChoices;
    bool sig_changed = false;
    Opinion col = 0;                    ///< kAdopt payload
};

MultiLeaderSimulation::MultiLeaderSimulation(const Assignment& assignment,
                                             ClusteringResult clustering,
                                             const ClusterConfig& config,
                                             std::uint64_t seed)
    : EventEngine(assignment),
      config_(config),
      clustering_(std::move(clustering)),
      rng_(seed),
      latency_(config.lambda) {
    const std::size_t n = assignment.size();
    PAPC_CHECK(clustering_.cluster_of.size() == n);

    members_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        members_[v].col = assignment.opinions[v];
        members_[v].gen = 0;
        members_[v].finished = false;
        members_[v].locked = false;
        members_[v].tmp_gen = 1;
        members_[v].tmp_state = LeaderState::kTwoChoices;
    }

    // Measure C1 for the 5-channel member exchange (three samples, then the
    // own leader and the sampled leader concurrently); Monte Carlo,
    // deterministic given the seed.
    Rng c1_rng = rng_.split();
    const double steps_per_unit =
        analysis::cluster_exchange_quantile_monte_carlo(latency_, 0.9, 20000,
                                                        c1_rng);

    max_generation_ = analysis::total_generations(
        std::max(config_.alpha_hint, 1.0 + 1e-9), census_.num_opinions(), n,
        sim::kGenerationSlack);

    leaders_.reserve(clustering_.clusters.size());
    for (const auto& cluster_members : clustering_.clusters) {
        ClusterLeaderConfig lc;
        lc.cardinality = cluster_members.size();
        const double card = static_cast<double>(lc.cardinality);
        lc.sleep_threshold = static_cast<std::uint64_t>(
            std::ceil(config_.sleep_units * steps_per_unit * card));
        lc.prop_threshold = static_cast<std::uint64_t>(
            std::ceil(config_.prop_units * steps_per_unit * card));
        lc.generation_size_threshold = static_cast<std::uint64_t>(
            std::ceil(kGenerationSizeFraction * card));
        lc.max_generation = max_generation_;
        leaders_.push_back(std::make_unique<ClusterLeader>(lc));
    }

    alive_.assign(leaders_.size(), true);
    failure_injected_ = config_.leader_failure_time < 0.0;
    loads_.resize(leaders_.size());
}

MultiLeaderSimulation::~MultiLeaderSimulation() = default;

std::size_t MultiLeaderSimulation::leader_shard(std::size_t cluster) const {
    return cluster % executor_->num_shards();
}

void MultiLeaderSimulation::mark_finished(ShardScratch& scratch, NodeId v) {
    if (!members_[v].finished) {
        members_[v].finished = true;
        ++scratch.finished;
    }
}

void MultiLeaderSimulation::adopt_finished(std::size_t shard, NodeId v,
                                           Opinion col) {
    MemberState& m = members_[v];
    if (m.finished) return;
    if (m.col != col) {
        record_move(shard, CensusMove{m.gen, m.col, m.gen, col});
        m.col = col;
    }
    ShardScratch& scratch = scratch_[shard];
    mark_finished(scratch, v);
    ++scratch.adoptions;
}

void MultiLeaderSimulation::maybe_inject_failure() {
    if (failure_injected_ || now_ < config_.leader_failure_time) return;
    failure_injected_ = true;
    const auto to_kill = static_cast<std::size_t>(
        config_.leader_failure_fraction * static_cast<double>(leaders_.size()));
    std::vector<std::size_t> order(leaders_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng_.shuffle(order);
    for (std::size_t i = 0; i < to_kill && i < order.size(); ++i) {
        alive_[order[i]] = false;
    }
}

void MultiLeaderSimulation::begin_window() {
    members_snap_ = members_;
    leader_snap_.resize(leaders_.size());
    for (std::size_t c = 0; c < leaders_.size(); ++c) {
        leader_snap_[c].gen = leaders_[c]->gen();
        leader_snap_[c].state = leaders_[c]->state();
    }
}

bool MultiLeaderSimulation::advance() {
    if (executor_->empty()) return false;
    begin_window();
    return run_window(
        *executor_,
        [this](sim::WindowedExecutor<ClusterEvent>::ShardContext& ctx, double t,
               ClusterEvent& ev) {
            ShardScratch& scratch = scratch_[ctx.shard()];
            Rng& rng = ctx.rng();
            const auto sample_peer = [&](NodeId self) {
                return static_cast<NodeId>(
                    rng.uniform_index_excluding(members_.size(), self));
            };
            switch (ev.kind) {
                case ClusterEventKind::kTick: {
                    ++scratch.ticks;
                    const NodeId v = ev.node;
                    MemberState& m = members_[v];
                    // A crashed member signals nothing and starts nothing;
                    // its clock keeps running so it resumes on recovery.
                    if (crash_on_ && injector_->is_down(v, t)) {
                        ++scratch.crash_skips;
                        ClusterEvent next;
                        next.kind = ClusterEventKind::kTick;
                        next.node = v;
                        ctx.emit(ctx.shard(), t + rng.exponential(1.0), next);
                        break;
                    }
                    const std::int32_t my_cluster = clustering_.cluster_of[v];
                    // Line 1: clustered members signal their leader each
                    // tick (owned by the leader's shard).
                    if (my_cluster != kNoCluster) {
                        ClusterEvent sig;
                        sig.kind = ClusterEventKind::kSignal;
                        sig.cluster = my_cluster;
                        sig.sig_i = 0;
                        sig.sig_s = LeaderState::kPropagation;  // ignored, i == 0
                        sig.sig_changed = false;
                        ctx.signal_message(
                            leader_shard(static_cast<std::size_t>(my_cluster)),
                            t, t + latency_.sample(rng), sig);
                    }
                    // Line 2-3: lock and open channels.
                    if (!m.locked) {
                        m.locked = true;
                        const double stage1 =
                            std::max({latency_.sample(rng), latency_.sample(rng),
                                      latency_.sample(rng)});
                        const double hop_a = latency_.sample(rng);
                        const double hop_b = latency_.sample(rng);
                        const double stage2 = std::max(hop_a, hop_b);
                        ClusterEvent ex;
                        ex.kind = ClusterEventKind::kExchange;
                        ex.node = v;
                        ex.s1 = sample_peer(v);
                        ex.s2 = sample_peer(v);
                        ex.s3 = sample_peer(v);
                        ctx.emit(ctx.shard(), t + stage1 + stage2, ex);
                    }
                    ClusterEvent next;
                    next.kind = ClusterEventKind::kTick;
                    next.node = v;
                    ctx.emit(ctx.shard(), t + rng.exponential(1.0), next);
                    break;
                }

                case ClusterEventKind::kExchange: {
                    const NodeId v = ev.node;
                    MemberState& m = members_[v];
                    PAPC_CHECK(m.locked);
                    // A member down when its channels complete abandons the
                    // exchange: no reads, no writes, no signal.
                    if (crash_on_ && injector_->is_down(v, t)) {
                        ++scratch.crash_skips;
                        m.locked = false;
                        break;
                    }
                    ++scratch.exchanges;
                    const std::int32_t my_cluster = clustering_.cluster_of[v];

                    if (m.finished) {
                        // Line 5: push the final opinion to all samples.
                        // Remote members belong to other shards, so the
                        // pushes travel as kAdopt events (corruptible: a
                        // flipped push adopts a uniformly random opinion).
                        const std::uint32_t k = census_.num_opinions();
                        for (const NodeId s : {ev.s1, ev.s2, ev.s3}) {
                            ClusterEvent adopt;
                            adopt.kind = ClusterEventKind::kAdopt;
                            adopt.node = s;
                            adopt.col = m.col;
                            ctx.emit_message(
                                executor_->shard_of(s), t, t, adopt,
                                [k](Rng& fault_rng, ClusterEvent& msg) {
                                    msg.col = static_cast<Opinion>(
                                        fault_rng.uniform_index(k));
                                });
                        }
                        m.locked = false;
                        break;
                    }
                    // Lines 6-7: pull the final opinion from a finished
                    // sample (window-start snapshot).
                    const NodeId samples[3] = {ev.s1, ev.s2, ev.s3};
                    bool adopted_final = false;
                    for (const NodeId s : samples) {
                        if (members_snap_[s].finished) {
                            adopt_finished(ctx.shard(), v, members_snap_[s].col);
                            adopted_final = true;
                            break;
                        }
                    }
                    if (adopted_final || my_cluster == kNoCluster) {
                        // Passive nodes participate only in the finished
                        // epidemic; clustered nodes are done for this
                        // exchange.
                        m.locked = false;
                        break;
                    }

                    // Line 8: the sampled node must belong to an active
                    // cluster whose leader is still alive (alive_ only
                    // changes between windows).
                    const std::int32_t l_cluster = clustering_.cluster_of[ev.s3];
                    if (l_cluster == kNoCluster ||
                        !alive_[static_cast<std::size_t>(l_cluster)]) {
                        m.locked = false;
                        break;
                    }
                    const LeaderSnap& l =
                        leader_snap_[static_cast<std::size_t>(l_cluster)];
                    const MemberView v1{members_snap_[ev.s1].gen,
                                        members_snap_[ev.s1].col};
                    const MemberView v2{members_snap_[ev.s2].gen,
                                        members_snap_[ev.s2].col};
                    const MemberDecision d =
                        decide_member_exchange(m, l.gen, l.state, v1, v2);

                    if (d.kind != MemberDecision::Kind::kNone) {
                        PAPC_CHECK(d.new_gen > m.gen);
                        record_move(ctx.shard(),
                                    CensusMove{m.gen, m.col, d.new_gen, d.new_col});
                        m.gen = d.new_gen;
                        m.col = d.new_col;
                        if (d.kind == MemberDecision::Kind::kTwoChoices) {
                            ++scratch.two_choices;
                        } else {
                            ++scratch.propagation;
                        }
                        // Line 20: the last generation carries the final
                        // opinion.
                        if (m.gen >= max_generation_) mark_finished(scratch, v);
                    }
                    // Lines 12/16/18: signal the own leader (one latency
                    // away, on the leader's shard).
                    {
                        ClusterEvent sig;
                        sig.kind = ClusterEventKind::kSignal;
                        sig.cluster = my_cluster;
                        sig.sig_i = d.signal.i;
                        sig.sig_s = d.signal.s;
                        sig.sig_changed = d.signal.has_changed;
                        // Corruption rewrites the counted generation downward
                        // (always protocol-legal: leaders accept any i <= gen).
                        ctx.signal_message(
                            leader_shard(static_cast<std::size_t>(my_cluster)),
                            t, t + latency_.sample(rng), sig,
                            [](Rng& fault_rng, ClusterEvent& msg) {
                                msg.sig_i = static_cast<Generation>(
                                    fault_rng.uniform_index(msg.sig_i + 1));
                            });
                    }
                    // Line 19: refresh tmp_* from the own leader (contacted
                    // concurrently during this exchange); if the own leader
                    // has crashed, fail over to the sampled leader's state.
                    // Both reads are window-start snapshots.
                    if (alive_[static_cast<std::size_t>(my_cluster)]) {
                        const LeaderSnap& own =
                            leader_snap_[static_cast<std::size_t>(my_cluster)];
                        m.tmp_gen = own.gen;
                        m.tmp_state = own.state;
                    } else {
                        m.tmp_gen = l.gen;
                        m.tmp_state = l.state;
                    }
                    m.locked = false;
                    break;
                }

                case ClusterEventKind::kSignal: {
                    PAPC_CHECK(ev.cluster != kNoCluster);
                    const auto idx = static_cast<std::size_t>(ev.cluster);
                    if (!alive_[idx]) break;  // crashed leaders drop signals
                    loads_[idx].record(t);
                    leaders_[idx]->on_signal(t, ev.sig_i, ev.sig_s,
                                             ev.sig_changed);
                    break;
                }

                case ClusterEventKind::kAdopt:
                    // A down target cannot process the push.
                    if (crash_on_ && injector_->is_down(ev.node, t)) {
                        ++scratch.crash_skips;
                        break;
                    }
                    adopt_finished(ctx.shard(), ev.node, ev.col);
                    break;
            }
        });
}

MultiLeaderResult MultiLeaderSimulation::run() {
    PAPC_CHECK(!ran_);
    ran_ = true;

    const std::size_t n = members_.size();
    result_.clustering = clustering_;
    result_.clustering_time = clustering_.elapsed;

    // Leader crashes keep the observer-driven §4 knobs
    // (maybe_inject_failure); the plan covers member crashes and message
    // faults.
    attach_faults(config_.fault, n, config_.max_time, rng_);
    executor_ = make_executor<ClusterEvent>(config_, n, rng_.split());
    scratch_.resize(executor_->num_shards());

    for (NodeId v = 0; v < n; ++v) {
        ClusterEvent tick;
        tick.kind = ClusterEventKind::kTick;
        tick.node = v;
        executor_->seed(executor_->shard_of(v), rng_.exponential(1.0), tick);
    }

    // Failure injection fires at the sampling cadence, like the old
    // metronome did (between windows: shards never observe a mid-window
    // crash).
    core::FunctionObserver observer(
        [this](double, double) { maybe_inject_failure(); });
    run_core(config_, observer, result_);
    fold(*executor_, result_);

    std::uint64_t finished_count = 0;
    for (const ShardScratch& scratch : scratch_) {
        fold_shard(scratch, result_);
        result_.finished_adoptions += scratch.adoptions;
        finished_count += scratch.finished;
    }
    for (const sim::LeaderLoad& load : loads_) fold_leader(load, result_);
    result_.finished_fraction =
        static_cast<double>(finished_count) / static_cast<double>(n);
    result_.leader_traces.reserve(leaders_.size());
    for (const auto& l : leaders_) {
        result_.leader_traces.push_back(l->trace());
    }
    return std::move(result_);
}

MultiLeaderResult run_multi_leader(std::size_t n, std::uint32_t k, double alpha,
                                   const ClusterConfig& config,
                                   std::uint64_t seed) {
    Rng workload_rng(derive_seed(seed, MultiLeaderSimulation::kWorkloadSalt));
    const Assignment assignment = make_biased_plurality(n, k, alpha, workload_rng);
    Rng clustering_rng(derive_seed(seed, MultiLeaderSimulation::kClusteringSalt));
    ClusteringResult clustering = run_clustering(n, config, clustering_rng);
    MultiLeaderSimulation simulation(
        assignment, std::move(clustering), config,
        derive_seed(seed, MultiLeaderSimulation::kRunSalt));
    return simulation.run();
}

}  // namespace papc::cluster
