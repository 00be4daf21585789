#include "cluster/clustering.hpp"

#include <algorithm>
#include <cmath>

#include "sim/latency.hpp"
#include "sim/scheduler_queue.hpp"
#include "support/check.hpp"

namespace papc::cluster {

namespace {

enum class Phase : std::uint8_t {
    kGrowing,   ///< accepting until the floor is reached
    kPaused,    ///< floor reached; rejecting while counting the pause window
    kOpen,      ///< accepting again; counting towards the switch
    kSwitched,  ///< in consensus mode (broadcast source)
};

struct LeaderInfo {
    NodeId node = 0;
    Phase phase = Phase::kGrowing;
    std::uint64_t counter = 0;       ///< 0-signals since the last phase edge
    std::vector<NodeId> members;     ///< member 0 is the leader itself
    bool informed = false;           ///< has heard the consensus-mode message
    double informed_time = -1.0;
};

enum class EventKind : std::uint8_t {
    kTick,
    kJoinAttempt,   ///< latency-delayed completion of a join contact
    kZeroSignal,    ///< member 0-signal arriving at its leader
    kGossip,        ///< latency-delayed leader-gossip contact (broadcast)
};

struct EventPayload {
    EventKind kind = EventKind::kTick;
    NodeId node = 0;
    NodeId s1 = 0;
    NodeId s2 = 0;
    NodeId s3 = 0;
    std::int32_t leader = kNoCluster;  ///< for kZeroSignal: target cluster
};

}  // namespace

ClusteringResult run_clustering(std::size_t n, const ClusterConfig& config,
                                Rng& rng) {
    PAPC_CHECK(n >= 16);
    const std::size_t floor = config.resolved_floor(n);
    const double leader_prob = config.resolved_leader_probability(n);
    const double loglog = std::max(1.0, std::log2(std::log2(static_cast<double>(n))));
    const auto pause_count = static_cast<std::uint64_t>(
        std::ceil(kPauseFactor * static_cast<double>(floor) * loglog));
    const auto switch_count = static_cast<std::uint64_t>(
        std::ceil(kSwitchFactor * static_cast<double>(floor) * loglog));

    const sim::ExponentialLatency latency(config.lambda);

    // Coin flips (at time 0; the theorem's proof notes this is equivalent to
    // flipping at the first tick).
    std::vector<std::int32_t> cluster_of(n, kNoCluster);
    std::vector<std::int32_t> leader_index_of(n, kNoCluster);  // node -> leader idx
    std::vector<LeaderInfo> leaders;
    for (NodeId v = 0; v < n; ++v) {
        if (rng.bernoulli(leader_prob)) {
            const auto idx = static_cast<std::int32_t>(leaders.size());
            LeaderInfo info;
            info.node = v;
            info.members.push_back(v);
            leaders.push_back(std::move(info));
            leader_index_of[v] = idx;
            cluster_of[v] = idx;
        }
    }

    ClusteringResult result;
    result.num_leaders = leaders.size();
    result.cluster_of.assign(n, kNoCluster);
    if (leaders.empty()) {
        // Degenerate (tiny n / tiny probability): report failure; caller
        // may retry with another seed or larger probability.
        result.completed = false;
        return result;
    }

    std::vector<bool> join_pending(n, false);
    // Join rank inside the cluster (leader = 0); only ranks < floor keep
    // sending 0-signals after the cluster reopens.
    std::vector<std::uint32_t> join_rank(n, 0);

    // Each node keeps a tick plus at most one join/signal/gossip event in
    // flight; reserve accordingly.
    auto queue =
        sim::make_scheduler_queue<EventPayload>(config.queue_kind, 2 * n);
    for (NodeId v = 0; v < n; ++v) {
        queue->push(rng.exponential(1.0),
                    EventPayload{EventKind::kTick, v, 0, 0, 0, kNoCluster});
    }

    auto accepting = [&](const LeaderInfo& info) {
        return info.phase == Phase::kGrowing || info.phase == Phase::kOpen;
    };

    bool broadcast_started = false;
    std::size_t uninformed = leaders.size();

    auto inform = [&](std::int32_t idx, double now) {
        LeaderInfo& info = leaders[static_cast<std::size_t>(idx)];
        if (info.informed) return;
        info.informed = true;
        info.informed_time = now;
        PAPC_CHECK(uninformed > 0);
        --uninformed;
        result.all_informed_time = now;
    };

    auto sample_node = [&] { return static_cast<NodeId>(rng.uniform_index(n)); };

    double now = 0.0;
    while (!queue->empty()) {
        auto entry = queue->pop();
        now = entry.time;
        if (now > config.clustering_max_time) break;
        if (broadcast_started && uninformed == 0) break;
        const EventPayload& ev = entry.payload;

        switch (ev.kind) {
            case EventKind::kTick: {
                const NodeId v = ev.node;
                const std::int32_t my_cluster = cluster_of[v];
                if (my_cluster != kNoCluster) {
                    // Member (or leader): 0-signal to the own leader, one
                    // latency away. Only the first `floor` members keep
                    // signalling (the paper equalizes counting rates).
                    if (join_rank[v] < floor) {
                        queue->push(now + latency.sample(rng),
                                    EventPayload{EventKind::kZeroSignal, v, 0,
                                                 0, 0, my_cluster});
                    }
                    // Broadcast gossip: contact the own leader and the
                    // leaders of two random nodes (§4.2).
                    if (broadcast_started) {
                        // sample_node() draws from rng too, so the payload
                        // is built in its own statement, before the latencies.
                        const EventPayload gossip{EventKind::kGossip, v,
                                                  sample_node(), sample_node(),
                                                  0, my_cluster};
                        const double to_leader = latency.sample(rng);
                        const double onward = latency.sample(rng);
                        queue->push(now + to_leader + onward, gossip);
                    }
                } else if (!join_pending[v]) {
                    // Unassigned follower: try to join via three samples.
                    join_pending[v] = true;
                    const double channels = std::max(
                        {latency.sample(rng), latency.sample(rng), latency.sample(rng)});
                    const EventPayload join{EventKind::kJoinAttempt, v,
                                            sample_node(), sample_node(),
                                            sample_node(), kNoCluster};
                    queue->push(now + channels + latency.sample(rng), join);
                }
                queue->push(now + rng.exponential(1.0),
                            EventPayload{EventKind::kTick, v, 0, 0, 0,
                                         kNoCluster});
                break;
            }

            case EventKind::kJoinAttempt: {
                const NodeId v = ev.node;
                join_pending[v] = false;
                if (cluster_of[v] != kNoCluster) break;
                for (const NodeId s : {ev.s1, ev.s2, ev.s3}) {
                    const std::int32_t idx = cluster_of[s];
                    if (idx == kNoCluster) continue;
                    LeaderInfo& info = leaders[static_cast<std::size_t>(idx)];
                    if (!accepting(info)) continue;
                    join_rank[v] = static_cast<std::uint32_t>(info.members.size());
                    info.members.push_back(v);
                    cluster_of[v] = idx;
                    if (info.phase == Phase::kGrowing &&
                        info.members.size() >= floor) {
                        info.phase = Phase::kPaused;
                        info.counter = 0;
                    }
                    break;
                }
                break;
            }

            case EventKind::kZeroSignal: {
                PAPC_CHECK(ev.leader != kNoCluster);
                LeaderInfo& info = leaders[static_cast<std::size_t>(ev.leader)];
                if (info.phase == Phase::kPaused) {
                    if (++info.counter >= pause_count) {
                        info.phase = Phase::kOpen;
                        info.counter = 0;
                    }
                } else if (info.phase == Phase::kOpen) {
                    if (++info.counter >= switch_count) {
                        info.phase = Phase::kSwitched;
                        if (!broadcast_started) {
                            broadcast_started = true;
                            result.first_switch_time = now;
                        }
                        inform(ev.leader, now);
                    }
                }
                break;
            }

            case EventKind::kGossip: {
                // The member learned the leaders of two random nodes plus
                // its own; an informed leader among them informs the rest.
                std::int32_t contacted[3] = {ev.leader, cluster_of[ev.s1],
                                             cluster_of[ev.s2]};
                bool any_informed = false;
                for (const std::int32_t idx : contacted) {
                    if (idx != kNoCluster &&
                        leaders[static_cast<std::size_t>(idx)].informed) {
                        any_informed = true;
                        break;
                    }
                }
                if (any_informed) {
                    for (const std::int32_t idx : contacted) {
                        if (idx != kNoCluster) inform(idx, now);
                    }
                }
                break;
            }
        }
    }

    result.elapsed = now;
    result.completed = broadcast_started && uninformed == 0;

    // Active clusters: reached the floor by the time their leader was
    // informed (Theorem 27). Re-index them densely.
    std::vector<std::int32_t> dense_index(leaders.size(), kNoCluster);
    for (std::size_t i = 0; i < leaders.size(); ++i) {
        LeaderInfo& info = leaders[i];
        const bool active = info.informed && info.members.size() >= floor;
        if (!active) continue;
        dense_index[i] = static_cast<std::int32_t>(result.clusters.size());
        result.clusters.push_back(std::move(info.members));
    }
    for (NodeId v = 0; v < n; ++v) {
        const std::int32_t raw = cluster_of[v];
        result.cluster_of[v] =
            raw == kNoCluster ? kNoCluster : dense_index[static_cast<std::size_t>(raw)];
    }
    result.num_active = result.clusters.size();
    for (const auto& members : result.clusters) {
        result.nodes_in_active += members.size();
    }
    result.fraction_clustered =
        static_cast<double>(result.nodes_in_active) / static_cast<double>(n);
    return result;
}

}  // namespace papc::cluster
