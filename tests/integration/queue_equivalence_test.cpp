#include <gtest/gtest.h>

#include "async/simulation.hpp"
#include "async/validated_simulation.hpp"
#include "cluster/broadcast.hpp"
#include "cluster/simulation.hpp"

namespace papc {
namespace {

// The scheduler-queue subsystem guarantees that every QueueKind pops in
// identical (time, seq) order, so a fixed-seed run must produce identical
// results whichever queue backs it. These tests pin that engine-level
// contract for every discrete-event consumer.

async::AsyncConfig async_config(sim::QueueKind kind) {
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 500.0;
    c.queue_kind = kind;
    return c;
}

TEST(QueueEquivalence, AsyncSingleLeaderIdenticalRuns) {
    const async::AsyncResult heap = async::run_single_leader(
        600, 3, 2.0, async_config(sim::QueueKind::kBinaryHeap), 42);
    for (const sim::QueueKind kind :
         {sim::QueueKind::kCalendar, sim::QueueKind::kLadder}) {
        const async::AsyncResult other =
            async::run_single_leader(600, 3, 2.0, async_config(kind), 42);

        EXPECT_EQ(heap.ticks, other.ticks);
        EXPECT_EQ(heap.good_ticks, other.good_ticks);
        EXPECT_EQ(heap.exchanges, other.exchanges);
        EXPECT_EQ(heap.two_choices_count, other.two_choices_count);
        EXPECT_EQ(heap.propagation_count, other.propagation_count);
        EXPECT_EQ(heap.refresh_count, other.refresh_count);
        EXPECT_EQ(heap.signals_delivered, other.signals_delivered);
        EXPECT_EQ(heap.steps, other.steps);
        EXPECT_EQ(heap.events_processed, other.events_processed);
        EXPECT_EQ(heap.window_stragglers, other.window_stragglers);
        EXPECT_EQ(heap.winner, other.winner);
        EXPECT_DOUBLE_EQ(heap.consensus_time, other.consensus_time);
        EXPECT_DOUBLE_EQ(heap.end_time, other.end_time);

        ASSERT_EQ(heap.leader_trace.size(), other.leader_trace.size());
        for (std::size_t i = 0; i < heap.leader_trace.size(); ++i) {
            EXPECT_DOUBLE_EQ(heap.leader_trace[i].time,
                             other.leader_trace[i].time);
            EXPECT_EQ(heap.leader_trace[i].gen, other.leader_trace[i].gen);
            EXPECT_EQ(heap.leader_trace[i].prop, other.leader_trace[i].prop);
        }
    }
}

TEST(QueueEquivalence, ValidatedSingleLeaderIdenticalRuns) {
    const async::ValidatedResult heap = async::run_validated_single_leader(
        800, 3, 2.0, async_config(sim::QueueKind::kBinaryHeap), 2.0, 7);
    for (const sim::QueueKind kind :
         {sim::QueueKind::kCalendar, sim::QueueKind::kLadder}) {
        const async::ValidatedResult other = async::run_validated_single_leader(
            800, 3, 2.0, async_config(kind), 2.0, 7);

        EXPECT_EQ(heap.commits, other.commits);
        EXPECT_EQ(heap.aborts, other.aborts);
        EXPECT_EQ(heap.base.ticks, other.base.ticks);
        EXPECT_EQ(heap.base.exchanges, other.base.exchanges);
        EXPECT_EQ(heap.base.steps, other.base.steps);
        EXPECT_EQ(heap.base.events_processed, other.base.events_processed);
        EXPECT_EQ(heap.base.winner, other.base.winner);
        EXPECT_DOUBLE_EQ(heap.base.consensus_time, other.base.consensus_time);
        EXPECT_DOUBLE_EQ(heap.base.end_time, other.base.end_time);
    }
}

cluster::ClusterConfig cluster_config(sim::QueueKind kind) {
    cluster::ClusterConfig c;
    c.size_floor = 16;
    c.leader_probability = 1.0 / 32.0;
    c.alpha_hint = 2.0;
    c.max_time = 1000.0;
    c.queue_kind = kind;
    return c;
}

TEST(QueueEquivalence, MultiLeaderIdenticalRuns) {
    // Covers both event loops behind ClusterConfig::queue_kind: the
    // clustering phase and the consensus phase.
    const cluster::MultiLeaderResult heap = cluster::run_multi_leader(
        1024, 2, 2.0, cluster_config(sim::QueueKind::kBinaryHeap), 5);
    for (const sim::QueueKind kind :
         {sim::QueueKind::kCalendar, sim::QueueKind::kLadder}) {
        const cluster::MultiLeaderResult other =
            cluster::run_multi_leader(1024, 2, 2.0, cluster_config(kind), 5);

        EXPECT_EQ(heap.clustering.cluster_of, other.clustering.cluster_of);
        EXPECT_EQ(heap.clustering.num_active, other.clustering.num_active);
        EXPECT_DOUBLE_EQ(heap.clustering_time, other.clustering_time);
        EXPECT_EQ(heap.ticks, other.ticks);
        EXPECT_EQ(heap.exchanges, other.exchanges);
        EXPECT_EQ(heap.two_choices_count, other.two_choices_count);
        EXPECT_EQ(heap.propagation_count, other.propagation_count);
        EXPECT_EQ(heap.finished_adoptions, other.finished_adoptions);
        EXPECT_EQ(heap.signals_delivered, other.signals_delivered);
        EXPECT_EQ(heap.events_processed, other.events_processed);
        EXPECT_EQ(heap.winner, other.winner);
        EXPECT_DOUBLE_EQ(heap.end_time, other.end_time);
        EXPECT_DOUBLE_EQ(heap.finished_fraction, other.finished_fraction);
    }
}

TEST(QueueEquivalence, BroadcastIdenticalRuns) {
    cluster::ClusterConfig config = cluster_config(sim::QueueKind::kBinaryHeap);
    Rng clustering_rng(9);
    const cluster::ClusteringResult clustering =
        cluster::run_clustering(1024, config, clustering_rng);
    ASSERT_GT(clustering.clusters.size(), 0U);

    Rng heap_rng(21);
    Rng calendar_rng(21);
    const cluster::BroadcastResult heap =
        cluster::run_broadcast(clustering, 0, 1.0, 200.0, heap_rng,
                               sim::QueueKind::kBinaryHeap);
    const cluster::BroadcastResult calendar =
        cluster::run_broadcast(clustering, 0, 1.0, 200.0, calendar_rng,
                               sim::QueueKind::kCalendar);

    EXPECT_EQ(heap.completed, calendar.completed);
    EXPECT_EQ(heap.informed, calendar.informed);
    EXPECT_DOUBLE_EQ(heap.time_to_all, calendar.time_to_all);
    EXPECT_DOUBLE_EQ(heap.mean_inform_time, calendar.mean_inform_time);
}

}  // namespace
}  // namespace papc
