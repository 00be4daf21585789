#include "async/validated_simulation.hpp"

#include <gtest/gtest.h>

#include "async/simulation.hpp"
#include "opinion/assignment.hpp"

namespace papc::async {
namespace {

AsyncConfig fast_config() {
    AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 1500.0;
    c.record_series = false;
    return c;
}

TEST(ValidatedSimulation, ConvergesToPlurality) {
    const ValidatedResult r =
        run_validated_single_leader(1500, 4, 2.0, fast_config(), 2.0, 1);
    EXPECT_TRUE(r.base.converged);
    EXPECT_TRUE(r.base.plurality_won);
    EXPECT_GT(r.commits, 0U);
}

TEST(ValidatedSimulation, AbortRateIsSmall) {
    // The leader changes state only O(G*) times; validation failures are
    // confined to short windows around those changes.
    const ValidatedResult r =
        run_validated_single_leader(2000, 4, 2.0, fast_config(), 2.0, 2);
    ASSERT_TRUE(r.base.converged);
    EXPECT_LT(r.abort_rate, 0.10);
    EXPECT_DOUBLE_EQ(
        r.abort_rate,
        static_cast<double>(r.aborts) / static_cast<double>(r.commits + r.aborts));
}

TEST(ValidatedSimulation, SlowMessagesSlowConvergence) {
    const ValidatedResult fast =
        run_validated_single_leader(1200, 2, 2.0, fast_config(), 10.0, 3);
    AsyncConfig slow_cfg = fast_config();
    slow_cfg.max_time = 4000.0;
    const ValidatedResult slow =
        run_validated_single_leader(1200, 2, 2.0, slow_cfg, 0.25, 3);
    ASSERT_TRUE(fast.base.converged);
    ASSERT_TRUE(slow.base.converged);
    EXPECT_GT(slow.base.consensus_time, fast.base.consensus_time);
    EXPECT_GT(slow.base.steps_per_unit, fast.base.steps_per_unit);
}

TEST(ValidatedSimulation, NearInstantMessagesMatchPlainEngineShape) {
    // With negligible message latency the validated engine behaves like
    // Algorithm 2+3 (same workload scale, similar consensus time).
    AsyncConfig c = fast_config();
    const AsyncResult plain = run_single_leader(1500, 4, 2.0, c, 4);
    const ValidatedResult validated =
        run_validated_single_leader(1500, 4, 2.0, c, 1000.0, 4);
    ASSERT_TRUE(plain.converged);
    ASSERT_TRUE(validated.base.converged);
    EXPECT_LT(validated.base.consensus_time, 2.5 * plain.consensus_time);
}

TEST(ValidatedSimulation, DeterministicForSeed) {
    const ValidatedResult a =
        run_validated_single_leader(800, 3, 2.0, fast_config(), 2.0, 5);
    const ValidatedResult b =
        run_validated_single_leader(800, 3, 2.0, fast_config(), 2.0, 5);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_DOUBLE_EQ(a.base.consensus_time, b.base.consensus_time);
}

TEST(ValidatedSimulation, InvariantNodeGenBoundedByLeader) {
    Rng wrng(6);
    const Assignment a = make_biased_plurality(1000, 3, 2.0, wrng);
    AsyncConfig c = fast_config();
    ValidatedSingleLeaderSimulation sim(
        a, c, sim::make_exponential_latency(1.0),
        sim::make_exponential_latency(2.0), 7);
    const ValidatedResult r = sim.run();
    ASSERT_TRUE(r.base.converged);
    for (NodeId v = 0; v < 1000; ++v) {
        EXPECT_LE(sim.node(v).gen, sim.leader().gen());
    }
}

TEST(ValidatedSimulation, PromotionsSplitIntoCommitKinds) {
    const ValidatedResult r =
        run_validated_single_leader(1500, 4, 2.0, fast_config(), 2.0, 8);
    ASSERT_TRUE(r.base.converged);
    EXPECT_EQ(r.commits, r.base.two_choices_count + r.base.propagation_count);
}

}  // namespace
}  // namespace papc::async
