#include "async/sequential_simulation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "async/simulation.hpp"
#include "sim/windowed_executor.hpp"

namespace papc::async {
namespace {

AsyncConfig fast_config() {
    AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 500.0;
    c.record_series = false;
    return c;
}

TEST(SequentialSimulation, ConvergesToPlurality) {
    const AsyncResult r = run_sequential_single_leader(2000, 4, 2.0,
                                                       fast_config(), 1);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.plurality_won);
    EXPECT_EQ(r.winner, 0U);
}

TEST(SequentialSimulation, EveryTickIsGood) {
    // Instant channels: locking never triggers.
    const AsyncResult r = run_sequential_single_leader(1000, 2, 2.0,
                                                       fast_config(), 2);
    EXPECT_EQ(r.ticks, r.good_ticks);
    EXPECT_EQ(r.ticks, r.exchanges);
    EXPECT_EQ(r.channels_opened, 0U);
    EXPECT_DOUBLE_EQ(r.steps_per_unit, 1.0);
}

TEST(SequentialSimulation, MuchFasterThanLatencyModel) {
    // The latency model pays ≈ C1 steps per protocol unit; the sequential
    // model pays 1. Same workload scale, consensus time ratio should be
    // several-fold.
    AsyncConfig c = fast_config();
    const AsyncResult seq = run_sequential_single_leader(2000, 4, 2.0, c, 3);
    const AsyncResult lat = run_single_leader(2000, 4, 2.0, c, 3);
    ASSERT_TRUE(seq.converged);
    ASSERT_TRUE(lat.converged);
    EXPECT_LT(seq.consensus_time * 2.0, lat.consensus_time);
}

TEST(SequentialSimulation, LeaderTraceHasSameShapeAsLatencyModel) {
    // Both engines run the same protocol logic: generations alternate with
    // prop = false at each birth.
    const AsyncResult r = run_sequential_single_leader(3000, 4, 1.8,
                                                       fast_config(), 4);
    ASSERT_TRUE(r.converged);
    Generation seen = 0;
    for (const auto& tr : r.leader_trace) {
        if (tr.gen > seen) {
            EXPECT_FALSE(tr.prop);
            seen = tr.gen;
        }
    }
    EXPECT_GE(seen, 2U);
}

TEST(SequentialSimulation, DeterministicForSeed) {
    const AsyncResult a = run_sequential_single_leader(800, 3, 2.0,
                                                       fast_config(), 5);
    const AsyncResult b = run_sequential_single_leader(800, 3, 2.0,
                                                       fast_config(), 5);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_DOUBLE_EQ(a.consensus_time, b.consensus_time);
    EXPECT_EQ(a.two_choices_count, b.two_choices_count);
}

TEST(SequentialSimulation, NodeGenerationsBounded) {
    Rng wrng(6);
    const Assignment a = make_biased_plurality(1200, 3, 2.0, wrng);
    SequentialSingleLeaderSimulation sim(a, fast_config(), 7);
    const AsyncResult r = sim.run();
    ASSERT_TRUE(r.converged);
    for (NodeId v = 0; v < 1200; ++v) {
        EXPECT_LE(sim.node(v).gen, sim.leader().gen());
    }
}

TEST(SequentialSimulation, WindowKnobSetsTheTickLoopWindows) {
    // The tick loop reads `window`, falling back to default_window(lambda):
    // spelling the default out is the same run, another width is not.
    std::map<double, std::uint64_t> windows;
    for (const double lambda : {0.5, 1.0, 4.0}) {
        AsyncConfig automatic = fast_config();
        automatic.lambda = lambda;
        AsyncConfig explicit_window = automatic;
        explicit_window.window = sim::default_window(lambda);
        const AsyncResult a = run_sequential_single_leader(800, 3, 2.0, automatic, 8);
        const AsyncResult b =
            run_sequential_single_leader(800, 3, 2.0, explicit_window, 8);
        EXPECT_EQ(a.windows, b.windows) << lambda;
        EXPECT_EQ(a.ticks, b.ticks) << lambda;
        EXPECT_EQ(a.two_choices_count, b.two_choices_count) << lambda;
        EXPECT_DOUBLE_EQ(a.consensus_time, b.consensus_time) << lambda;
        EXPECT_EQ(a.events_processed, a.ticks);
        EXPECT_EQ(a.window_stragglers, 0U);
        windows[lambda] = a.windows;
    }
    // Faster channels shrink the auto window (0.25 -> 0.0625).
    EXPECT_GT(windows[4.0], 2 * windows[1.0]);
    AsyncConfig wide = fast_config();
    wide.window = 0.5;
    const AsyncResult base =
        run_sequential_single_leader(800, 3, 2.0, fast_config(), 8);
    const AsyncResult other = run_sequential_single_leader(800, 3, 2.0, wide, 8);
    EXPECT_LT(other.windows, base.windows);
    EXPECT_NE(other.consensus_time, base.consensus_time);
}

}  // namespace
}  // namespace papc::async
