#include "core/run_result.hpp"

#include <gtest/gtest.h>

namespace papc::core {
namespace {

RunResult sample_result() {
    RunResult r;
    r.converged = true;
    r.winner = 3;
    r.plurality_won = true;
    r.epsilon_time = 12.625;
    r.consensus_time = 37.109375;
    r.end_time = 37.109375;
    r.steps = 123456789ULL;
    r.plurality_fraction = TimeSeries("plurality-fraction");
    r.plurality_fraction.record(0.0, 0.41);
    r.plurality_fraction.record(12.625, 0.98);
    r.plurality_fraction.record(37.109375, 1.0);
    return r;
}

TEST(RunResultSerialize, WritesOneKeyPerLineWithHexFloats) {
    // The format perfbench's gate compares results with: exact doubles
    // (hex floats), one `key value` line each, series points last.
    EXPECT_EQ(serialize(sample_result()),
              "converged 1\n"
              "winner 3\n"
              "plurality_won 1\n"
              "epsilon_time 0x1.94p+3\n"
              "consensus_time 0x1.28ep+5\n"
              "end_time 0x1.28ep+5\n"
              "steps 123456789\n"
              "series plurality-fraction\n"
              "point 0x0p+0 0x1.a3d70a3d70a3dp-2\n"
              "point 0x1.94p+3 0x1.f5c28f5c28f5cp-1\n"
              "point 0x1.28ep+5 0x1p+0\n");
}

TEST(RunResultConsistent, AcceptsWellFormedResults) {
    EXPECT_TRUE(consistent(sample_result()));
    EXPECT_TRUE(consistent(RunResult()));
    // A run where the expected plurality lost: ε-time never latched.
    RunResult rival;
    rival.converged = true;
    rival.plurality_won = false;
    rival.consensus_time = 5.0;
    rival.end_time = 5.0;
    EXPECT_TRUE(consistent(rival));
}

TEST(RunResultConsistent, RejectsEpsilonAfterConsensus) {
    RunResult r = sample_result();
    r.epsilon_time = r.consensus_time + 1.0;
    EXPECT_FALSE(consistent(r));
}

TEST(RunResultConsistent, RejectsDetectionBeyondEnd) {
    RunResult r = sample_result();
    r.end_time = r.consensus_time - 1.0;
    EXPECT_FALSE(consistent(r));
}

TEST(RunResultConsistent, RejectsPluralityWinWithoutEpsilon) {
    RunResult r;
    r.converged = true;
    r.plurality_won = true;
    r.consensus_time = 4.0;
    r.end_time = 4.0;
    r.epsilon_time = -1.0;
    EXPECT_FALSE(consistent(r));
}

}  // namespace
}  // namespace papc::core
