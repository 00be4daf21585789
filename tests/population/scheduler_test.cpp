#include "population/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace papc::population {
namespace {

/// Protocol that records interactions and converges after a fixed count.
class RecordingProtocol final : public PopulationProtocol {
public:
    explicit RecordingProtocol(std::size_t n, std::uint64_t converge_after)
        : n_(n), converge_after_(converge_after) {}

    void interact(NodeId initiator, NodeId responder) override {
        EXPECT_NE(initiator, responder);
        EXPECT_LT(initiator, n_);
        EXPECT_LT(responder, n_);
        ++interactions_;
    }
    [[nodiscard]] std::size_t population() const override { return n_; }
    [[nodiscard]] bool converged() const override {
        return interactions_ >= converge_after_;
    }
    [[nodiscard]] Opinion current_winner() const override { return 0; }
    [[nodiscard]] double output_fraction(Opinion) const override {
        return converged() ? 1.0 : 0.5;
    }
    [[nodiscard]] std::string name() const override { return "recording"; }

    std::uint64_t interactions_ = 0;

private:
    std::size_t n_;
    std::uint64_t converge_after_;
};

TEST(RunPopulation, StopsAtConvergenceCheckBoundary) {
    RecordingProtocol p(100, 250);
    Rng rng(1);
    const PopulationResult r = run_population(p, rng);
    EXPECT_TRUE(r.converged);
    // Convergence is checked every n = 100 interactions: detected at 300.
    EXPECT_EQ(r.steps, 300U);
    EXPECT_DOUBLE_EQ(r.end_time, 3.0);
}

TEST(RunPopulation, RespectsInteractionCap) {
    RecordingProtocol p(50, 1000000);
    Rng rng(2);
    PopulationRunOptions opts;
    opts.max_interactions = 500;
    const PopulationResult r = run_population(p, rng, opts);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.steps, 500U);
}

TEST(RunPopulation, PairsAreDistinctAndValid) {
    RecordingProtocol p(10, 100000);
    Rng rng(3);
    PopulationRunOptions opts;
    opts.max_interactions = 20000;
    (void)run_population(p, rng, opts);  // assertions live in interact()
}

TEST(RunPopulation, RecordsSeries) {
    RecordingProtocol p(100, 100000);
    Rng rng(4);
    PopulationRunOptions opts;
    opts.max_interactions = 2000;
    opts.record_every = 500;
    opts.check_every = 500;
    const PopulationResult r = run_population(p, rng, opts);
    EXPECT_GE(r.plurality_fraction.size(), 3U);
}

TEST(RunPopulation, DefaultCapScalesWithNLogN) {
    RecordingProtocol p(64, 1ULL << 62);
    Rng rng(5);
    const PopulationResult r = run_population(p, rng);
    // 64·n·log2(n) = 64·64·6 = 24576.
    EXPECT_EQ(r.steps, 24576U);
}

}  // namespace
}  // namespace papc::population
