#include "opinion/census.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/random.hpp"

namespace papc {
namespace {

TEST(StatsFromCounts, DominantAndRunnerUp) {
    const BiasStats s = stats_from_counts({10, 30, 20});
    EXPECT_EQ(s.dominant, 1U);
    EXPECT_EQ(s.runner_up, 2U);
    EXPECT_EQ(s.dominant_count, 30U);
    EXPECT_EQ(s.runner_up_count, 20U);
    EXPECT_DOUBLE_EQ(s.alpha, 1.5);
    EXPECT_EQ(s.total, 60U);
}

TEST(StatsFromCounts, CollisionProbability) {
    const BiasStats s = stats_from_counts({50, 50});
    EXPECT_DOUBLE_EQ(s.collision_probability, 0.5);
    const BiasStats mono = stats_from_counts({100, 0});
    EXPECT_DOUBLE_EQ(mono.collision_probability, 1.0);
}

TEST(StatsFromCounts, MonochromaticHasInfiniteAlpha) {
    const BiasStats s = stats_from_counts({0, 42, 0});
    EXPECT_TRUE(std::isinf(s.alpha));
    EXPECT_EQ(s.dominant, 1U);
    EXPECT_EQ(s.runner_up_count, 0U);
}

TEST(StatsFromCounts, EmptyGeneration) {
    const BiasStats s = stats_from_counts({0, 0});
    EXPECT_EQ(s.total, 0U);
    EXPECT_DOUBLE_EQ(s.collision_probability, 0.0);
}

TEST(StatsFromCounts, SingleOpinionVector) {
    const BiasStats s = stats_from_counts({7});
    EXPECT_EQ(s.dominant, 0U);
    EXPECT_EQ(s.runner_up, 0U);  // no second opinion exists
    EXPECT_TRUE(std::isinf(s.alpha));
}

TEST(CollisionLowerBound, MatchesRemark2WorstCase) {
    // Remark 2: worst case is all non-dominant colors equal; then
    // p = (α² + k - 1)/(α + k - 1)² exactly.
    const double alpha = 2.0;
    const std::uint32_t k = 5;
    // Build exact worst-case counts: c_a = α·m, others m.
    const BiasStats s = stats_from_counts({200, 100, 100, 100, 100});
    EXPECT_NEAR(s.collision_probability,
                collision_probability_lower_bound(alpha, k), 1e-12);
}

TEST(CollisionLowerBound, AtLeastOneOverK) {
    for (const std::uint32_t k : {2U, 4U, 16U}) {
        EXPECT_GE(collision_probability_lower_bound(1.0, k),
                  1.0 / static_cast<double>(k) - 1e-12);
    }
}

TEST(OpinionCensus, ResetAndCounts) {
    OpinionCensus c(5, 3);
    c.reset({0, 1, 1, 2, 2});
    EXPECT_EQ(c.count(0), 1U);
    EXPECT_EQ(c.count(1), 2U);
    EXPECT_EQ(c.count(2), 2U);
    EXPECT_EQ(c.undecided_count(), 0U);
    EXPECT_DOUBLE_EQ(c.fraction(1), 0.4);
}

TEST(OpinionCensus, TransitionsPreserveTotal) {
    OpinionCensus c(4, 2);
    c.reset({0, 0, 1, 1});
    c.transition(0, 1);
    EXPECT_EQ(c.count(0), 1U);
    EXPECT_EQ(c.count(1), 3U);
    c.transition(1, kUndecided);
    EXPECT_EQ(c.undecided_count(), 1U);
    c.transition(kUndecided, 0);
    EXPECT_EQ(c.undecided_count(), 0U);
    EXPECT_EQ(c.count(0) + c.count(1), 4U);
}

TEST(OpinionCensus, SelfTransitionIsNoop) {
    OpinionCensus c(2, 2);
    c.reset({0, 1});
    c.transition(0, 0);
    EXPECT_EQ(c.count(0), 1U);
}

TEST(OpinionCensus, ConvergedDetection) {
    OpinionCensus c(3, 2);
    c.reset({0, 0, 1});
    EXPECT_FALSE(c.converged());
    c.transition(1, 0);
    EXPECT_TRUE(c.converged());
    EXPECT_TRUE(c.unanimous(0));
    EXPECT_FALSE(c.unanimous(1));
}

TEST(OpinionCensus, UndecidedBlocksConvergence) {
    OpinionCensus c(2, 2);
    c.reset({0, kUndecided});
    EXPECT_FALSE(c.converged());
}

TEST(GenerationCensus, InitialStateAllGenerationZero) {
    GenerationCensus c(4, 2);
    c.reset({0, 0, 1, 1});
    EXPECT_EQ(c.generation_size(0), 4U);
    EXPECT_EQ(c.highest_populated(), 0U);
    EXPECT_DOUBLE_EQ(c.generation_fraction(0), 1.0);
    EXPECT_EQ(c.count(0, 0), 2U);
    EXPECT_EQ(c.count(5, 0), 0U);  // never-populated generation
}

TEST(GenerationCensus, TransitionMovesBetweenGenerations) {
    GenerationCensus c(3, 2);
    c.reset({0, 0, 1});
    c.transition(0, 0, 1, 0);
    EXPECT_EQ(c.generation_size(0), 2U);
    EXPECT_EQ(c.generation_size(1), 1U);
    EXPECT_EQ(c.highest_populated(), 1U);
    EXPECT_EQ(c.count(1, 0), 1U);
    // Color change during promotion.
    c.transition(0, 1, 1, 0);
    EXPECT_EQ(c.count(1, 0), 2U);
    EXPECT_DOUBLE_EQ(c.opinion_fraction(0), 1.0);
    EXPECT_TRUE(c.converged());
}

TEST(GenerationCensus, SizeAtLeastAccumulates) {
    GenerationCensus c(4, 2);
    c.reset({0, 0, 1, 1});
    c.transition(0, 0, 2, 0);
    c.transition(0, 1, 3, 1);
    EXPECT_EQ(c.size_at_least(0), 4U);
    EXPECT_EQ(c.size_at_least(1), 2U);
    EXPECT_EQ(c.size_at_least(3), 1U);
    EXPECT_EQ(c.size_at_least(4), 0U);
}

TEST(GenerationCensus, PerGenerationStats) {
    GenerationCensus c(6, 3);
    c.reset({0, 0, 0, 1, 1, 2});
    const BiasStats g0 = c.stats(0);
    EXPECT_EQ(g0.dominant, 0U);
    EXPECT_DOUBLE_EQ(g0.alpha, 1.5);
    const BiasStats empty = c.stats(7);
    EXPECT_EQ(empty.total, 0U);
}

TEST(GenerationCensus, PooledStatsAcrossGenerations) {
    GenerationCensus c(4, 2);
    c.reset({0, 0, 1, 1});
    c.transition(0, 0, 1, 0);
    const BiasStats pooled = c.pooled_stats();
    EXPECT_EQ(pooled.total, 4U);
    EXPECT_EQ(pooled.dominant_count, 2U);
}

TEST(GenerationCensus, RebuildMatchesTransitions) {
    GenerationCensus a(4, 2);
    a.reset({0, 1, 0, 1});
    a.transition(0, 0, 1, 0);
    a.transition(0, 1, 2, 0);

    // a now holds: gen0 = {col0: 1, col1: 1}, gen1 = {col0: 1},
    // gen2 = {col0: 1}; build the same layout directly.
    GenerationCensus b(4, 2);
    b.rebuild({1, 0, 0, 2}, {0, 1, 0, 0});
    for (Generation g = 0; g <= 2; ++g) {
        for (Opinion j = 0; j < 2; ++j) {
            EXPECT_EQ(a.count(g, j), b.count(g, j)) << "g=" << g << " j=" << j;
        }
    }
}

TEST(GenerationCensus, HighestPopulatedTracksUpAndDown) {
    GenerationCensus c(3, 2);
    c.reset({0, 1, 0});
    EXPECT_EQ(c.highest_populated(), 0U);
    c.transition(0, 0, 5, 0);  // sparse jump grows the cap on demand
    EXPECT_EQ(c.highest_populated(), 5U);
    c.transition(5, 0, 2, 0);  // generation 5 empties: cache must fall back
    EXPECT_EQ(c.highest_populated(), 2U);
    c.transition(2, 0, 0, 0);
    EXPECT_EQ(c.highest_populated(), 0U);
}

TEST(GenerationCensus, OpinionTotalMatchesPerGenerationSum) {
    GenerationCensus c(4, 3);
    c.reset({0, 1, 2, 0});
    c.transition(0, 0, 1, 2);  // also flips opinion 0 -> 2
    EXPECT_EQ(c.opinion_total(0), 1U);
    EXPECT_EQ(c.opinion_total(1), 1U);
    EXPECT_EQ(c.opinion_total(2), 2U);
    std::uint64_t sum = 0;
    for (Generation g = 0; g <= c.highest_populated(); ++g) {
        sum += c.count(g, 2);
    }
    EXPECT_EQ(sum, c.opinion_total(2));
}

TEST(GenerationCensus, ApplyDeltasMatchesTransitions) {
    GenerationCensus via_transitions(6, 2);
    via_transitions.reset({0, 0, 0, 1, 1, 1});
    GenerationCensus via_deltas(6, 2);
    via_deltas.reset({0, 0, 0, 1, 1, 1});

    via_transitions.transition(0, 0, 1, 0);
    via_transitions.transition(0, 1, 1, 1);
    via_transitions.transition(0, 1, 2, 0);  // opinion flip included

    // Same three moves as one row-major (generation, opinion) delta block.
    const Generation rows = 3;
    std::vector<std::int64_t> deltas(rows * 2, 0);
    deltas[0 * 2 + 0] -= 1;  // (0,0) -> (1,0)
    deltas[1 * 2 + 0] += 1;
    deltas[0 * 2 + 1] -= 2;  // (0,1) -> (1,1) and (0,1) -> (2,0)
    deltas[1 * 2 + 1] += 1;
    deltas[2 * 2 + 0] += 1;
    via_deltas.apply_deltas(deltas, rows);

    EXPECT_EQ(via_deltas.highest_populated(),
              via_transitions.highest_populated());
    for (Generation g = 0; g <= 2; ++g) {
        EXPECT_EQ(via_deltas.generation_size(g),
                  via_transitions.generation_size(g));
        for (Opinion j = 0; j < 2; ++j) {
            EXPECT_EQ(via_deltas.count(g, j), via_transitions.count(g, j))
                << "g=" << g << " j=" << j;
        }
    }
    for (Opinion j = 0; j < 2; ++j) {
        EXPECT_EQ(via_deltas.opinion_total(j),
                  via_transitions.opinion_total(j));
    }
}

TEST(GenerationCensus, ApplyDeltasGrowsGenerationCap) {
    GenerationCensus c(2, 2);
    c.reset({0, 1});
    const Generation rows = 40;  // far beyond the initial doubling cap
    std::vector<std::int64_t> deltas(static_cast<std::size_t>(rows) * 2, 0);
    deltas[0] -= 1;
    deltas[39 * 2 + 0] += 1;
    c.apply_deltas(deltas, rows);
    EXPECT_EQ(c.highest_populated(), 39U);
    EXPECT_EQ(c.count(39, 0), 1U);
    EXPECT_EQ(c.generation_size(0), 1U);
}

/// Every count, total and stat of two censuses agree, generation by
/// generation up to one past the highest populated.
void expect_census_equal(const GenerationCensus& a, const GenerationCensus& b,
                         std::uint32_t k) {
    ASSERT_EQ(a.highest_populated(), b.highest_populated());
    for (Generation g = 0; g <= b.highest_populated() + 1; ++g) {
        ASSERT_EQ(a.generation_size(g), b.generation_size(g)) << "g=" << g;
        for (Opinion j = 0; j < k; ++j) {
            ASSERT_EQ(a.count(g, j), b.count(g, j)) << "g=" << g << " j=" << j;
        }
        const BiasStats sa = a.stats(g);
        const BiasStats sb = b.stats(g);
        EXPECT_EQ(sa.dominant, sb.dominant) << "g=" << g;
        EXPECT_EQ(sa.runner_up, sb.runner_up) << "g=" << g;
        EXPECT_EQ(sa.alpha, sb.alpha) << "g=" << g;
        EXPECT_EQ(sa.collision_probability, sb.collision_probability) << "g=" << g;
    }
    for (Opinion j = 0; j < k; ++j) {
        ASSERT_EQ(a.opinion_total(j), b.opinion_total(j)) << "j=" << j;
    }
    EXPECT_EQ(a.converged(), b.converged());
}

TEST(GenerationCensus, RandomDeltaStreamMatchesTransitionStream) {
    // Random legal delta blocks over a wide opinion space: random movers
    // re-placed in [gen, gen + 1] with a random opinion, the shape of a
    // round kernel's fused-census commit. The same moves as transitions,
    // and a rebuild from the final per-node state, must agree.
    Rng rng(1102);
    const std::size_t n = 3000;
    const std::uint32_t k = 80;
    std::vector<Opinion> ops(n);
    for (auto& op : ops) op = static_cast<Opinion>(rng.uniform_index(k));
    GenerationCensus via_deltas(n, k);
    GenerationCensus via_transitions(n, k);
    via_deltas.reset(ops);
    via_transitions.reset(ops);

    std::vector<Generation> gens(n, 0);
    for (int round = 0; round < 60; ++round) {
        const Generation rows = via_deltas.highest_populated() + 2;
        std::vector<std::int64_t> deltas(static_cast<std::size_t>(rows) * k, 0);
        for (int move = 0; move < 500; ++move) {
            const std::size_t v = rng.uniform_index(n);
            // A node drawn twice in one block may not climb past the
            // block's row bound (real rounds move each node once).
            const Generation gen_to = std::min<Generation>(
                gens[v] +
                    static_cast<Generation>(rng.uniform_index(4) == 0 ? 1 : 0),
                rows - 1);
            const auto op_to = static_cast<Opinion>(rng.uniform_index(k));
            --deltas[static_cast<std::size_t>(gens[v]) * k + ops[v]];
            ++deltas[static_cast<std::size_t>(gen_to) * k + op_to];
            via_transitions.transition(gens[v], ops[v], gen_to, op_to);
            gens[v] = gen_to;
            ops[v] = op_to;
        }
        via_deltas.apply_deltas(deltas, rows);
    }
    ASSERT_GT(via_deltas.highest_populated(), 0U);
    expect_census_equal(via_deltas, via_transitions, k);

    GenerationCensus rebuilt(n, k);
    rebuilt.rebuild(gens, ops);
    expect_census_equal(rebuilt, via_transitions, k);
}

TEST(GenerationCensus, SinglePopulatedCellRunnerUpIsTheLowestOtherCell) {
    // With one populated cell the runner-up is the lowest-index zero cell
    // other than the dominant (count 0, alpha = inf).
    const std::uint32_t k = 40;
    GenerationCensus at_zero(10, k);
    at_zero.reset(std::vector<Opinion>(10, 0));
    EXPECT_EQ(at_zero.stats(0).dominant, 0U);
    EXPECT_EQ(at_zero.stats(0).runner_up, 1U);
    EXPECT_EQ(at_zero.stats(0).runner_up_count, 0U);
    EXPECT_TRUE(std::isinf(at_zero.stats(0).alpha));

    GenerationCensus at_seven(10, k);
    at_seven.reset(std::vector<Opinion>(10, 7));
    EXPECT_EQ(at_seven.stats(0).dominant, 7U);
    EXPECT_EQ(at_seven.stats(0).runner_up, 0U);
    EXPECT_TRUE(std::isinf(at_seven.stats(0).alpha));
}

TEST(GenerationCensus, TiedDominantsRankByOpinion) {
    GenerationCensus c(10, 40);
    c.reset({3, 3, 3, 3, 3, 9, 9, 9, 9, 9});
    const BiasStats s = c.stats(0);
    EXPECT_EQ(s.dominant, 3U);
    EXPECT_EQ(s.runner_up, 9U);
    EXPECT_DOUBLE_EQ(s.alpha, 1.0);
    EXPECT_DOUBLE_EQ(s.collision_probability, 0.5);
}

TEST(GenerationCensus, EmptyRowStatsAreTheDefaults) {
    // A never-touched row and a row whose last node left both report the
    // default BiasStats.
    GenerationCensus c(4, 40);
    c.reset({1, 2, 3, 4});
    c.transition(0, 1, 3, 1);
    c.transition(3, 1, 0, 1);
    for (const Generation g : {Generation{2}, Generation{3}, Generation{9}}) {
        const BiasStats s = c.stats(g);
        const BiasStats d;
        EXPECT_EQ(s.total, d.total) << g;
        EXPECT_EQ(s.dominant, d.dominant) << g;
        EXPECT_EQ(s.runner_up, d.runner_up) << g;
        EXPECT_EQ(s.dominant_count, d.dominant_count) << g;
        EXPECT_EQ(s.runner_up_count, d.runner_up_count) << g;
        EXPECT_EQ(s.alpha, d.alpha) << g;
        EXPECT_EQ(s.collision_probability, d.collision_probability) << g;
    }
}

TEST(OpinionCensus, ApplyDeltasMatchesTransitions) {
    OpinionCensus via_transitions(5, 3);
    via_transitions.reset({0, 0, 1, 2, kUndecided});
    OpinionCensus via_deltas(5, 3);
    via_deltas.reset({0, 0, 1, 2, kUndecided});

    via_transitions.transition(0, kUndecided);
    via_transitions.transition(kUndecided, 2);  // the original undecided node
    via_transitions.transition(1, 0);

    std::vector<std::int64_t> deltas = {-1 + 1, -1, +1};
    via_deltas.apply_deltas(deltas, /*undecided_delta=*/0);

    for (Opinion j = 0; j < 3; ++j) {
        EXPECT_EQ(via_deltas.count(j), via_transitions.count(j)) << j;
    }
    EXPECT_EQ(via_deltas.undecided_count(), via_transitions.undecided_count());
}

}  // namespace
}  // namespace papc
