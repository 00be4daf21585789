#include "support/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "support/stats.hpp"

namespace papc {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng parent(7);
    Rng child = parent.split();
    // Child differs from a continued parent stream.
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (parent.next_u64() == child.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf) {
    Rng rng(4);
    RunningStat s;
    for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(2.0, 5.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
    Rng rng(6);
    std::vector<int> counts(10, 0);
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        ++counts[rng.uniform_index(10)];
    }
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.01);
    }
}

TEST(Rng, UniformIndexOneAlwaysZero) {
    Rng rng(7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0U);
}

TEST(Rng, BernoulliMatchesProbability) {
    Rng rng(8);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        if (rng.bernoulli(0.3)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanAndPositivity) {
    Rng rng(9);
    RunningStat s;
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.exponential(2.0);
        EXPECT_GT(x, 0.0);
        s.add(x);
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
    Rng rng(10);
    RunningStat s;
    for (int i = 0; i < 100000; ++i) s.add(rng.normal(3.0, 2.0));
    EXPECT_NEAR(s.mean(), 3.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, GammaMeanAndVariance) {
    Rng rng(11);
    RunningStat s;
    const double shape = 4.0;
    const double scale = 0.5;
    for (int i = 0; i < 100000; ++i) s.add(rng.gamma(shape, scale));
    EXPECT_NEAR(s.mean(), shape * scale, 0.02);
    EXPECT_NEAR(s.variance(), shape * scale * scale, 0.05);
}

TEST(Rng, GammaShapeBelowOne) {
    Rng rng(12);
    RunningStat s;
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.gamma(0.5, 1.0);
        EXPECT_GE(x, 0.0);
        s.add(x);
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, WeibullShapeOneIsExponential) {
    Rng rng(13);
    RunningStat s;
    for (int i = 0; i < 100000; ++i) s.add(rng.weibull(1.0, 2.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(Rng, BinomialSmall) {
    Rng rng(17);
    RunningStat s;
    for (int i = 0; i < 50000; ++i) {
        const auto x = rng.binomial(20, 0.25);
        EXPECT_LE(x, 20U);
        s.add(static_cast<double>(x));
    }
    EXPECT_NEAR(s.mean(), 5.0, 0.05);
}

TEST(Rng, BinomialLarge) {
    Rng rng(18);
    RunningStat s;
    for (int i = 0; i < 20000; ++i) {
        const auto x = rng.binomial(100000, 0.4);
        EXPECT_LE(x, 100000U);
        s.add(static_cast<double>(x));
    }
    EXPECT_NEAR(s.mean(), 40000.0, 20.0);
}

TEST(Rng, BinomialEdgeCases) {
    Rng rng(19);
    EXPECT_EQ(rng.binomial(0, 0.5), 0U);
    EXPECT_EQ(rng.binomial(10, 0.0), 0U);
    EXPECT_EQ(rng.binomial(10, 1.0), 10U);
}

TEST(Rng, DiscreteFollowsWeights) {
    Rng rng(20);
    const std::vector<double> weights{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) ++counts[rng.discrete(weights)];
    EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.3, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(trials), 0.6, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
    Rng rng(21);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = v;
    rng.shuffle(copy);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(copy.begin(), copy.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, ShuffleActuallyPermutes) {
    Rng rng(22);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i) v[i] = i;
    auto copy = v;
    rng.shuffle(copy);
    EXPECT_NE(v, copy);  // probability of identity is astronomically small
}

TEST(DeriveSeed, DistinctIndicesGiveDistinctSeeds) {
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        seeds.insert(derive_seed(123, i));
    }
    EXPECT_EQ(seeds.size(), 1000U);
}

TEST(DeriveSeed, StableAcrossCalls) {
    EXPECT_EQ(derive_seed(99, 7), derive_seed(99, 7));
    EXPECT_NE(derive_seed(99, 7), derive_seed(100, 7));
}

TEST(Splitmix64, KnownSequenceIsReproducible) {
    std::uint64_t s1 = 0;
    std::uint64_t s2 = 0;
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(splitmix64(s1), splitmix64(s2));
    }
}

TEST(Rng, UniformIndexExcludingCoversAllButExcluded) {
    Rng rng(17);
    std::vector<int> hits(10, 0);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = rng.uniform_index_excluding(10, 3);
        ASSERT_LT(v, 10U);
        ASSERT_NE(v, 3U);
        ++hits[static_cast<std::size_t>(v)];
    }
    for (std::size_t j = 0; j < hits.size(); ++j) {
        if (j == 3) {
            EXPECT_EQ(hits[j], 0);
        } else {
            EXPECT_GT(hits[j], 0);  // ~555 expected each
        }
    }
}

// split() derives the child by reseeding, not by a structural jump — the
// independence guarantee is statistical (see random.hpp). These smoke
// tests pin what the library actually relies on: parent and child streams
// neither overlap nor correlate on simulation-scale draw counts.

TEST(RngSplit, ParentAndChildSequencesDoNotOverlap) {
    constexpr std::size_t kDraws = 1000000;
    Rng parent(2020);
    Rng child = parent.split();
    // Any overlap of the two streams within the window would show up as a
    // shared 64-bit value; with independent streams the collision chance
    // over 1e6 + 1e6 draws is ~ 1e12 / 2^64 < 1e-7.
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < kDraws; ++i) {
        seen.insert(parent.next_u64());
    }
    for (std::size_t i = 0; i < kDraws; ++i) {
        ASSERT_EQ(seen.count(child.next_u64()), 0U) << "overlap at draw " << i;
    }
}

TEST(RngSplit, ChildStreamIsUncorrelatedWithParent) {
    constexpr std::size_t kDraws = 100000;
    Rng parent(7);
    Rng child = parent.split();
    // Pearson correlation of paired uniform draws should be ~0; a lagged
    // or shifted copy of the parent stream would correlate strongly.
    double sum_x = 0.0;
    double sum_y = 0.0;
    double sum_xx = 0.0;
    double sum_yy = 0.0;
    double sum_xy = 0.0;
    for (std::size_t i = 0; i < kDraws; ++i) {
        const double x = parent.uniform();
        const double y = child.uniform();
        sum_x += x;
        sum_y += y;
        sum_xx += x * x;
        sum_yy += y * y;
        sum_xy += x * y;
    }
    const double n = static_cast<double>(kDraws);
    const double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
    const double var_x = sum_xx / n - (sum_x / n) * (sum_x / n);
    const double var_y = sum_yy / n - (sum_y / n) * (sum_y / n);
    const double correlation = cov / std::sqrt(var_x * var_y);
    // 5σ bound for independent uniforms: 5/√n ≈ 0.016.
    EXPECT_LT(std::abs(correlation), 0.016);
}

TEST(RngSplit, RepeatedSplitsGiveDistinctChildren) {
    Rng parent(31);
    Rng a = parent.split();
    Rng b = parent.split();
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_EQ(equal, 0);
}

// ------------------------------------------------- batched block interface
//
// The sync-round kernels rely on fill_u64 / uniform_indices being
// bit-identical to the scalar calls: same values in order AND the same
// generator state afterwards (rejected Lemire draws consume raw words in
// both variants). These tests pin that contract.

TEST(RngBatch, FillU64MatchesScalarSequence) {
    Rng scalar(77);
    Rng batched(77);
    std::vector<std::uint64_t> block(4097);  // crosses internal block sizes
    batched.fill_u64(block.data(), block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
        ASSERT_EQ(block[i], scalar.next_u64()) << "position " << i;
    }
    // State advanced identically: the streams stay in lockstep afterwards.
    EXPECT_EQ(batched.next_u64(), scalar.next_u64());
}

TEST(RngBatch, FillU64ZeroCountIsNoOp) {
    Rng a(78);
    Rng b(78);
    a.fill_u64(nullptr, 0);
    EXPECT_EQ(a.next_u64(), b.next_u64());
}

void expect_uniform_indices_equivalent(std::uint64_t n, std::size_t count,
                                       std::uint64_t seed) {
    Rng scalar(seed);
    Rng batched(seed);
    std::vector<std::uint64_t> block(count);
    batched.uniform_indices(n, block.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(block[i], scalar.uniform_index(n))
            << "n=" << n << " position " << i;
    }
    // Rejected draws must have consumed raw words in both variants.
    EXPECT_EQ(batched.next_u64(), scalar.next_u64()) << "n=" << n;
}

TEST(RngBatch, UniformIndicesMatchesScalarSmallRange) {
    expect_uniform_indices_equivalent(3, 10000, 81);
    expect_uniform_indices_equivalent(1000003, 10000, 82);  // prime, not 2^k
}

TEST(RngBatch, UniformIndicesMatchesScalarPowerOfTwo) {
    expect_uniform_indices_equivalent(1ULL << 20U, 10000, 83);
}

TEST(RngBatch, UniformIndicesMatchesScalarUnderHeavyRejection) {
    // n just above 2^63: the Lemire threshold (2^64 - n) mod n = 2^64 - 2n
    // is huge, so nearly half of all raw words are rejected — the retry
    // path (same slot, next raw word) is exercised constantly.
    const std::uint64_t n = (1ULL << 63U) + 12345;
    expect_uniform_indices_equivalent(n, 5000, 84);
}

TEST(RngBatch, UniformIndicesMatchesScalarAcrossRefills) {
    // More outputs than the internal raw block: the refill path must keep
    // the raw stream seamless.
    expect_uniform_indices_equivalent(97, 100000, 85);
}

TEST(RngBatch, UniformIndicesSingleAndOne) {
    expect_uniform_indices_equivalent(1, 100, 86);  // always 0, still draws
    expect_uniform_indices_equivalent(5, 1, 87);
}

TEST(RngSubstream, PureFunctionOfStateAndLabels) {
    const Rng parent(90);
    Rng a = parent.substream(3, 7);
    Rng b = parent.substream(3, 7);
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64()) << "draw " << i;
    }
    // Deriving did not advance the parent: a fresh same-seed generator
    // produces the parent's original stream.
    Rng mutable_parent = parent;
    ASSERT_EQ(mutable_parent.next_u64(), Rng(90).next_u64());
}

TEST(RngSubstream, DistinctLabelsGiveDistinctStreams) {
    const Rng parent(91);
    // Any label pair differing in either coordinate (including swapped
    // coordinates) must yield a different stream.
    const std::pair<std::uint64_t, std::uint64_t> labels[] = {
        {0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 1}, {1, 2}, {7, 123}, {123, 7}};
    std::vector<std::uint64_t> firsts;
    for (const auto& [a, b] : labels) {
        firsts.push_back(parent.substream(a, b).next_u64());
    }
    for (std::size_t i = 0; i < firsts.size(); ++i) {
        for (std::size_t j = i + 1; j < firsts.size(); ++j) {
            EXPECT_NE(firsts[i], firsts[j]) << "label pairs " << i << ", " << j;
        }
    }
}

TEST(RngSubstream, DependsOnParentState) {
    Rng advanced(92);
    (void)advanced.next_u64();
    EXPECT_NE(Rng(92).substream(1, 2).next_u64(),
              advanced.substream(1, 2).next_u64());
}

TEST(RngSubstream, StreamsAreStatisticallyIndependent) {
    // Crude independence check à la the split() tests: 64-bit outputs of
    // sibling substreams should not collide over a long window.
    const Rng parent(93);
    Rng a = parent.substream(5, 0);
    Rng b = parent.substream(5, 1);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100000; ++i) seen.insert(a.next_u64());
    for (int i = 0; i < 100000; ++i) {
        ASSERT_EQ(seen.count(b.next_u64()), 0U) << "draw " << i;
    }
}

}  // namespace
}  // namespace papc
