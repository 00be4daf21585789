#include "sync/round_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "opinion/assignment.hpp"
#include "opinion/packed_array.hpp"
#include "sync/algorithm1.hpp"
#include "sync/schedule.hpp"

namespace papc::sync {
namespace {

TEST(ShardedRound, DrawScheduleMatchesPerShardSubstreams) {
    // Shard s of round r must draw exactly the sequence of
    // rng.substream(r, s).uniform_index(n) — nothing about the driver
    // (batching, scratch reuse, worker pool) may change which raw words
    // feed which node.
    const std::size_t n = 2 * kRoundBlock + 137;  // partial tail shard
    const std::uint64_t round = 9;
    Rng rng(52);

    ShardedRoundDriver driver(n, /*threads=*/1);
    ASSERT_EQ(driver.num_shards(), 3U);
    std::vector<std::vector<std::uint64_t>> per_shard(driver.num_shards());
    driver.run_batched<3>(rng, round,
                          [&](std::size_t shard, std::size_t, std::size_t count,
                              const std::uint64_t* idx, auto& /*arena*/) {
        per_shard[shard].assign(idx, idx + 3 * count);
    });

    // The driver advances the parent by exactly one draw per round (the
    // shared-generator decorrelation nonce), then derives shard
    // substreams from the advanced state.
    Rng reference(52);
    (void)reference.next_u64();
    EXPECT_EQ(rng.next_u64(), [&] {
        Rng expect = reference;
        return expect.next_u64();
    }());
    for (std::size_t s = 0; s < per_shard.size(); ++s) {
        Rng sub = reference.substream(round, s);
        for (std::size_t d = 0; d < per_shard[s].size(); ++d) {
            ASSERT_EQ(per_shard[s][d], sub.uniform_index(n))
                << "shard " << s << " draw " << d;
        }
    }
}

TEST(ShardedRound, ThreadCountDoesNotChangeDrawsOrCoverage) {
    const std::size_t n = 3 * kRoundBlock + 57;

    std::vector<std::vector<std::uint64_t>> single;
    {
        Rng rng(53);
        ShardedRoundDriver driver(n, 1);
        single.resize(driver.num_shards());
        driver.run_batched<1>(rng, 4,
                              [&](std::size_t shard, std::size_t,
                                  std::size_t count, const std::uint64_t* idx,
                                  auto& /*arena*/) {
            single[shard].assign(idx, idx + count);
        });
    }

    Rng rng(53);
    ShardedRoundDriver driver(n, /*threads=*/4);
    std::vector<std::vector<std::uint64_t>> pooled(driver.num_shards());
    std::vector<std::atomic<int>> visits(n);
    for (auto& v : visits) v.store(0);
    driver.run_batched<1>(rng, 4,
                          [&](std::size_t shard, std::size_t base,
                              std::size_t count, const std::uint64_t* idx,
                              auto& /*arena*/) {
        pooled[shard].assign(idx, idx + count);
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_LT(idx[i], n);
            visits[base + i].fetch_add(1);
        }
    });

    EXPECT_EQ(pooled, single);
    for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(visits[v].load(), 1) << v;
}

TEST(BufferedSampler, MatchesDirectUniformIndexSequence) {
    Rng scalar(54);
    Rng batched(54);
    BufferedSampler sampler(64);  // small buffer: exercise several refills
    for (int i = 0; i < 1000; ++i) {
        // Alternate ranges like 3-majority does (peer index, then tie-break).
        const std::uint64_t n = (i % 3 == 2) ? 3 : 1000003;
        ASSERT_EQ(sampler.uniform_index(batched, n), scalar.uniform_index(n))
            << "draw " << i;
    }
}

TEST(BufferedSampler, HeavyRejectionStaysEquivalent) {
    Rng scalar(55);
    Rng batched(55);
    BufferedSampler sampler(32);
    const std::uint64_t n = (1ULL << 63U) + 7;  // ~half of raws rejected
    for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(sampler.uniform_index(batched, n), scalar.uniform_index(n))
            << "draw " << i;
    }
}

TEST(OpinionDeltaAccumulator, MatchesFullReset) {
    const std::uint32_t k = 5;
    Rng rng(56);
    std::vector<Opinion> colors(513);
    for (auto& c : colors) {
        const auto draw = rng.uniform_index(k + 1);
        c = draw == k ? kUndecided : static_cast<Opinion>(draw);
    }
    OpinionCensus fused(colors.size(), k);
    fused.reset(colors);
    std::vector<std::int64_t> deltas(k, 0);
    std::int64_t undecided = 0;
    const OpinionDeltaAccumulator::View note(deltas.data(), &undecided);

    std::vector<Opinion> next = colors;
    for (std::size_t v = 0; v < next.size(); ++v) {
        const auto draw = rng.uniform_index(k + 1);
        const Opinion to = draw == k ? kUndecided : static_cast<Opinion>(draw);
        note.note(next[v], to);
        next[v] = to;
    }
    fused.apply_deltas(deltas, undecided);

    OpinionCensus reference(next.size(), k);
    reference.reset(next);
    for (Opinion j = 0; j < k; ++j) {
        EXPECT_EQ(fused.count(j), reference.count(j)) << "opinion " << j;
    }
    EXPECT_EQ(fused.undecided_count(), reference.undecided_count());

    // Applying cleared deltas is a no-op.
    std::fill(deltas.begin(), deltas.end(), 0);
    fused.apply_deltas(deltas, 0);
    for (Opinion j = 0; j < k; ++j) {
        EXPECT_EQ(fused.count(j), reference.count(j));
    }
}

TEST(PackedState, RoundTripsGenerationAndOpinion) {
    const PackedState w = pack_state(7, 3);
    EXPECT_EQ(packed_generation(w), 7U);
    EXPECT_EQ(packed_opinion(w), 3U);
    EXPECT_EQ(pack_state(0, 0), 0ULL);
    // Promotion by one generation is a single add on the packed word.
    EXPECT_EQ(w + (1ULL << 32U), pack_state(8, 3));
    EXPECT_EQ(packed_generation(pack_state(0xFFFFFFFFU, 0xFFFFFFFEU)),
              0xFFFFFFFFU);
    EXPECT_EQ(packed_opinion(pack_state(0xFFFFFFFFU, 0xFFFFFFFEU)),
              0xFFFFFFFEU);
}

/// Runs gather_decide<kDraws> over `count` nodes of random indices into
/// [0, size) and checks that decide(i, v) ran once per i, in ascending
/// order, with v[d] == expected(idx[kDraws * i + d]).
template <int kDraws, typename Gatherer, typename Expected>
void expect_gather_decide_visits(const Gatherer& gatherer, std::size_t size,
                                 Expected&& expected, Rng& rng) {
    for (const std::size_t count : {0UL, 1UL, 255UL, 256UL, 257UL, 4096UL}) {
        std::vector<std::uint64_t> idx(kDraws * count);
        for (auto& i : idx) i = rng.uniform_index(size);
        std::size_t next = 0;
        gather_decide<kDraws>(gatherer, idx.data(), count,
                              [&](std::size_t i,
                                  const typename Gatherer::Value* v) {
            ASSERT_EQ(i, next) << "count " << count;
            for (int d = 0; d < kDraws; ++d) {
                ASSERT_EQ(v[d], expected(idx[kDraws * i + d]))
                    << "count " << count << " node " << i << " draw " << d;
            }
            ++next;
        });
        EXPECT_EQ(next, count) << "kDraws " << kDraws;
    }
}

TEST(GatherDecide, VisitsEveryNodeInOrderWithItsSamples) {
    // Counts straddle the kGatherStrip boundary (255/256/257) and fill a
    // whole kRoundBlock, so every strip tail is checked directly.
    static_assert(kGatherStrip == 256 && kRoundBlock == 4096);
    Rng rng(59);
    const std::size_t n = 10007;

    std::vector<std::uint64_t> raw(n);
    rng.fill_u64(raw.data(), raw.size());
    const RawGather64 raw_gather{raw.data()};
    const auto raw_at = [&](std::uint64_t i) { return raw[i]; };
    expect_gather_decide_visits<1>(raw_gather, n, raw_at, rng);
    expect_gather_decide_visits<2>(raw_gather, n, raw_at, rng);

    // 4-bit lanes with ~1/4 undecided sentinels mixed in.
    PackedOpinionArray packed(n, 13);
    for (std::size_t i = 0; i < n; ++i) {
        packed.set(i, rng.uniform_index(4) == 0
                          ? kUndecided
                          : static_cast<Opinion>(rng.uniform_index(13)));
    }
    const PackedGather packed_gather(packed);
    const auto packed_at = [&](std::uint64_t i) { return packed.get(i); };
    expect_gather_decide_visits<1>(packed_gather, n, packed_at, rng);
    expect_gather_decide_visits<2>(packed_gather, n, packed_at, rng);
}

TEST(FusedCensus, MatchesRecountAfterManyAlgorithm1Rounds) {
    // The incremental (delta-applied) census must equal a from-scratch
    // recount of the per-node packed state after every round.
    const std::size_t n = 4096;
    const std::uint32_t k = 4;
    Rng workload_rng(57);
    const Assignment a = make_biased_plurality(n, k, 1.3, workload_rng);
    ScheduleParams params;
    params.n = n;
    params.k = k;
    params.alpha = 1.3;
    Algorithm1 alg(a, Schedule(params));
    Rng rng(58);
    for (int round = 0; round < 30; ++round) {
        alg.step(rng);
        std::vector<Generation> generations(n);
        std::vector<Opinion> opinions(n);
        for (NodeId v = 0; v < n; ++v) {
            generations[v] = alg.generation(v);
            opinions[v] = alg.color(v);
        }
        GenerationCensus reference(n, k);
        reference.rebuild(generations, opinions);
        ASSERT_EQ(alg.census().highest_populated(),
                  reference.highest_populated())
            << "round " << round;
        for (Generation g = 0; g <= reference.highest_populated(); ++g) {
            ASSERT_EQ(alg.census().generation_size(g),
                      reference.generation_size(g))
                << "round " << round << " generation " << g;
            for (Opinion j = 0; j < k; ++j) {
                ASSERT_EQ(alg.census().count(g, j), reference.count(g, j))
                    << "round " << round << " generation " << g << " opinion "
                    << j;
            }
        }
        for (Opinion j = 0; j < k; ++j) {
            ASSERT_EQ(alg.census().opinion_total(j),
                      reference.opinion_total(j));
        }
    }
}

}  // namespace
}  // namespace papc::sync
