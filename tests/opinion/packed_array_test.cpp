/// \file packed_array_test.cpp
/// PackedOpinionArray unit contract (PR 7): lane-width selection per k,
/// set/get round-trips including the undecided sentinel at every width,
/// the sequential Writer against per-lane set(), and shard-boundary word
/// ownership (kRoundBlock-aligned ranges never share a word).

#include "opinion/packed_array.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/random.hpp"

namespace papc {
namespace {

TEST(PackedOpinionArray, LaneWidthPerOpinionCount) {
    // All-ones lane is the sentinel, so k == 2^w needs the next width up.
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(2), 2U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(3), 2U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(4), 4U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(5), 4U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(15), 4U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(16), 8U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(17), 8U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(255), 8U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(256), 16U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(300), 16U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(65535), 16U);
    EXPECT_EQ(PackedOpinionArray::lane_bits_for(65536), 32U);
}

TEST(PackedOpinionArray, RoundTripsEveryWidthIncludingUndecided) {
    Rng rng(901);
    for (const std::uint32_t k : {2U, 3U, 15U, 200U, 40000U, 70000U}) {
        const std::size_t n = 1000 + k % 97;  // not word-aligned sizes
        PackedOpinionArray array(n, k);
        std::vector<Opinion> reference(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(array.get(i), 0U) << "fresh arrays start at opinion 0";
        }
        // Random writes (with overwrites) mirrored into a plain vector.
        for (int write = 0; write < 5000; ++write) {
            const std::size_t i = rng.uniform_index(n);
            const std::uint64_t draw = rng.uniform_index(k + 1);
            const Opinion op =
                draw == k ? kUndecided : static_cast<Opinion>(draw);
            array.set(i, op);
            reference[i] = op;
        }
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(array.get(i), reference[i]) << "k " << k << " i " << i;
        }
    }
}

TEST(PackedOpinionArray, VectorConstructorPacksVerbatim) {
    Rng rng(902);
    const std::uint32_t k = 15;
    std::vector<Opinion> source(777);
    for (auto& op : source) {
        const std::uint64_t draw = rng.uniform_index(k + 1);
        op = draw == k ? kUndecided : static_cast<Opinion>(draw);
    }
    const PackedOpinionArray array(source, k);
    ASSERT_EQ(array.size(), source.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
        ASSERT_EQ(array.get(i), source[i]) << i;
    }
    // 4-bit lanes for k = 15: 16 lanes per word.
    EXPECT_EQ(array.lane_bits(), 4U);
    EXPECT_EQ(array.memory_bytes(), ((777 + 15) / 16) * 8U);
}

TEST(PackedOpinionArray, WriterMatchesPerLaneSet) {
    Rng rng(903);
    for (const std::uint32_t k : {3U, 13U, 250U}) {
        const std::size_t n = 3 * 4096 + 321;  // partial tail block
        std::vector<Opinion> values(n);
        for (auto& op : values) {
            const std::uint64_t draw = rng.uniform_index(k + 1);
            op = draw == k ? kUndecided : static_cast<Opinion>(draw);
        }
        PackedOpinionArray via_set(n, k);
        for (std::size_t i = 0; i < n; ++i) via_set.set(i, values[i]);

        // Shard-shaped writer ranges: word-aligned bases, tail at the end.
        PackedOpinionArray via_writer(n, k);
        for (std::size_t base = 0; base < n; base += 4096) {
            const std::size_t count = std::min<std::size_t>(4096, n - base);
            PackedOpinionArray::Writer writer(via_writer, base);
            for (std::size_t i = 0; i < count; ++i) {
                writer.push(values[base + i]);
            }
            writer.finish();
        }
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(via_writer.get(i), via_set.get(i)) << "k " << k << " " << i;
        }
    }
}

TEST(PackedOpinionArray, ShardRangesNeverShareWords) {
    // The parallel-write contract: a kRoundBlock (4096) shard boundary
    // must fall on a word boundary at every lane width, so concurrent
    // shard Writers touch disjoint words.
    for (const unsigned lane_bits : {2U, 4U, 8U, 16U, 32U}) {
        const unsigned lanes_per_word = 64U / lane_bits;
        EXPECT_EQ(4096U % lanes_per_word, 0U) << lane_bits << "-bit lanes";
    }
    // And an interior writer flushes exactly at its range end: filling
    // shard 1 of a 2-shard array touches no shard-0 word.
    const std::uint32_t k = 3;  // 2-bit lanes, 32 per word: hardest case
    const std::size_t n = 2 * 4096;
    PackedOpinionArray array(n, k);
    for (std::size_t i = 0; i < 4096; ++i) array.set(i, 2);
    PackedOpinionArray::Writer writer(array, 4096);
    for (std::size_t i = 0; i < 4096; ++i) writer.push(1);
    writer.finish();
    for (std::size_t i = 0; i < 4096; ++i) {
        ASSERT_EQ(array.get(i), 2U) << i;  // shard 0 untouched
        ASSERT_EQ(array.get(4096 + i), 1U) << i;
    }
}

TEST(PackedOpinionArray, SwapExchangesStorage) {
    PackedOpinionArray a(100, 3);
    PackedOpinionArray b(50, 3);
    a.set(7, 2);
    b.set(7, 1);
    a.swap(b);
    EXPECT_EQ(a.size(), 50U);
    EXPECT_EQ(b.size(), 100U);
    EXPECT_EQ(a.get(7), 1U);
    EXPECT_EQ(b.get(7), 2U);
}

}  // namespace
}  // namespace papc
