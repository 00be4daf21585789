#pragma once

/// \file packed_array.hpp
/// PackedOpinionArray: per-node opinion storage at ⌈log2(k+1)⌉ bits per
/// node, rounded up to a power-of-two lane width w ∈ {2, 4, 8, 16, 32}
/// so lanes never straddle word boundaries (PR 7).
///
/// The "millions of users" sync regime is memory-bound: at n = 2^22 the
/// per-round gather working set of a 4-byte color vector (16 MiB) falls
/// out of L2/L3 and every random sample pays DRAM latency. Packing k ≤ 15
/// opinions into 4-bit lanes shrinks that set 8x (2 MiB — cache
/// resident); even k ≤ 255 fits 8-bit lanes for a 4x cut. The all-ones
/// lane value is reserved as the undecided sentinel at every width (for
/// w = 32 the sentinel IS kUndecided, so the degenerate width is exactly
/// the old unpacked layout and one code path serves every k).
///
/// Sharding contract (round_kernel.hpp): writers only touch whole words
/// they own. kRoundBlock (4096) is a multiple of the lanes-per-word of
/// every width, so a ShardedRoundDriver shard's [base, base + count)
/// range is always word-aligned at its base and no two shards ever share
/// a word — parallel round writes need no atomics, same as the unpacked
/// layout (static-asserted below, exercised by the packed_array tests
/// and the TSan CI job).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "opinion/types.hpp"
#include "support/check.hpp"

namespace papc {

class PackedOpinionArray {
public:
    /// Lane width (bits) used for `num_opinions` colors: the smallest
    /// power-of-two w with num_opinions < 2^w, reserving the all-ones
    /// lane for the undecided sentinel. k <= 3 -> 2, k <= 15 -> 4,
    /// k <= 255 -> 8, k <= 65535 -> 16, else 32.
    [[nodiscard]] static unsigned lane_bits_for(std::uint32_t num_opinions) {
        for (const unsigned w : {2U, 4U, 8U, 16U}) {
            if (num_opinions < (1ULL << w)) return w;
        }
        return 32U;
    }

    PackedOpinionArray() = default;

    /// n lanes wide enough for `num_opinions`, all initialized to opinion 0.
    PackedOpinionArray(std::size_t n, std::uint32_t num_opinions)
        : n_(n), log2_lane_bits_(log2_of(lane_bits_for(num_opinions))) {
        const std::size_t lanes_per_word = 64U >> log2_lane_bits_;
        words_.assign((n + lanes_per_word - 1) / lanes_per_word, 0);
    }

    /// Packs an existing opinion vector (entries may be kUndecided).
    PackedOpinionArray(const std::vector<Opinion>& opinions,
                       std::uint32_t num_opinions)
        : PackedOpinionArray(opinions.size(), num_opinions) {
        for (std::size_t i = 0; i < opinions.size(); ++i) set(i, opinions[i]);
    }

    [[nodiscard]] std::size_t size() const { return n_; }
    [[nodiscard]] unsigned lane_bits() const { return 1U << log2_lane_bits_; }
    [[nodiscard]] unsigned log2_lane_bits() const { return log2_lane_bits_; }
    [[nodiscard]] std::uint64_t lane_mask() const {
        return (lane_bits() == 64U) ? ~0ULL : (1ULL << lane_bits()) - 1;
    }
    [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }
    [[nodiscard]] std::size_t memory_bytes() const {
        return words_.capacity() * sizeof(std::uint64_t);
    }

    [[nodiscard]] Opinion get(std::size_t i) const {
        const std::uint64_t lane =
            (words_[i >> index_shift()] >>
             ((i & offset_mask()) << log2_lane_bits_)) &
            lane_mask();
        return lane == lane_mask() ? kUndecided : static_cast<Opinion>(lane);
    }

    void set(std::size_t i, Opinion op) {
        const unsigned shift =
            static_cast<unsigned>((i & offset_mask()) << log2_lane_bits_);
        std::uint64_t& word = words_[i >> index_shift()];
        word = (word & ~(lane_mask() << shift)) | (encode(op) << shift);
    }

    /// Sequential decode of lanes [start, start + count) into `out` — one
    /// word load per lanes-per-word nodes instead of a shifted load, a
    /// variable shift, and a sentinel compare per get(). The batched
    /// round kernels read their own shard's colors through this into
    /// arena scratch: at 8-bit lanes it replaces eight dependent-shift
    /// get() calls with one load plus register shifts. `start` must be
    /// word-aligned (shard bases are; see the Writer contract).
    void decode_range(std::size_t start, std::size_t count, Opinion* out) const {
        PAPC_CHECK((start & offset_mask()) == 0);
        const std::uint64_t mask = lane_mask();
        const unsigned bits = lane_bits();
        const std::size_t lanes_per_word = 64U >> log2_lane_bits_;
        const std::uint64_t* word = words_.data() + (start >> index_shift());
        std::size_t i = 0;
        while (i < count) {
            std::uint64_t w = *word++;
            const std::size_t end =
                count < i + lanes_per_word ? count : i + lanes_per_word;
            for (; i < end; ++i) {
                const std::uint64_t lane = w & mask;
                // bits <= 32, so the u64 shift never hits UB even at the
                // degenerate one-lane-per-word width.
                w >>= bits;
                out[i] = lane == mask ? kUndecided : static_cast<Opinion>(lane);
            }
        }
    }

    /// Read prefetch hint for lane i's containing word.
    void prefetch(std::uint64_t i) const {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(words_.data() + (i >> index_shift()), 0, 2);
#else
        (void)i;
#endif
    }

    /// Sequential lane writer: accumulates lanes in a register and stores
    /// one word per lanes-per-word pushes instead of read-modify-writing
    /// every lane — the round kernels' next-state write path. `start`
    /// must be word-aligned (shard bases are: kRoundBlock is a multiple
    /// of every lanes-per-word). A final partial word is plain-stored,
    /// which is only safe when the writer's range ends at the array's end
    /// (the last shard) — interior ranges always end word-aligned.
    class Writer {
    public:
        Writer(PackedOpinionArray& array, std::size_t start)
            : array_(array), word_(array.words_.data() + (start >> array.index_shift())) {
            PAPC_CHECK((start & array.offset_mask()) == 0);
        }

        void push(Opinion op) {
            acc_ |= array_.encode(op) << shift_;
            shift_ += array_.lane_bits();
            if (shift_ == 64U) {
                *word_++ = acc_;
                acc_ = 0;
                shift_ = 0;
            }
        }

        /// Flushes a trailing partial word (dead lanes zeroed).
        void finish() {
            if (shift_ != 0) {
                *word_ = acc_;
                acc_ = 0;
                shift_ = 0;
            }
        }

    private:
        PackedOpinionArray& array_;
        std::uint64_t* word_;
        std::uint64_t acc_ = 0;
        unsigned shift_ = 0;
    };

    void swap(PackedOpinionArray& other) {
        words_.swap(other.words_);
        std::swap(n_, other.n_);
        std::swap(log2_lane_bits_, other.log2_lane_bits_);
    }

private:
    friend class Writer;

    [[nodiscard]] unsigned index_shift() const { return 6U - log2_lane_bits_; }
    [[nodiscard]] std::uint64_t offset_mask() const {
        return (1ULL << index_shift()) - 1;
    }
    [[nodiscard]] std::uint64_t encode(Opinion op) const {
        return op == kUndecided ? lane_mask() : op;
    }

    [[nodiscard]] static unsigned log2_of(unsigned w) {
        unsigned log2 = 0;
        while ((1U << log2) < w) ++log2;
        return log2;
    }

    std::vector<std::uint64_t> words_;
    std::size_t n_ = 0;
    unsigned log2_lane_bits_ = 5;  ///< default 32-bit lanes
};

}  // namespace papc
