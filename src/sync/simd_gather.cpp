#include "sync/simd_gather.hpp"

#include "support/cpu.hpp"

#if defined(__x86_64__) && !defined(PAPC_DISABLE_SIMD)
#define PAPC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace papc::sync::simd {
namespace {

// The AVX2 kernel below hard-codes the memory layout: 8-byte gather
// strides over std::uint64_t words, and a 16-byte _mm_storeu_si128 that
// writes four Opinion lanes at once. Pin those assumptions so a future
// Opinion retype fails here, at compile time, instead of corrupting the
// gather output.
static_assert(sizeof(std::uint64_t) == 8,
              "gather_packed assumes 8-byte index/word strides");
static_assert(sizeof(Opinion) == 4,
              "gather_packed compacts four 4-byte Opinion lanes per store");
static_assert(kUndecided == static_cast<Opinion>(0xFFFFFFFFU),
              "the all-ones sentinel lane must decode to kUndecided");

/// Scalar reference path. It is also the only path on non-x86-64 or
/// -DPAPC_DISABLE_SIMD builds; the AVX2 kernel must match it bit for bit
/// (both read the same memory, so equality is structural, but the
/// equivalence suite pins it anyway).

inline Opinion packed_lane_scalar(const std::uint64_t* words, std::uint64_t i,
                                  unsigned log2_lane_bits,
                                  unsigned index_shift,
                                  std::uint64_t offset_mask,
                                  std::uint64_t lane_mask) {
    const std::uint64_t word = words[i >> index_shift];
    const std::uint64_t lane =
        (word >> ((i & offset_mask) << log2_lane_bits)) & lane_mask;
    return lane == lane_mask ? kUndecided : static_cast<Opinion>(lane);
}

void gather_packed_scalar(const std::uint64_t* words, const std::uint64_t* idx,
                          std::size_t count, unsigned log2_lane_bits,
                          Opinion* out) {
    const unsigned index_shift = 6U - log2_lane_bits;
    const std::uint64_t offset_mask = (1ULL << index_shift) - 1;
    const std::uint64_t lane_mask =
        (log2_lane_bits == 5U) ? 0xFFFFFFFFULL
                               : (1ULL << (1U << log2_lane_bits)) - 1;
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = packed_lane_scalar(words, idx[i], log2_lane_bits, index_shift,
                                    offset_mask, lane_mask);
    }
}

#if defined(PAPC_SIMD_X86)

__attribute__((target("avx2"))) void gather_packed_avx2(
    const std::uint64_t* words, const std::uint64_t* idx, std::size_t count,
    unsigned log2_lane_bits, Opinion* out) {
    const unsigned index_shift = 6U - log2_lane_bits;
    const std::uint64_t offset_mask = (1ULL << index_shift) - 1;
    const std::uint64_t lane_mask =
        (log2_lane_bits == 5U) ? 0xFFFFFFFFULL
                               : (1ULL << (1U << log2_lane_bits)) - 1;
    const __m256i v_offset_mask = _mm256_set1_epi64x(
        static_cast<long long>(offset_mask));
    const __m256i v_lane_mask = _mm256_set1_epi64x(
        static_cast<long long>(lane_mask));
    // Compact the low u32 of each of the four u64 lanes into one xmm.
    const __m256i v_compact = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256i lanes_idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(idx + i));
        // One gather of the containing 64-bit words, then a variable
        // shift + mask extracts each node's lane.
        const __m256i word_idx = _mm256_srli_epi64(
            lanes_idx, static_cast<int>(index_shift));
        const __m256i gathered = _mm256_i64gather_epi64(
            reinterpret_cast<const long long*>(words), word_idx, 8);
        const __m256i bit_offset = _mm256_slli_epi64(
            _mm256_and_si256(lanes_idx, v_offset_mask),
            static_cast<int>(log2_lane_bits));
        __m256i lanes = _mm256_and_si256(
            _mm256_srlv_epi64(gathered, bit_offset), v_lane_mask);
        // Sentinel (all-ones lane) decodes to kUndecided: widen the
        // equality mask over the whole u64 so the compacted low u32
        // reads 0xFFFFFFFF.
        const __m256i sentinel = _mm256_cmpeq_epi64(lanes, v_lane_mask);
        lanes = _mm256_or_si256(lanes, sentinel);
        const __m128i packed = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(lanes, v_compact));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
    }
    for (; i < count; ++i) {
        out[i] = packed_lane_scalar(words, idx[i], log2_lane_bits, index_shift,
                                    offset_mask, lane_mask);
    }
}

#endif  // PAPC_SIMD_X86

}  // namespace

void gather_packed(const std::uint64_t* words, const std::uint64_t* idx,
                   std::size_t count, unsigned log2_lane_bits, Opinion* out) {
#if defined(PAPC_SIMD_X86)
    if (support::active_simd() == support::SimdLevel::kAvx2) {
        gather_packed_avx2(words, idx, count, log2_lane_bits, out);
        return;
    }
#endif
    gather_packed_scalar(words, idx, count, log2_lane_bits, out);
}

}  // namespace papc::sync::simd
