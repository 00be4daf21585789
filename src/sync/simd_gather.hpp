#pragma once

/// \file simd_gather.hpp
/// The packed-lane gather of the sync round kernels: fill a contiguous
/// strip buffer with the decoded lanes of a PackedOpinionArray so the
/// decide loops read sequentially.
///
/// gather_packed has a scalar loop and an AVX2 path
/// (`_mm256_i64gather_epi64` — 4 random 64-bit word loads per
/// instruction, then variable shifts extract each lane) selected at
/// runtime through support::active_simd(). The two paths load the same
/// memory and produce byte-identical output buffers — SIMD dispatch can
/// never change a trajectory, only the rate (pinned by
/// tests/sync/simd_equivalence_test.cpp). The AVX2 body lives in
/// simd_gather.cpp behind __attribute__((target("avx2"))) so the rest of
/// the library still compiles for baseline x86-64 (and the
/// -DPAPC_DISABLE_SIMD build compiles it out entirely).
///
/// Algorithm 1's raw 8-byte state words have no SIMD path: RawGather64
/// (sync/round_kernel.hpp) gathers them with a plain loop, because a
/// `vpgatherqq` kernel measured no faster (README, "SIMD gather dispatch").

#include <cstddef>
#include <cstdint>

#include "opinion/types.hpp"

namespace papc::sync::simd {

/// Bit-packed lane gather: element i lives in
///   words[idx[i] >> index_shift], bits [(idx[i] & offset_mask) * w, +w)
/// with w = 1 << log2_lane_bits and lane_mask = (all-ones w-bit value).
/// A lane equal to lane_mask is the undecided sentinel and decodes to
/// kUndecided (for 32-bit lanes the sentinel already IS kUndecided, so
/// the decode is the identity there). This is PackedOpinionArray's
/// gather kernel — see opinion/packed_array.hpp for the layout contract.
void gather_packed(const std::uint64_t* words, const std::uint64_t* idx,
                   std::size_t count, unsigned log2_lane_bits, Opinion* out);

}  // namespace papc::sync::simd
