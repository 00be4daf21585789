/// \file simd_equivalence_test.cpp
/// The PR 7 SIMD contract: dispatch is a pure throughput knob. The AVX2
/// packed-lane gather fills byte-identical strip buffers to the scalar
/// loop, so forcing dispatch either way must leave every fixed-seed
/// trajectory bit-identical — pinned here with full-state FNV hashes over
/// all five sync protocols at threads {1, 2, 8} (Algorithm 1 has no SIMD
/// path, so its case pins that dispatch leaves it alone), plus direct
/// output comparison of the packed gather on adversarial index patterns.
/// On machines without AVX2 (or -DPAPC_DISABLE_SIMD builds) the
/// cross-path suites skip; the scalar-vs-scalar run still exercises the
/// override plumbing.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "opinion/assignment.hpp"
#include "opinion/packed_array.hpp"
#include "support/cpu.hpp"
#include "support/random.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"
#include "sync/simd_gather.hpp"

namespace papc::sync {
namespace {

using support::SimdLevel;

/// Forces a dispatch level for one scope; restores env/detection after.
class DispatchGuard {
public:
    explicit DispatchGuard(SimdLevel level) { support::set_simd_override(level); }
    ~DispatchGuard() { support::clear_simd_override(); }
    DispatchGuard(const DispatchGuard&) = delete;
    DispatchGuard& operator=(const DispatchGuard&) = delete;
};

bool avx2_available() {
    return support::detected_simd() >= SimdLevel::kAvx2;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xFFU;
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t state_hash(const ColorVectorDynamics& dynamics, std::size_t n) {
    std::uint64_t hash = kFnvOffset;
    for (NodeId v = 0; v < n; ++v) hash = fnv1a(hash, dynamics.color(v));
    return hash;
}

std::uint64_t state_hash(const Algorithm1& alg, std::size_t n) {
    std::uint64_t hash = kFnvOffset;
    for (NodeId v = 0; v < n; ++v) {
        hash = fnv1a(hash, (static_cast<std::uint64_t>(alg.generation(v)) << 32U) |
                               alg.color(v));
    }
    return hash;
}

// Spans three shards with a partial tail (shard boundaries, worker pool,
// gather-strip tails all exercised).
constexpr std::size_t kN = 2 * 4096 + 1234;
constexpr int kRounds = 12;

/// Runs `make(threads)` kRounds rounds under the given dispatch level for
/// threads {1, 2, 8} and returns the three final-state hashes.
template <typename MakeDynamics>
std::vector<std::uint64_t> hashes_under(SimdLevel level, MakeDynamics&& make,
                                        std::uint64_t seed) {
    const DispatchGuard guard(level);
    std::vector<std::uint64_t> hashes;
    for (const std::size_t threads : {1U, 2U, 8U}) {
        auto dynamics = make(threads);
        Rng rng(seed);
        for (int round = 0; round < kRounds; ++round) dynamics->step(rng);
        hashes.push_back(state_hash(*dynamics, kN));
    }
    return hashes;
}

template <typename MakeDynamics>
void expect_dispatch_equivalent(MakeDynamics&& make, std::uint64_t seed) {
    const std::vector<std::uint64_t> scalar =
        hashes_under(SimdLevel::kScalar, make, seed);
    ASSERT_EQ(scalar.size(), 3U);
    EXPECT_EQ(scalar[1], scalar[0]);
    EXPECT_EQ(scalar[2], scalar[0]);
    if (!avx2_available()) {
        GTEST_SKIP() << "AVX2 not available: scalar-only run verified";
    }
    const std::vector<std::uint64_t> avx2 =
        hashes_under(SimdLevel::kAvx2, make, seed);
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        EXPECT_EQ(avx2[i], scalar[i]) << "thread-count variant " << i;
    }
}

Assignment equivalence_assignment(std::uint32_t k) {
    Rng workload_rng(771);
    return make_biased_plurality(kN, k, 1.2, workload_rng);
}

TEST(SimdEquivalence, Algorithm1) {
    const Assignment a = equivalence_assignment(8);
    ScheduleParams params;
    params.n = kN;
    params.k = 8;
    params.alpha = 1.2;
    expect_dispatch_equivalent(
        [&](std::size_t threads) {
            return std::make_unique<Algorithm1>(a, Schedule(params), threads);
        },
        4041);
}

TEST(SimdEquivalence, PullVoting) {
    const Assignment a = equivalence_assignment(8);
    expect_dispatch_equivalent(
        [&](std::size_t threads) {
            return std::make_unique<PullVoting>(a, threads);
        },
        4042);
}

TEST(SimdEquivalence, TwoChoices) {
    const Assignment a = equivalence_assignment(8);
    expect_dispatch_equivalent(
        [&](std::size_t threads) {
            return std::make_unique<TwoChoices>(a, threads);
        },
        4043);
}

TEST(SimdEquivalence, ThreeMajority) {
    const Assignment a = equivalence_assignment(8);
    expect_dispatch_equivalent(
        [&](std::size_t threads) {
            return std::make_unique<ThreeMajority>(a, threads);
        },
        4044);
}

TEST(SimdEquivalence, UndecidedState) {
    const Assignment a = equivalence_assignment(3);
    expect_dispatch_equivalent(
        [&](std::size_t threads) {
            return std::make_unique<UndecidedState>(a, threads);
        },
        4045);
}

// ------------------------------------------------------ gather primitives

TEST(SimdEquivalence, GatherPackedMatchesScalarAtEveryLaneWidth) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 not available";
    Rng rng(4047);
    // One k per lane width {2, 4, 8, 16, 32 bits}.
    for (const std::uint32_t k : {3U, 13U, 200U, 40000U, 70000U}) {
        const std::size_t n = 8192 + 77;
        PackedOpinionArray array(n, k);
        for (std::size_t i = 0; i < n; ++i) {
            // ~1/8 undecided sentinels mixed in.
            const std::uint64_t draw = rng.uniform_index(8);
            array.set(i, draw == 0
                             ? kUndecided
                             : static_cast<Opinion>(rng.uniform_index(k)));
        }
        const std::size_t count = 2048 + 3;  // odd tail
        std::vector<std::uint64_t> idx(count);
        for (auto& i : idx) i = rng.uniform_index(n);
        std::vector<Opinion> scalar_out(count, 1);
        std::vector<Opinion> avx2_out(count, 2);
        {
            const DispatchGuard guard(SimdLevel::kScalar);
            simd::gather_packed(array.words(), idx.data(), count,
                                array.log2_lane_bits(), scalar_out.data());
        }
        {
            const DispatchGuard guard(SimdLevel::kAvx2);
            simd::gather_packed(array.words(), idx.data(), count,
                                array.log2_lane_bits(), avx2_out.data());
        }
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(avx2_out[i], scalar_out[i]) << "k " << k << " i " << i;
            ASSERT_EQ(scalar_out[i], array.get(idx[i]))
                << "k " << k << " i " << i;
        }
    }
}

TEST(SimdEquivalence, OverrideClampsToDetectionAndRestores) {
    // Requesting AVX2 on a scalar-only machine must clamp, never crash.
    {
        const DispatchGuard guard(SimdLevel::kAvx2);
        EXPECT_EQ(support::active_simd(),
                  avx2_available() ? SimdLevel::kAvx2 : SimdLevel::kScalar);
    }
    {
        const DispatchGuard guard(SimdLevel::kScalar);
        EXPECT_EQ(support::active_simd(), SimdLevel::kScalar);
    }
    // Guard destructors restore env + detection resolution.
    EXPECT_EQ(support::active_simd() <= support::detected_simd(), true);
}

}  // namespace
}  // namespace papc::sync
