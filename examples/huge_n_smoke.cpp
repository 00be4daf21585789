/// \file huge_n_smoke.cpp
/// Huge-n memory smoke (ISSUE 7 acceptance): run two-choices at
/// n = 2^24, k = 128 for a few rounds and hold the process to a
/// documented RSS budget, then an Algorithm 1 phase at n = 2^22 with
/// k = 128 dense census rows (one per populated generation) and per-worker
/// delta arenas of rows x k.
///
/// The budget (asserted, non-zero exit on breach):
///
///   engine bytes/node (two-choices)  <= 4
///     k = 128 packs into 8-bit lanes: colors_ + next_colors_ are
///     2 x 16 MiB = 2 bytes/node; arenas, census, and sampler buffers
///     are O(k + threads), amortizing to noise. The pre-PR 7 unpacked
///     engine held 2 x 4-byte vectors = 8 bytes/node and fails this.
///
///   peak process RSS                 <= 160 MiB
///     Peak (not steady) includes the transient 64 MiB
///     Assignment::opinions vector materialized by the workload
///     generator before packing, plus the 32 MiB packed engine and
///     the later Algorithm 1 phase (2^22 x 2 x 8-byte state arrays +
///     16 MiB assignment = 80 MiB, under the phase-1 high water).
///     The unpacked engine peaked around 200 MiB on the same schedule.
///
///   $ ./huge_n_smoke
#include <sys/resource.h>

#include <cstddef>
#include <cstdint>
#include <iostream>

#include "opinion/assignment.hpp"
#include "support/cpu.hpp"
#include "support/random.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"

namespace {

double peak_rss_mib() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool check(bool ok, const char* what) {
    std::cout << (ok ? "  ok   " : "  FAIL ") << what << "\n";
    return ok;
}

}  // namespace

int main() {
    using namespace papc;

    constexpr std::size_t kHugeN = std::size_t{1} << 24U;
    constexpr std::uint32_t kK = 128;
    constexpr int kRounds = 3;
    constexpr double kPeakBudgetMib = 160.0;

    std::cout << "papc huge-n smoke: n = 2^24, k = " << kK << ", dispatch = "
              << support::simd_level_name(support::active_simd()) << "\n";

    bool ok = true;
    {
        Rng workload_rng(2024);
        const Assignment a = make_biased_plurality(kHugeN, kK, 1.5,
                                                   workload_rng);
        sync::TwoChoices dynamics(a, /*threads=*/2);
        Rng rng(2025);
        for (int round = 0; round < kRounds; ++round) dynamics.step(rng);

        const double bytes_per_node =
            static_cast<double>(dynamics.memory_bytes()) /
            static_cast<double>(kHugeN);
        std::cout << "two-choices engine: "
                  << dynamics.memory_bytes() / (1024 * 1024) << " MiB ("
                  << bytes_per_node << " bytes/node), peak RSS "
                  << peak_rss_mib() << " MiB\n";
        ok &= check(bytes_per_node <= 4.0, "engine bytes/node <= 4");
        std::uint64_t accounted = dynamics.undecided_count();
        for (Opinion j = 0; j < kK; ++j) accounted += dynamics.opinion_count(j);
        ok &= check(accounted == kHugeN,
                    "census still accounts for every node");
    }

    {
        // Algorithm 1 phase: k = 128 census rows and delta arenas.
        constexpr std::size_t kAlgN = std::size_t{1} << 22U;
        Rng workload_rng(2026);
        const Assignment a = make_biased_plurality(kAlgN, kK, 1.5,
                                                   workload_rng);
        sync::ScheduleParams sp;
        sp.n = kAlgN;
        sp.k = kK;
        sp.alpha = 1.5;
        sync::Algorithm1 alg(a, sync::Schedule(sp), /*threads=*/2);
        Rng rng(2027);
        for (int round = 0; round < 2 * kRounds; ++round) alg.step(rng);
        std::cout << "algorithm 1 engine: " << alg.memory_bytes() / (1024 * 1024)
                  << " MiB (" << alg.memory_bytes()
                  << " bytes) at n = 2^22, peak RSS " << peak_rss_mib()
                  << " MiB\n";
    }

    ok &= check(peak_rss_mib() <= kPeakBudgetMib, "peak RSS <= 160 MiB");
    std::cout << (ok ? "huge-n smoke passed\n" : "huge-n smoke FAILED\n");
    return ok ? 0 : 1;
}
