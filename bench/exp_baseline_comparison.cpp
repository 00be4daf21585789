/// \file exp_baseline_comparison.cpp
/// Experiment E6 — positioning against related work (§1.1).
///   (a) Synchronous: Algorithm 1 vs pull voting, two-choices, 3-majority
///       and undecided-state dynamics — rounds to consensus vs k. The
///       3-majority baseline pays Θ(k log n) [BCN+14]; Algorithm 1 pays
///       O(log k · log log_α k + log log n).
///   (b) Asynchronous: the single-leader protocol vs the 3-state [AAE08]
///       and 4-state [DV10/MNRS14] population protocols (k = 2, parallel
///       time vs additive gap).

#include <iostream>

#include "async/simulation.hpp"
#include "opinion/assignment.hpp"
#include "population/four_state.hpp"
#include "population/three_state.hpp"
#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "support/table.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"
#include "sync/engine.hpp"

namespace {

using namespace papc;

runner::TrialMetrics sync_trial(int which, std::size_t n, std::uint32_t k,
                                double alpha, std::uint64_t seed) {
    Rng rng(seed);
    const Assignment a = make_biased_plurality(n, k, alpha, rng);
    std::unique_ptr<sync::SyncDynamics> dyn;
    switch (which) {
        case 0: {
            sync::ScheduleParams sp;
            sp.n = n;
            sp.k = k;
            sp.alpha = alpha;
            dyn = std::make_unique<sync::Algorithm1>(a, sync::Schedule(sp));
            break;
        }
        case 1: dyn = std::make_unique<sync::PullVoting>(a); break;
        case 2: dyn = std::make_unique<sync::TwoChoices>(a); break;
        case 3: dyn = std::make_unique<sync::ThreeMajority>(a); break;
        default: dyn = std::make_unique<sync::UndecidedState>(a); break;
    }
    sync::RunOptions opts;
    opts.max_rounds = 30000;
    const sync::SyncResult r = run_to_consensus(*dyn, rng, opts);
    runner::TrialMetrics m;
    m["rounds"] = static_cast<double>(r.steps);
    m["success"] = (r.converged && r.winner == 0) ? 1.0 : 0.0;
    return m;
}

}  // namespace

int main() {
    using namespace papc;
    runner::print_banner(std::cout, "E6: protocol comparison vs baselines");

    {
        runner::print_heading(std::cout,
                              "(a) synchronous, rounds vs k [n = 2^16, "
                              "alpha = 2.0, 3 reps, mean rounds (success)]");
        const char* names[] = {"algorithm1", "pull-voting", "two-choices",
                               "3-majority", "undecided-state"};
        Table table({"k", names[0], names[1], names[2], names[3], names[4]});
        const std::size_t n = 1 << 16;
        std::uint64_t cell = 0;
        for (const std::uint32_t k : {2U, 4U, 8U, 16U, 32U, 64U}) {
            auto& row = table.row().add(k);
            for (int which = 0; which < 5; ++which) {
                const auto o = runner::run_experiment(
                    [&](std::uint64_t s) { return sync_trial(which, n, k, 2.0, s); },
                    3, derive_seed(0xE601, cell++), /*threads=*/4);
                row.add(format_double(o.mean("rounds"), 0) + " (" +
                        format_double(o.mean("success"), 2) + ")");
            }
        }
        table.print(std::cout);
        std::cout << "Expected: pull voting needs Θ(n)-ish time (hits the"
                     " cap or huge counts\nwith success ~ its initial share);"
                     " 3-majority grows linearly in k;\nAlgorithm 1 and"
                     " two-choices grow ~log k, with Algorithm 1 winning"
                     " reliably.\n";
    }

    {
        runner::print_heading(std::cout,
                              "(b) asynchronous, k = 2 [n = 4096, parallel "
                              "time, 3 reps]");
        Table table({"additive gap", "single-leader (time)",
                     "3-state AM (par. time)", "4-state exact (par. time)",
                     "SL ok", "AM ok", "EX ok"});
        const std::size_t n = 4096;
        std::uint64_t row_id = 0;
        for (const std::size_t gap : {std::size_t{64}, std::size_t{256},
                                      std::size_t{1024}}) {
            const auto o = runner::run_experiment(
                [&](std::uint64_t s) {
                    runner::TrialMetrics m;
                    const std::size_t a_count = (n + gap) / 2;
                    const std::size_t b_count = n - a_count;
                    // Single-leader async (multiplicative bias equivalent).
                    async::AsyncConfig c;
                    c.alpha_hint = static_cast<double>(a_count) / b_count;
                    c.max_time = 2500.0;
                    c.record_series = false;
                    Rng wrng(derive_seed(s, 1));
                    const Assignment assign = make_from_counts(
                        {a_count, b_count}, wrng);
                    async::SingleLeaderSimulation sim(assign, c, derive_seed(s, 2));
                    const async::AsyncResult sl = sim.run();
                    if (sl.converged) m["sl_time"] = sl.consensus_time;
                    m["sl_ok"] = (sl.converged && sl.winner == 0) ? 1.0 : 0.0;
                    // 3-state approximate majority.
                    population::ThreeStateMajority am(a_count, b_count);
                    Rng r1(derive_seed(s, 3));
                    const population::PopulationResult ra =
                        population::run_population(am, r1);
                    if (ra.converged) m["am_time"] = ra.end_time;
                    m["am_ok"] = (ra.converged && ra.winner == 0) ? 1.0 : 0.0;
                    // 4-state exact majority.
                    population::FourStateExactMajority ex(a_count, b_count);
                    Rng r2(derive_seed(s, 4));
                    population::PopulationRunOptions po;
                    po.max_interactions =
                        static_cast<std::uint64_t>(n) * n * 8ULL;
                    const population::PopulationResult re =
                        population::run_population(ex, r2, po);
                    if (re.converged) m["ex_time"] = re.end_time;
                    m["ex_ok"] = (re.converged && re.winner == 0) ? 1.0 : 0.0;
                    return m;
                },
                3, derive_seed(0xE602, row_id++), /*threads=*/4);
            table.row()
                .add(gap)
                .add(o.mean("sl_time"), 1)
                .add(o.mean("am_time"), 1)
                .add(o.mean("ex_time"), 1)
                .add(o.mean("sl_ok"), 2)
                .add(o.mean("am_ok"), 2)
                .add(o.mean("ex_ok"), 2);
        }
        table.print(std::cout);
        std::cout << "Expected: the 4-state exact protocol is always correct"
                     " but pays up to\nΘ(n) parallel time at small gaps; the"
                     " 3-state protocol is fast but needs\nω(√n log n) gap to"
                     " be reliable; the single-leader protocol is fast and\n"
                     "reliable once the multiplicative bias clears the"
                     " Theorem 13 threshold.\n";
    }
    return 0;
}
