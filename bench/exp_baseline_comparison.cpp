/// \file exp_baseline_comparison.cpp
/// Experiment E6 — positioning against related work (§1.1).
///   (a) Synchronous: Algorithm 1 vs pull voting, two-choices, 3-majority
///       and undecided-state dynamics — rounds to consensus vs k. The
///       3-majority baseline pays Θ(k log n) [BCN+14]; Algorithm 1 pays
///       O(log k · log log_α k + log log n).
///   (b) Asynchronous: the single-leader protocol vs the 3-state [AAE08]
///       and 4-state [DV10/MNRS14] population protocols (k = 2, parallel
///       time vs additive gap).
/// Table (a) is two api::Sweeps over k: pull voting under a 3000-round
/// cap, and the registry's other four sync protocols under 30000. In
/// table (b) the single-leader's bias hint α = a/b follows the gap, so
/// each row is one api::Sweep over the three protocols on the `gap`
/// workload, with base seed derive_seed(0xE602, row). Every cell is
/// exactly what api::run runs and replays with `papc_cli --sweep`.

#include <iostream>
#include <string>
#include <vector>

#include "api/sweep.hpp"
#include "runner/report.hpp"
#include "support/random.hpp"
#include "support/table.hpp"

int main() {
    using namespace papc;
    runner::print_banner(std::cout, "E6: protocol comparison vs baselines");

    {
        runner::print_heading(std::cout,
                              "(a) synchronous, rounds vs k [n = 2^16, "
                              "alpha = 2.0, 3 reps, mean rounds (success)]");
        // Pull voting needs Θ(n) rounds at this n, so it runs as its own
        // sweep under a 3000-round cap; the other four get 30000.
        const auto run = [](const std::string& protocols,
                            std::uint64_t max_steps, std::uint64_t seed) {
            api::Sweep sweep;
            sweep.base.n = 1 << 16;
            sweep.base.alpha = 2.0;
            sweep.base.max_steps = max_steps;
            sweep.base.record_series = false;
            sweep.axes =
                api::parse_sweep_spec("k=2,4,8,16,32,64;protocol=" + protocols)
                    .axes;
            sweep.reps = 3;
            sweep.base_seed = seed;
            sweep.threads = 4;
            return api::run_sweep(sweep).cells;
        };
        const std::vector<api::SweepCell> pull = run("pull", 3000, 0xE603);
        const std::vector<api::SweepCell> others =
            run("sync,two-choices,3-majority,undecided", 30000, 0xE601);
        const auto cell_text = [](const api::SweepCell& cell) {
            return format_double(cell.outcome.mean("steps"), 0) + " (" +
                   format_double(cell.outcome.mean("plurality_won"), 2) + ")";
        };
        Table table({"k", "algorithm1", "pull-voting (cap 3000)", "two-choices",
                     "3-majority", "undecided-state"});
        for (std::size_t row = 0; row < pull.size(); ++row) {
            table.row().add(pull[row].scenario.k);
            table.add(cell_text(others[4 * row]));
            table.add(cell_text(pull[row]));
            for (std::size_t col = 1; col < 4; ++col) {
                table.add(cell_text(others[4 * row + col]));
            }
        }
        table.print(std::cout);
        std::cout << "Expected: pull voting needs Θ(n)-ish time (hits its"
                     " 3000-round cap\nwith success ~ its initial share);"
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
        const std::size_t gaps[] = {64, 256, 1024};
        for (std::uint64_t row = 0; row < 3; ++row) {
            const std::size_t a_count = (n + gaps[row]) / 2;
            api::Sweep sweep;
            sweep.base.n = n;
            sweep.base.k = 2;
            sweep.base.workload = api::Workload::kAdditiveGap;
            sweep.base.gap = gaps[row];
            // Single-leader bias hint: the multiplicative bias a/b.
            sweep.base.alpha = static_cast<double>(a_count) / (n - a_count);
            sweep.base.max_time = 2500.0;
            // The 4-state protocol's cap of 8n² interactions, shared by pp-3-state.
            sweep.base.max_steps = static_cast<std::uint64_t>(n) * n * 8ULL;
            sweep.base.record_series = false;
            sweep.axes =
                api::parse_sweep_spec("protocol=async,pp-3-state,pp-4-state").axes;
            sweep.reps = 3;
            sweep.base_seed = derive_seed(0xE602, row);
            sweep.threads = 4;
            const api::SweepResult result = api::run_sweep(sweep);
            table.row().add(gaps[row]);
            for (const api::SweepCell& cell : result.cells) {
                table.add(cell.outcome.mean("consensus_time"), 1);
            }
            for (const api::SweepCell& cell : result.cells) {
                table.add(cell.outcome.mean("plurality_won"), 2);
            }
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
