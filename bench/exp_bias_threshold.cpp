/// \file exp_bias_threshold.cpp
/// Experiment E8 — Theorem 1's bias requirement
/// α > 1 + (k·log n/√n)·log k. We sweep the initial bias through the
/// threshold and measure the plurality success probability; the paper
/// predicts a transition from coin-flip-like behaviour (α near 1) to
/// reliable plurality consensus (α above the threshold). The table is one
/// api::Sweep of the registry's `sync` protocol over `alpha`, so every
/// cell is exactly what api::run runs and replays with `papc_cli --sweep`
/// (the registry clamps the schedule's α hint at 1.01 for the unbiased
/// row).

#include <iostream>

#include "api/sweep.hpp"
#include "opinion/assignment.hpp"
#include "runner/report.hpp"
#include "support/json_writer.hpp"
#include "support/table.hpp"

int main() {
    using namespace papc;
    runner::print_banner(std::cout, "E8: success probability vs initial bias");

    const std::size_t n = 1 << 14;
    const std::uint32_t k = 8;
    const std::size_t reps = 20;
    const double threshold = theorem1_bias_threshold(n, k);

    std::cout << "n = 2^14, k = " << k << ", Theorem-1 threshold alpha* = "
              << format_double(threshold, 3) << ", " << reps
              << " repetitions per point\n\n";

    api::Sweep sweep;
    sweep.base.protocol = "sync";
    sweep.base.n = n;
    sweep.base.k = k;
    sweep.base.max_steps = 3000;
    sweep.base.record_series = false;
    sweep.reps = reps;
    sweep.base_seed = 0xE801;

    // Interpolate between no bias (α = 1) and multiples of the excess
    // α* − 1; the points inside (0, 0.25] sample the rise from coin-flip
    // to reliable, which happens well below α*.
    const double factors[] = {0.0,  0.02, 0.05, 0.1, 0.15, 0.25, 0.5,
                              0.75, 1.0,  1.5,  2.0, 4.0,  8.0};
    api::SweepAxis alpha{"alpha", {}};
    for (const double factor : factors) {
        alpha.values.push_back(
            JsonWriter::format_double(1.0 + (threshold - 1.0) * factor));
    }
    sweep.axes = {alpha};
    Table table({"alpha", "(alpha-1)/(alpha*-1)", "success",
                 "rounds (median)"});
    const api::SweepResult result = api::run_sweep(sweep);
    for (std::size_t row = 0; row < result.cells.size(); ++row) {
        const api::SweepCell& cell = result.cells[row];
        table.row()
            .add(cell.scenario.alpha, 4)
            .add(factors[row], 2)
            .add(cell.outcome.mean("plurality_won"), 2)
            .add(cell.outcome.median("steps"), 0);
    }
    table.print(std::cout);

    std::cout << "\nExpected shape: success ~1/k at alpha = 1 (any of the k"
                 " equal opinions\nmay win), rising to 1.00 within a small"
                 " fraction of the excess alpha* - 1\nand staying there:"
                 " Theorem 1's threshold is sufficient, not tight, at\nthis"
                 " n.\n";
    return 0;
}
