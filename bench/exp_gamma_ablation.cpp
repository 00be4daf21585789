/// \file exp_gamma_ablation.cpp
/// Experiment E7 — ablation of the generation-density threshold γ (§2.2):
/// "Empirical data show that the value 1/2 works well for reasonable input
/// sizes, while too high values increase the time, and too small values
/// decrease the stability." We sweep γ and report rounds and success rate.
/// Each table is one api::Sweep of the registry's `sync` protocol over
/// `gamma`, so every cell is exactly what api::run runs and replays with
/// `papc_cli --sweep`; the last two columns are the closed-form schedule.

#include <iostream>

#include "api/sweep.hpp"
#include "runner/report.hpp"
#include "support/table.hpp"
#include "sync/schedule.hpp"

int main() {
    using namespace papc;
    runner::print_banner(std::cout, "E7: gamma ablation (Section 2.2 remark)");

    auto sweep = [](std::size_t n, double alpha, std::uint64_t seed) {
        api::Sweep sweep;
        sweep.base.protocol = "sync";
        sweep.base.n = n;
        sweep.base.k = 8;
        sweep.base.alpha = alpha;
        sweep.base.max_steps = 3000;
        sweep.base.record_series = false;
        sweep.axes =
            api::parse_sweep_spec("gamma=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9").axes;
        sweep.reps = 10;
        sweep.base_seed = seed;
        Table table({"gamma", "rounds (mean)", "rounds (p90)", "success",
                     "G* two-choices steps", "schedule horizon"});
        for (const api::SweepCell& cell : api::run_sweep(sweep).cells) {
            const api::Scenario& s = cell.scenario;
            const runner::ExperimentOutcome& o = cell.outcome;
            sync::ScheduleParams params;
            params.n = s.n;
            params.k = s.k;
            params.alpha = s.alpha;
            params.gamma = s.gamma;
            const sync::Schedule schedule{params};
            table.row()
                .add(s.gamma, 1)
                .add(o.mean("steps"), 1)
                .add(o.metrics.at("steps").p90, 1)
                .add(o.mean("plurality_won"), 2)
                .add(schedule.total_generations())
                .add(schedule.horizon());
        }
        table.print(std::cout);
    };

    runner::print_heading(std::cout,
                          "(a) comfortable bias [n = 2^16, alpha = 1.3, 10 "
                          "reps] — the time effect");
    sweep(1 << 16, 1.3, 0xE701);
    std::cout << "Expected: U-shaped round counts with the minimum near"
                 " gamma = 0.4-0.5;\nlarge gamma stretches every life-cycle"
                 " X_i.\n";

    runner::print_heading(std::cout,
                          "(b) near-critical bias [n = 2^12, alpha = 1.18, 10 "
                          "reps] — the stability effect");
    sweep(1 << 12, 1.18, 0xE702);
    std::cout << "Expected (paper's remark): with the bias close to 1, small"
                 " gamma hands\ngenerations over while they are still tiny —"
                 " the sampled bias is noisy\nand the wrong opinion can take"
                 " over (success < 1.00).\nWith 10 reps a success rate has"
                 " a standard error of about 0.15, so this\ntable cannot"
                 " rank neighbouring gamma values.\n";
    return 0;
}
