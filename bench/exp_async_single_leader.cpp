/// \file exp_async_single_leader.cpp
/// Experiment E4 — Theorem 13: the asynchronous single-leader protocol
/// ε-converges in O(log log_α k · log k + log log n) time and fully
/// converges after O(log n) more. Sweeps of the registry's `async`
/// protocol:
///   (a) time vs n at fixed k, α, λ — ε-time nearly flat, full-consensus
///       tail growing slowly (log n term);
///   (b) time vs 1/λ at fixed n — both times scale linearly with the mean
///       channel latency (time is measured in time *steps*; one time unit
///       is C1 = F^{-1}(0.9) steps).
/// Each table is one api::Sweep, so every cell is exactly what api::run
/// runs and replays with `papc_cli --sweep`.

#include <iostream>

#include "api/sweep.hpp"
#include "runner/report.hpp"
#include "support/json_writer.hpp"
#include "support/table.hpp"

namespace {

using namespace papc;

/// k = 4, α = 1.8, 5 reps on 4 trial threads; the caller adds the axis.
api::Sweep async_sweep(std::uint64_t seed) {
    api::Sweep sweep;
    sweep.base.protocol = "async";
    sweep.base.k = 4;
    sweep.base.alpha = 1.8;
    sweep.base.max_time = 3000.0;
    sweep.base.record_series = false;
    sweep.reps = 5;
    sweep.base_seed = seed;
    sweep.threads = 4;
    return sweep;
}

}  // namespace

int main() {
    using namespace papc;
    runner::print_banner(std::cout,
                         "E4 (Theorem 13): async single-leader consensus time");

    {
        runner::print_heading(std::cout,
                              "(a) time vs n  [k = 4, alpha = 1.8, lambda = 1]");
        api::Sweep sweep = async_sweep(0xE401);
        sweep.axes = api::parse_sweep_spec("n=1024,4096,16384,65536,131072").axes;
        Table table({"n", "eps-time (mean)", "consensus (mean)",
                     "tail (consensus - eps)", "success"});
        for (const api::SweepCell& cell : api::run_sweep(sweep).cells) {
            const runner::ExperimentOutcome& o = cell.outcome;
            table.row()
                .add(cell.scenario.n)
                .add(o.mean("epsilon_time"), 1)
                .add(o.mean("consensus_time"), 1)
                .add(o.mean("consensus_time") - o.mean("epsilon_time"), 1)
                .add(o.mean("plurality_won"), 2);
        }
        table.print(std::cout);
        std::cout << "Expected: eps-time nearly flat in n; the tail grows"
                     " slowly (O(log n)).\n";
    }

    {
        runner::print_heading(std::cout,
                              "(b) time vs 1/lambda  [n = 2^14, k = 4, "
                              "alpha = 1.8]");
        api::Sweep sweep = async_sweep(0xE402);
        sweep.base.n = 1 << 14;
        const double inv_lambdas[] = {0.1, 1.0, 2.0, 5.0, 10.0};
        api::SweepAxis lambda{"lambda", {}};
        for (const double inv_lambda : inv_lambdas) {
            lambda.values.push_back(JsonWriter::format_double(1.0 / inv_lambda));
        }
        sweep.axes = {lambda};
        Table table({"1/lambda", "steps/unit C1", "eps-time (mean)",
                     "consensus (mean)", "eps-time / C1  (time units)",
                     "success"});
        const api::SweepResult result = api::run_sweep(sweep);
        for (std::size_t row = 0; row < result.cells.size(); ++row) {
            const runner::ExperimentOutcome& o = result.cells[row].outcome;
            const double c1 = o.mean("steps_per_unit");
            table.row()
                .add(inv_lambdas[row], 1)
                .add(c1, 2)
                .add(o.mean("epsilon_time"), 1)
                .add(o.mean("consensus_time"), 1)
                .add(o.mean("epsilon_time") / c1, 2)
                .add(o.mean("plurality_won"), 2);
        }
        table.print(std::cout);
        std::cout << "Expected: raw times scale with 1/lambda, but measured"
                     " in time units\n(eps-time / C1) the protocol takes a"
                     " latency-independent number of units.\n";
    }
    return 0;
}
