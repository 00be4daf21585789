/// \file exp_exchange_latency.cpp
/// Experiment E10 — the §5 model extension: message exchange over an
/// established channel also takes time, handled by leader-validated
/// commits ("updates are committed only if the state of the leader has not
/// been changed in the meantime"). We sweep the per-message latency from
/// negligible to dominating the channel-establishment latency and measure:
///   - consensus time (grows with the message latency, in raw steps),
///   - the abort rate of the two-phase commit (stays small: the leader's
///     state changes only O(G*) times per run),
///   - correctness (plurality still wins).
/// The zero-message-latency row is cross-checked against the plain
/// Algorithm 2+3 engine. The references and the table are api::Sweeps of
/// the registry's `sequential`, `async` and `validated` protocols (the
/// table over `msg-rate` = 1/m), so every cell is exactly what api::run
/// runs and replays with `papc_cli --sweep`.

#include <iostream>

#include "api/sweep.hpp"
#include "runner/report.hpp"
#include "support/json_writer.hpp"
#include "support/table.hpp"

int main() {
    using namespace papc;
    runner::print_banner(std::cout,
                         "E10 (Section 5): message-exchange latencies with "
                         "validated commits");

    const std::size_t n = 1 << 13;
    const std::uint32_t k = 4;
    const double alpha = 1.8;
    const std::size_t reps = 3;

    std::cout << "n = 2^13, k = " << k << ", alpha = " << alpha
              << ", channel latency Exp(1); message latency Exp(1/m)\n\n";

    const auto sweep_of = [&](const char* protocol, double max_time,
                              std::uint64_t seed) {
        api::Sweep sweep;
        sweep.base.protocol = protocol;
        sweep.base.n = n;
        sweep.base.k = k;
        sweep.base.alpha = alpha;
        sweep.base.max_time = max_time;
        sweep.base.record_series = false;
        sweep.reps = reps;
        sweep.base_seed = seed;
        sweep.threads = 4;
        return sweep;
    };

    {
        const runner::ExperimentOutcome o =
            api::run_sweep(sweep_of("async", 3000.0, 0xEA00)).cells[0].outcome;
        const runner::ExperimentOutcome seq =
            api::run_sweep(sweep_of("sequential", 3000.0, 0xEA0F)).cells[0].outcome;
        std::cout << "reference (no latencies at all, sequentialized model of"
                     " [EFK+17]):\n  consensus = "
                  << format_double(seq.mean("consensus_time"), 1)
                  << " steps, success = "
                  << format_double(seq.mean("plurality_won"), 2) << "\n";
        std::cout << "baseline (channel latencies, instant messages — "
                     "Algorithm 2+3):\n  consensus = "
                  << format_double(o.mean("consensus_time"), 1)
                  << " steps, success = "
                  << format_double(o.mean("plurality_won"), 2) << "\n\n";
    }

    api::Sweep sweep = sweep_of("validated", 6000.0, 0xEA01);
    const double mean_msgs[] = {0.01, 0.1, 0.5, 1.0, 2.0, 5.0};
    api::SweepAxis msg_rate{"msg-rate", {}};
    for (const double mean_msg : mean_msgs) {
        msg_rate.values.push_back(JsonWriter::format_double(1.0 / mean_msg));
    }
    sweep.axes = {msg_rate};
    Table table({"mean msg latency m", "C1 steps/unit", "consensus",
                 "commits", "aborts", "abort rate", "success"});
    const api::SweepResult result = api::run_sweep(sweep);
    for (std::size_t row = 0; row < result.cells.size(); ++row) {
        const runner::ExperimentOutcome& o = result.cells[row].outcome;
        table.row()
            .add(mean_msgs[row], 2)
            .add(o.mean("steps_per_unit"), 2)
            .add(o.mean("consensus_time"), 1)
            .add(o.mean("commits"), 0)
            .add(o.mean("aborts"), 0)
            .add(o.mean("abort_rate"), 4)
            .add(o.mean("plurality_won"), 2);
    }
    table.print(std::cout);

    std::cout << "\nExpected shape: consensus time scales with the *total*"
                 " per-cycle latency\n(tracked by C1), success stays 1.00,"
                 " and the abort rate stays small —\nvalidation only fails"
                 " in the short windows around the O(G*) leader\nstate"
                 " changes, confirming the paper's claim that the relaxation"
                 " is 'easy'\nin the single-leader case.\n";
    return 0;
}
