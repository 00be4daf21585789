/// \file exp_complexity.cpp
/// Experiment E11 — §4.5 "Complexity Parameters of the Decentralized
/// System". Reproduces the section's claims with measurements:
///   - memory: O(log n) bits per node (closed-form bit accounting);
///   - messages: O(log n)-bit addresses during clustering, O(log log log n)-
///     bit generation counters afterwards;
///   - congestion: the single leader absorbs Θ(n) signals per time step,
///     while each cluster leader's peak load stays polylog(n) — measured
///     head-to-head on the same workloads.

#include <cmath>
#include <iostream>

#include "analysis/theory.hpp"
#include "async/simulation.hpp"
#include "cluster/simulation.hpp"
#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "support/table.hpp"

int main() {
    using namespace papc;
    runner::print_banner(std::cout,
                         "E11 (Section 4.5): complexity parameters");

    const std::uint32_t k = 4;
    const double alpha = 2.0;

    {
        runner::print_heading(std::cout, "(a) closed-form bit accounting");
        Table table({"n", "node memory (bits)", "address (bits)",
                     "generation (bits)", "leader reply (bits)",
                     "promotion msg (bits)"});
        for (const std::size_t n :
             {std::size_t{1} << 10, std::size_t{1} << 14, std::size_t{1} << 18,
              std::size_t{1} << 22, std::size_t{1} << 26}) {
            const analysis::ComplexityProfile p =
                analysis::complexity_profile(n, k, alpha);
            table.row()
                .add(n)
                .add(p.node_memory_bits, 0)
                .add(p.address_bits, 0)
                .add(p.generation_bits, 0)
                .add(p.leader_message_bits, 0)
                .add(p.promotion_message_bits, 0);
        }
        table.print(std::cout);
        std::cout << "Expected: memory O(log n); messages dominated by the"
                     " O(log n)-bit\naddresses; generation counters are"
                     " O(log log log n) — they barely move\nacross 16x"
                     " population growth.\n";
    }

    {
        runner::print_heading(
            std::cout,
            "(b) measured leader congestion: single leader vs cluster leaders");
        Table table({"n", "single: peak signals/step", "single: /n",
                     "multi: peak signals/step at any leader",
                     "multi: signals total"});
        std::uint64_t row = 0;
        for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 13,
                                    std::size_t{1} << 14, std::size_t{1} << 15}) {
            const auto o = runner::run_experiment(
                [&](std::uint64_t s) {
                    runner::TrialMetrics m;
                    async::AsyncConfig ac;
                    ac.alpha_hint = alpha;
                    ac.max_time = 2000.0;
                    ac.record_series = false;
                    const async::AsyncResult sl =
                        async::run_single_leader(n, k, alpha, ac, s);
                    m["sl_peak"] = sl.leader_peak_load;

                    cluster::ClusterConfig cc;
                    cc.size_floor = 24;
                    cc.leader_probability = 1.0 / 96.0;
                    cc.alpha_hint = alpha;
                    cc.max_time = 2000.0;
                    cc.record_series = false;
                    const cluster::MultiLeaderResult ml =
                        cluster::run_multi_leader(n, k, alpha, cc, s);
                    m["ml_peak"] = ml.leader_peak_load;
                    m["ml_total"] = static_cast<double>(ml.signals_delivered);
                    return m;
                },
                3, derive_seed(0xEB01, row++), /*threads=*/4);
            table.row()
                .add(n)
                .add(o.mean("sl_peak"), 0)
                .add(o.mean("sl_peak") / static_cast<double>(n), 2)
                .add(o.mean("ml_peak"), 0)
                .add(o.mean("ml_total"), 0);
        }
        table.print(std::cout);
        std::cout << "Expected: the single leader's peak load grows linearly"
                     " with n\n(the '/n' column is constant ~1) — the"
                     " bottleneck §4 sets out to remove.\nEach cluster"
                     " leader's peak load stays flat (polylog cluster"
                     " sizes),\nindependent of n.\n";
    }
    return 0;
}
