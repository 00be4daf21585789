/// \file exp_multi_leader.cpp
/// Experiment E5 — Theorems 26, 27 and 28: the decentralized protocol.
///   (a) Clustering (Thm 27): time to form clusters, fraction of nodes in
///       active clusters, and the switch-broadcast gap t_l - t_f = O(1):
///       the time the §4.2 inter-leader broadcast (Thm 28) takes to inform
///       every leader after the first switch, vs n.
///   (b) Full protocol (Thm 26): consensus time and success rate, vs n.

#include <iostream>

#include "cluster/simulation.hpp"
#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "support/table.hpp"

namespace {

using namespace papc;

cluster::ClusterConfig base_config() {
    cluster::ClusterConfig c;
    c.size_floor = 24;
    c.leader_probability = 1.0 / 96.0;
    c.alpha_hint = 2.0;
    c.max_time = 2500.0;
    c.record_series = false;
    return c;
}

}  // namespace

int main() {
    using namespace papc;
    runner::print_banner(std::cout,
                         "E5 (Theorems 26-28): decentralized multi-leader");

    const std::vector<std::size_t> ns = {1 << 12, 1 << 13, 1 << 14, 1 << 15,
                                         1 << 16};

    {
        runner::print_heading(std::cout,
                              "(a) clustering phase and broadcast "
                              "(Theorems 27, 28)");
        Table table({"n", "leaders", "active", "frac clustered",
                     "t_first_switch", "t_l - t_f", "elapsed"});
        std::uint64_t row = 0;
        for (const std::size_t n : ns) {
            const auto o = runner::run_experiment(
                [&](std::uint64_t s) {
                    Rng rng(s);
                    const cluster::ClusteringResult r =
                        run_clustering(n, base_config(), rng);
                    runner::TrialMetrics m;
                    m["leaders"] = static_cast<double>(r.num_leaders);
                    m["active"] = static_cast<double>(r.num_active);
                    m["frac"] = r.fraction_clustered;
                    if (r.completed) {
                        m["switch"] = r.first_switch_time;
                        m["gap"] = r.all_informed_time - r.first_switch_time;
                        m["elapsed"] = r.elapsed;
                    }
                    return m;
                },
                5, derive_seed(0xE501, row++), /*threads=*/4);
            table.row()
                .add(n)
                .add(o.mean("leaders"), 0)
                .add(o.mean("active"), 0)
                .add(o.mean("frac"), 3)
                .add(o.mean("switch"), 1)
                .add(o.mean("gap"), 1)
                .add(o.mean("elapsed"), 1);
        }
        table.print(std::cout);
        std::cout << "Expected: fraction clustered stays high; the broadcast"
                     " gap t_l - t_f\nstays O(1) (Theorem 28: no growth with"
                     " n).\n";
    }

    {
        runner::print_heading(std::cout,
                              "(b) full decentralized consensus (Theorem 26) "
                              "[k = 4, alpha = 2.0]");
        Table table({"n", "eps-time", "consensus", "clustering", "total",
                     "success"});
        std::uint64_t row = 0;
        for (const std::size_t n : ns) {
            const auto o = runner::run_experiment(
                [&](std::uint64_t s) {
                    const cluster::MultiLeaderResult r =
                        cluster::run_multi_leader(n, 4, 2.0, base_config(), s);
                    // Unified metrics from the shared RunResult base, plus
                    // the clustering-phase extras.
                    runner::TrialMetrics m = runner::metrics_from(r);
                    m["success"] = r.plurality_won ? 1.0 : 0.0;
                    m["cluster"] = r.clustering_time;
                    m["total"] = r.total_time();
                    return m;
                },
                5, derive_seed(0xE503, row++), /*threads=*/4);
            table.row()
                .add(n)
                .add(o.mean("epsilon_time"), 1)
                .add(o.mean("consensus_time"), 1)
                .add(o.mean("cluster"), 1)
                .add(o.mean("total"), 1)
                .add(o.mean("success"), 2);
        }
        table.print(std::cout);
        std::cout << "Expected: same near-flat eps-time shape as the single-"
                     "leader protocol\n(Theorem 26 mirrors Theorem 13), plus"
                     " the O(log log n) clustering phase.\n";
    }
    return 0;
}
