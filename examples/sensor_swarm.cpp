/// \file sensor_swarm.cpp
/// Domain example: a swarm of battery-powered sensors must agree on the
/// dominant classification of an observed event (e.g. "which direction did
/// the target move"). Sensors wake up asynchronously (Poisson clocks),
/// radio-link setup takes a random, non-trivial time, and no central
/// coordinator exists — the decentralized multi-leader protocol (paper §4)
/// is the right fit. MultiLeaderSimulation always draws link latencies
/// from sim::ExponentialLatency: memoryless, the boundary case of the
/// paper's positive-aging (NBU) condition.
///
/// The measurement noise is modelled by a Zipf-distributed initial opinion
/// split: the true class is observed most often, confusable classes less so.

#include <iostream>

#include "cluster/simulation.hpp"
#include "opinion/assignment.hpp"
#include "runner/report.hpp"
#include "support/table.hpp"

int main() {
    using namespace papc;

    const std::size_t sensors = 8192;
    const std::uint32_t classes = 6;

    std::cout << "sensor_swarm: " << sensors << " sensors voting among "
              << classes << " event classes (decentralized, no coordinator)\n\n";

    // Noisy observations: Zipf(0.9) => the true class 0 leads class 1 by
    // roughly 1.9 : 1, with a tail of confusions.
    Rng workload_rng(0x5EA5);
    const Assignment observations = make_zipf(sensors, classes, 0.9, workload_rng);

    {
        Table table({"class", "observations", "share"});
        std::vector<std::size_t> counts(classes, 0);
        for (const Opinion op : observations.opinions) ++counts[op];
        for (std::uint32_t j = 0; j < classes; ++j) {
            table.row().add(j).add(counts[j]).add(
                static_cast<double>(counts[j]) / sensors, 3);
        }
        std::cout << "initial observation distribution:\n";
        table.print(std::cout);
    }

    cluster::ClusterConfig config;
    config.size_floor = 24;              // clusters of >= 24 sensors
    config.leader_probability = 1.0 / 96.0;
    config.alpha_hint = 1.8;             // known sensor confusion matrix gap
    config.max_time = 2500.0;

    // Phase 1: self-organize into clusters (Theorem 27).
    Rng clustering_rng(0x5EA6);
    cluster::ClusteringResult clustering =
        cluster::run_clustering(sensors, config, clustering_rng);
    std::cout << "\nclustering: " << clustering.num_active
              << " active clusters covering "
              << format_double(100.0 * clustering.fraction_clustered, 1)
              << "% of sensors, formed in "
              << format_double(clustering.elapsed, 1) << " time steps\n";

    // Phase 2: generation-based plurality consensus (Algorithms 4+5).
    cluster::MultiLeaderSimulation simulation(observations, std::move(clustering),
                                              config, 0x5EA7);
    const cluster::MultiLeaderResult result = simulation.run();

    std::cout << "consensus:  " << (result.converged ? "reached" : "NOT reached")
              << " on class " << result.winner
              << (result.plurality_won ? " (the true plurality)" : "") << "\n";
    std::cout << "98% of sensors agreed at   t = "
              << format_double(result.epsilon_time, 1) << "\n";
    std::cout << "all sensors agreed at      t = "
              << format_double(result.consensus_time, 1) << "\n";
    std::cout << "total including clustering t = "
              << format_double(result.total_time(), 1) << " time steps\n\n";
    std::cout << "support of the true class over the consensus phase:\n  "
              << runner::sparkline(result.plurality_fraction) << "\n";
    return result.converged && result.plurality_won ? 0 : 1;
}
