#include "async/single_leader_core.hpp"

#include <cmath>

#include "analysis/theory.hpp"
#include "core/observer.hpp"
#include "support/check.hpp"

namespace papc::async {

SingleLeaderCore::SingleLeaderCore(const Assignment& assignment,
                                   const AsyncConfig& config, std::uint64_t seed)
    : EventEngine(assignment), config_(config), rng_(seed) {
    const std::size_t n = assignment.size();
    nodes_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        nodes_[v].col = assignment.opinions[v];
        nodes_[v].gen = 0;
        nodes_[v].locked = false;
        nodes_[v].seen_gen = 1;     // leader's initial public state
        nodes_[v].seen_prop = false;
    }
}

SingleLeaderCore::~SingleLeaderCore() = default;

void SingleLeaderCore::open_leader(double steps_per_unit) {
    PAPC_CHECK(!started_);
    started_ = true;
    // Leader thresholds: C3·n 0-signals span `two_choices_units` time units
    // (Proposition 16); the generation-size gate is ⌈fraction·n⌉.
    const auto n = static_cast<double>(nodes_.size());
    result_.steps_per_unit = steps_per_unit;
    LeaderConfig leader_config;
    leader_config.zero_signal_threshold = static_cast<std::uint64_t>(
        std::ceil(config_.two_choices_units * steps_per_unit * n));
    leader_config.generation_size_threshold = static_cast<std::uint64_t>(
        std::ceil(config_.generation_size_fraction * n));
    leader_config.max_generation = analysis::total_generations(
        std::max(config_.alpha_hint, 1.0 + 1e-9), census_.num_opinions(),
        nodes_.size(), config_.generation_slack);
    leader_ = std::make_unique<Leader>(leader_config);
}

void SingleLeaderCore::begin_window() {
    nodes_snap_ = nodes_;
    snap_leader_gen_ = leader_->gen();
    snap_leader_prop_ = leader_->prop();
}

void SingleLeaderCore::drive() {
    result_.leader_generation = TimeSeries("leader-generation");
    core::FunctionObserver observer([this](double time, double) {
        if (config_.record_series) {
            result_.leader_generation.record(
                time, static_cast<double>(leader_->gen()));
        }
    });
    run_core(config_, observer, result_);
}

AsyncResult SingleLeaderCore::finish() {
    for (const ShardScratch& scratch : scratch_) {
        result_.ticks += scratch.ticks;
        result_.good_ticks += scratch.good_ticks;
        result_.exchanges += scratch.exchanges;
        result_.two_choices_count += scratch.two_choices;
        result_.propagation_count += scratch.propagation;
        result_.refresh_count += scratch.refresh;
        result_.channels_opened += scratch.channels_opened;
        result_.faults.crash_skips += scratch.crash_skips;
    }
    result_.signals_delivered = load_.signals;
    result_.leader_peak_load = static_cast<double>(std::max(load_.peak, load_.count));
    result_.leader_trace = leader_->trace();
    return std::move(result_);
}

}  // namespace papc::async
