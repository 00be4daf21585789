#include "sim/event_engine.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace papc::sim {

EventEngine::EventEngine(const Assignment& assignment)
    : census_(assignment.size(), assignment.num_opinions) {
    PAPC_CHECK(assignment.size() >= 2);
    census_.reset(assignment.opinions);
    plurality_ = census_.pooled_stats().dominant;
}

EventEngine::~EventEngine() = default;

void EventEngine::attach_faults(const fault::FaultPlan& plan, std::size_t n,
                                double horizon, const Rng& rng) {
    if (!plan.active()) return;
    injector_ = std::make_unique<fault::Injector>(plan, n, horizon, rng);
    crash_on_ = injector_->crash_active();
}

void EventEngine::commit_window() {
    for (ShardMoves& shard : shard_moves_) {
        for (const CensusMove& move : shard.moves) {
            census_.transition(move.old_gen, move.old_col, move.new_gen,
                               move.new_col);
        }
        shard.moves.clear();
    }
}

void EventEngine::run_core(const EventConfig& config, core::Observer& observer,
                           EventRunResult& result) {
    core::EngineOptions options;
    options.max_time = config.max_time;
    options.sample_interval = config.sample_interval;
    options.record = config.record_series;
    options.plurality = plurality_;
    options.epsilon = config.epsilon;
    static_cast<core::RunResult&>(result) = core::run(*this, options, &observer);
}

void EventEngine::fold(std::uint64_t events, std::uint64_t windows,
                       std::uint64_t stragglers,
                       const fault::FaultCounters& message_faults,
                       EventRunResult& result) const {
    result.faults.lost = message_faults.lost;
    result.faults.duplicated = message_faults.duplicated;
    result.faults.corrupted = message_faults.corrupted;
    result.faults.delayed = message_faults.delayed;
    result.nodes_crashed = injector_ != nullptr ? injector_->nodes_crashed() : 0;
    result.events_processed = events;
    result.windows = windows;
    result.window_stragglers = stragglers;
    result.final_top_generation = census_.highest_populated();
}

void EventEngine::fold_shard(const ShardCounters& shard, EventRunResult& result) {
    result.ticks += shard.ticks;
    result.exchanges += shard.exchanges;
    result.two_choices_count += shard.two_choices;
    result.propagation_count += shard.propagation;
    result.faults.crash_skips += shard.crash_skips;
}

void EventEngine::fold_leader(const LeaderLoad& load, EventRunResult& result) {
    result.signals_delivered += load.signals;
    result.leader_peak_load =
        std::max(result.leader_peak_load, static_cast<double>(load.peak_load()));
}

}  // namespace papc::sim
