#pragma once

/// \file single_leader_core.hpp
/// What the three single-leader engines (Algorithms 2 + 3, §3) share: the
/// latency model (simulation.hpp), the sequentialized pure-Poisson-clock
/// reference (sequential_simulation.hpp) and the §5 validated-commit
/// extension (validated_simulation.hpp). SingleLeaderCore adds the
/// single-leader protocol state to sim::EventEngine (sim/event_engine.hpp,
/// which holds the census, the injector, the shard census moves and the
/// porting notes every windowed engine follows): nodes and their window
/// snapshot, the leader, C1 and the leader-signal load accounting. An
/// engine adds its event type, its advance() handler and its C1
/// measurement, and its run() is:
///
///   start(measure_c1);             // fault plan + injector, C1, leader
///   executor = make_executor<E>(); // (windowed engines) + initial ticks
///   drive();                       // core::run with the config budgets
///   fold(*executor, result_);      // executor counters
///   return finish();               // shard counters, trace, leader load
///
/// The hot-path helpers (deliver_*_signal) are inline and non-virtual, so
/// handlers pay no call overhead for them.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "async/config.hpp"
#include "async/leader.hpp"
#include "async/node.hpp"
#include "opinion/assignment.hpp"
#include "sim/event_engine.hpp"
#include "support/random.hpp"
#include "support/timeseries.hpp"

namespace papc::async {

/// Aggregate outcome of one single-leader run: the counters shared with the
/// multi-leader engine (sim::EventRunResult) plus single-leader accounting.
struct AsyncResult : sim::EventRunResult {
    std::uint64_t good_ticks = 0;       ///< ticks that started an exchange
    std::uint64_t refresh_count = 0;    ///< leader-state refreshes
    double steps_per_unit = 0.0;        ///< measured C1 used for thresholds
    std::uint64_t channels_opened = 0;  ///< channel establishments (§4.5)

    std::vector<LeaderTransition> leader_trace;
    TimeSeries leader_generation;  ///< leader gen over time
};

class SingleLeaderCore : public sim::EventEngine {
public:
    ~SingleLeaderCore() override;

    /// Observers, valid after run().
    [[nodiscard]] const Leader& leader() const { return *leader_; }
    [[nodiscard]] const NodeState& node(NodeId v) const { return nodes_[v]; }
    [[nodiscard]] std::size_t population() const { return nodes_.size(); }

protected:
    /// All leader-directed signal events are owned by shard 0; the
    /// leader's mutable state is only ever touched from there.
    static constexpr std::size_t kLeaderShard = 0;

    /// Shard-owned event counters for the whole run. Cache-line aligned so
    /// neighbouring shards never contend.
    struct alignas(64) ShardScratch {
        std::uint64_t ticks = 0;
        std::uint64_t good_ticks = 0;
        std::uint64_t exchanges = 0;
        std::uint64_t two_choices = 0;
        std::uint64_t propagation = 0;
        std::uint64_t refresh = 0;
        std::uint64_t channels_opened = 0;
        std::uint64_t commits = 0;      ///< validated updates applied
        std::uint64_t aborts = 0;       ///< updates dropped by validation
        std::uint64_t crash_skips = 0;  ///< ticks/exchanges of down nodes
    };

    SingleLeaderCore(const Assignment& assignment, const AsyncConfig& config,
                     std::uint64_t seed);

    /// Run prelude. Splices the deprecated leader_failure_time knob into
    /// the fault plan as a scheduled leader crash and attaches the injector
    /// (rng_ is not advanced). Then measure_c1() (which may split rng_)
    /// yields the steps per time unit C1, and the leader gets its
    /// thresholds.
    template <typename MeasureC1>
    void start(MeasureC1&& measure_c1) {
        attach_faults(fault_plan(), nodes_.size(), config_.max_time, rng_);
        open_leader(measure_c1());
    }

    /// The windowed executor for `Event` on a split of rng_; sizes the
    /// shard scratch to its shards.
    template <typename Event>
    [[nodiscard]] std::unique_ptr<sim::WindowedExecutor<Event>> make_executor() {
        auto executor = EventEngine::make_executor<Event>(config_, nodes_.size(),
                                                          rng_.split());
        scratch_.resize(executor->num_shards());
        return executor;
    }

    /// Window-start snapshots of the nodes and the leader's public state.
    /// Peer reads inside a window observe them: the owning shard is the
    /// only writer of a node, so the live array would race, and snapshot
    /// reads make the trajectory independent of shard completion order.
    void begin_window();

    /// Runs core::run over this engine with the config's budgets and
    /// sampling, recording the leader generation alongside the series.
    void drive();

    /// Folds the shard scratch and the leader load into the result and
    /// returns it (with trace). The executor's counters go in first, via
    /// fold().
    [[nodiscard]] AsyncResult finish();

    /// A 0-signal / i-signal reaches the leader at `time`: it counts as
    /// delivered, and a leader that is up acts on it (Algorithm 3). Only
    /// the leader's shard calls these during a window.
    void deliver_zero_signal(double time) {
        record_leader_signal(time);
        if (leader_up(time)) leader_->on_zero_signal(time);
    }
    void deliver_gen_signal(double time, Generation gen) {
        record_leader_signal(time);
        if (leader_up(time)) leader_->on_gen_signal(time, gen);
    }

    AsyncConfig config_;
    Rng rng_;
    std::vector<NodeState> nodes_;
    std::vector<NodeState> nodes_snap_;  ///< window-start copy (peer reads)
    std::unique_ptr<Leader> leader_;
    std::vector<ShardScratch> scratch_;

    // Window-start snapshot of the leader's public state (exchange reads).
    Generation snap_leader_gen_ = 1;
    bool snap_leader_prop_ = false;

    AsyncResult result_;

private:
    /// config_.fault with leader_failure_time spliced in.
    [[nodiscard]] fault::FaultPlan fault_plan() const;
    void open_leader(double steps_per_unit);

    [[nodiscard]] bool leader_up(double time) const {
        return injector_ == nullptr || !injector_->leader_down(time);
    }

    /// Leader congestion accounting (§4.5): one signal arriving at `time`.
    void record_leader_signal(double time) {
        ++load_.signals;
        const auto bucket = static_cast<std::int64_t>(time);
        if (bucket != load_.bucket) {
            load_.peak = std::max(load_.peak, load_.count);
            load_.bucket = bucket;
            load_.count = 0;
        }
        ++load_.count;
    }

    bool started_ = false;
    /// Written by the leader's shard on every signal while the other
    /// shards read the engine's fields, so it gets its own cache line.
    struct alignas(64) LeaderLoad {
        std::uint64_t signals = 0;
        std::int64_t bucket = -1;  ///< current congestion window (time step)
        std::uint64_t count = 0;   ///< signals in the current window
        std::uint64_t peak = 0;    ///< max signals in one closed window
    } load_;
};

}  // namespace papc::async
