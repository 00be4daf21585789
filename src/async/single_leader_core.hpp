#pragma once

/// \file single_leader_core.hpp
/// What the three single-leader engines (Algorithms 2 + 3, §3) share: the
/// latency model (simulation.hpp), the sequentialized pure-Poisson-clock
/// reference (sequential_simulation.hpp) and the §5 validated-commit
/// extension (validated_simulation.hpp). SingleLeaderCore owns the
/// protocol state — nodes and their window snapshot, census, leader, fault
/// injector, the leader-signal load accounting — plus the run plumbing and
/// the core::Engine accessors. An engine adds its event type, its
/// advance() handler and its C1 measurement, and its run() is:
///
///   start(measure_c1);             // fault plan + injector, C1, leader
///   executor = make_executor<E>(); // (windowed engines) + initial ticks
///   drive();                       // core::run with the config budgets
///   return finish(*executor);      // counter fold, trace, top generation
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
#include "core/engine.hpp"
#include "core/run_result.hpp"
#include "fault/injector.hpp"
#include "opinion/assignment.hpp"
#include "opinion/census.hpp"
#include "sim/windowed_executor.hpp"
#include "support/random.hpp"
#include "support/timeseries.hpp"

namespace papc::async {

/// Aggregate outcome of one single-leader run. The unified convergence
/// semantics (converged / winner / plurality_won / epsilon_time /
/// consensus_time / end_time / steps / plurality_fraction) live in the
/// core::RunResult base; the fields below are single-leader accounting.
/// NOTE: RunResult::steps counts windows, not events — use
/// events_processed for event throughput.
struct AsyncResult : core::RunResult {
    std::uint64_t ticks = 0;              ///< Poisson ticks processed
    std::uint64_t good_ticks = 0;         ///< ticks that started an exchange
    std::uint64_t exchanges = 0;          ///< completed exchanges
    std::uint64_t two_choices_count = 0;  ///< two-choices promotions
    std::uint64_t propagation_count = 0;  ///< propagation promotions
    std::uint64_t refresh_count = 0;      ///< leader-state refreshes

    Generation final_top_generation = 0;
    double steps_per_unit = 0.0;  ///< measured C1 used for thresholds

    // §4.5-style complexity accounting.
    std::uint64_t channels_opened = 0;    ///< channel establishments
    std::uint64_t signals_delivered = 0;  ///< 0- and i-signals at the leader
    double leader_peak_load = 0.0;        ///< max leader signals in one step

    // Window accounting.
    std::uint64_t events_processed = 0;   ///< total events across shards
    std::uint64_t windows = 0;            ///< conservative windows executed
    std::uint64_t window_stragglers = 0;  ///< cross-shard sends behind a
                                          ///< closed window

    // Fault-injection accounting (all zero without an active plan).
    fault::FaultCounters faults;
    std::uint64_t nodes_crashed = 0;  ///< nodes with a crash in the horizon

    std::vector<LeaderTransition> leader_trace;
    TimeSeries leader_generation;   ///< leader gen over time
};

class SingleLeaderCore : public core::Engine {
public:
    ~SingleLeaderCore() override;

    // core::Engine (advance() is each engine's: one window per call).
    [[nodiscard]] double now() const override { return now_; }
    [[nodiscard]] bool converged() const override { return census_.converged(); }
    [[nodiscard]] Opinion dominant() const override {
        return census_.pooled_stats().dominant;
    }
    [[nodiscard]] double opinion_fraction(Opinion j) const override {
        return census_.opinion_fraction(j);
    }

    /// Observers, valid after run().
    [[nodiscard]] const Leader& leader() const { return *leader_; }
    [[nodiscard]] const GenerationCensus& census() const { return census_; }
    [[nodiscard]] const NodeState& node(NodeId v) const { return nodes_[v]; }
    [[nodiscard]] std::size_t population() const { return nodes_.size(); }

protected:
    /// All leader-directed signal events are owned by shard 0; the
    /// leader's mutable state is only ever touched from there.
    static constexpr std::size_t kLeaderShard = 0;

    /// One old-gen/old-col -> new-gen/new-col move, recorded shard-locally
    /// during a window and applied to the census at the barrier.
    struct CensusMove {
        Generation old_gen;
        Opinion old_col;
        Generation new_gen;
        Opinion new_col;
    };

    /// Shard-owned accumulation: event counters for the whole run plus the
    /// census moves of the current window. Cache-line aligned so
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
        std::vector<CensusMove> moves;
    };

    SingleLeaderCore(const Assignment& assignment, const AsyncConfig& config,
                     std::uint64_t seed);

    /// Run prelude. Splices the deprecated leader_failure_time knob into
    /// the fault plan as a scheduled leader crash and builds the injector
    /// from rng_'s *current* state via the pure substream — rng_ is not
    /// advanced, so an inactive plan leaves the tape byte-identical to a
    /// fault-free run. Then measure_c1() (which may split rng_) yields the
    /// steps per time unit C1, and the leader gets its thresholds.
    template <typename MeasureC1>
    void start(MeasureC1&& measure_c1) {
        attach_faults();
        open_leader(measure_c1());
    }

    /// The windowed executor for `Event` from the config's shard, thread,
    /// window and queue knobs (the injector attached), on a split of rng_;
    /// sizes the shard scratch to its shards. Pending events stay near 2
    /// per node (next tick + one in-flight exchange or signal).
    template <typename Event>
    [[nodiscard]] std::unique_ptr<sim::WindowedExecutor<Event>> make_executor() {
        sim::WindowedOptions options;
        options.shards = config_.event_shards;
        options.threads = config_.threads;
        options.window = config_.window;
        options.lambda = config_.lambda;
        options.queue_kind = config_.queue_kind;
        options.reserve_hint = 2 * nodes_.size();
        options.injector = injector_.get();
        auto executor = std::make_unique<sim::WindowedExecutor<Event>>(
            nodes_.size(), options, rng_.split());
        scratch_.resize(executor->num_shards());
        return executor;
    }

    /// Window-start snapshots of the nodes and the leader's public state.
    /// Peer reads inside a window observe them: the owning shard is the
    /// only writer of a node, so the live array would race, and snapshot
    /// reads make the trajectory independent of shard completion order.
    void begin_window();

    /// Merges the window's census moves in shard order on the driving
    /// thread; counters stay in the scratch until finish().
    void commit_window();

    /// Runs core::run over this engine with the config's budgets and
    /// sampling, recording the leader generation alongside the series.
    void drive();

    /// Folds the shard scratch, the window accounting and the message
    /// faults into the result and returns it (with trace and top
    /// generation).
    [[nodiscard]] AsyncResult finish(std::uint64_t events, std::uint64_t windows,
                                     std::uint64_t stragglers,
                                     const fault::FaultCounters& message_faults);

    template <typename Executor>
    [[nodiscard]] AsyncResult finish(const Executor& executor) {
        return finish(executor.events_processed(), executor.windows_run(),
                      executor.stragglers(), executor.fault_counters());
    }

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
    /// Built in start(); null when the plan is inactive.
    std::unique_ptr<fault::Injector> injector_;
    bool crash_on_ = false;  ///< injector_ has node-crash faults
    Rng rng_;
    std::vector<NodeState> nodes_;
    std::vector<NodeState> nodes_snap_;  ///< window-start copy (peer reads)
    GenerationCensus census_;
    std::unique_ptr<Leader> leader_;
    std::vector<ShardScratch> scratch_;

    // Window-start snapshot of the leader's public state (exchange reads).
    Generation snap_leader_gen_ = 1;
    bool snap_leader_prop_ = false;

    double now_ = 0.0;
    AsyncResult result_;

private:
    void attach_faults();
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

    Opinion plurality_ = 0;
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
