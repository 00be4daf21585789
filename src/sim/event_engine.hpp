#pragma once

/// \file event_engine.hpp
/// The run plumbing of the event engines, written once. The single-leader
/// (§3; async/single_leader_core.hpp) and multi-leader (§4;
/// cluster/simulation.hpp) families run in one asynchronous model — rate-1
/// clocks, channel delays from one latency law, leaders that count
/// signals — on the sharded windowed executor (windowed_executor.hpp):
///   - EventConfig holds the knobs both families read;
///   - EventRunResult holds the counters both families report;
///   - EventEngine owns the census, the clock and the fault injector,
///     builds the executor and the core::run options from the config,
///     merges each window's census moves and folds the executor's counters.
/// A family adds its protocol state, its event type and its handler, a
/// template lambda passed to run_window(): no virtual call per event.
///
/// Porting rules every windowed engine follows:
///   - an event for node v runs on v's shard and writes only v's state and
///     its shard's counters and census moves;
///   - peer and leader reads go through window-start snapshots;
///   - census moves merge in shard order at the barrier;
///   - the injector derives from the run generator through the pure
///     substream, so an inactive plan leaves the tape byte-identical.
/// A fixed-seed run is then a pure function of (seed, event_shards,
/// window), the same at every thread count and queue kind.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/run_result.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "opinion/assignment.hpp"
#include "opinion/census.hpp"
#include "sim/queue_kind.hpp"
#include "sim/windowed_executor.hpp"
#include "support/random.hpp"

namespace papc::sim {

/// Knobs shared by the event-driven engines. async::AsyncConfig and
/// cluster::ClusterConfig add their family's protocol constants.
struct EventConfig {
    /// Latency rate λ of the default Exponential(λ) channel-establishment
    /// model; also sets the auto window width. (The single-leader engines
    /// accept a custom LatencyModel instead.)
    double lambda = 1.0;

    /// Assumed initial bias α0 — the nodes and leaders know α0 and k
    /// (§3.2); only a lower bound is required.
    double alpha_hint = 1.5;

    /// Extra generations on top of the closed-form G* (safety slack).
    unsigned generation_slack = 2;

    /// Hard cap on simulated time (time steps); safety net only.
    double max_time = 5000.0;

    /// ε for ε-convergence reporting (§3: ε = 1/polylog n; fixed here).
    double epsilon = 0.02;

    /// Sampling interval (time steps) of the metronome that records time
    /// series and checks convergence.
    double sample_interval = 0.25;

    /// Record time series (disable in bulk sweeps to save memory).
    bool record_series = true;

    /// Fault & adversary plan (src/fault/plan.hpp). An all-zero plan is
    /// byte-identical to no plan; any active channel makes the plan part
    /// of the trajectory identity.
    fault::FaultPlan fault;

    // Executor knobs. async, validated and multi's consensus phase read
    // all four. sequential is a plain tick loop and reads only `window`
    // (and `lambda` for its auto width).

    /// Scheduler-queue implementation behind each shard of the windowed
    /// executor; multi also reads it for its clustering and broadcast
    /// phases. All kinds pop in identical (time, seq) order (pinned by the
    /// equivalence tests), so for a fixed seed this knob changes throughput
    /// only, never results. kLadder is the fastest at every measured size
    /// (ladder <= calendar <= heap from 2^10 to 2^22 pending events); the
    /// heap stays the default reference.
    QueueKind queue_kind = QueueKind::kBinaryHeap;

    /// Worker threads of the windowed executor (multi's clustering phase
    /// stays single-queue). Results are bit-identical at every thread
    /// count; only throughput changes.
    std::size_t threads = 1;

    /// Conservative window width delta, in time units. <= 0 derives
    /// default_window(lambda). Part of the trajectory: two runs only
    /// reproduce each other with equal windows.
    double window = 0.0;

    /// Shard count of the windowed executor (0 = default). Like `window`,
    /// part of the trajectory; unlike `threads`, never auto-scaled.
    std::size_t event_shards = 0;
};

/// Counters both event families report on top of the unified convergence
/// semantics of core::RunResult. NOTE: RunResult::steps counts windows, not
/// events — use events_processed for event throughput.
struct EventRunResult : core::RunResult {
    std::uint64_t ticks = 0;              ///< clock ticks processed
    std::uint64_t exchanges = 0;          ///< completed exchanges
    std::uint64_t two_choices_count = 0;  ///< two-choices promotions
    std::uint64_t propagation_count = 0;  ///< propagation promotions
    Generation final_top_generation = 0;

    // §4.5 complexity accounting.
    std::uint64_t signals_delivered = 0;  ///< signals at any leader
    double leader_peak_load = 0.0;        ///< max signals/step at one leader

    // Window accounting.
    std::uint64_t events_processed = 0;   ///< total events across shards
    std::uint64_t windows = 0;            ///< conservative windows executed
    std::uint64_t window_stragglers = 0;  ///< cross-shard sends behind a
                                          ///< closed window

    // Fault-injection accounting (all zero without an active plan).
    fault::FaultCounters faults;
    std::uint64_t nodes_crashed = 0;  ///< nodes with a crash in the horizon
};

/// Base of the event-driven engines: census, clock, injector, census-move
/// buffers, and the four census-backed core::Engine overrides. advance()
/// stays the family's: one window per call.
class EventEngine : public core::Engine {
public:
    ~EventEngine() override;

    [[nodiscard]] double now() const override { return now_; }
    [[nodiscard]] bool converged() const override { return census_.converged(); }
    [[nodiscard]] Opinion dominant() const override {
        return census_.pooled_stats().dominant;
    }
    [[nodiscard]] double opinion_fraction(Opinion j) const override {
        return census_.opinion_fraction(j);
    }

    [[nodiscard]] const GenerationCensus& census() const { return census_; }

protected:
    /// One old-gen/old-col -> new-gen/new-col move, recorded shard-locally
    /// during a window and applied to the census at the barrier.
    struct CensusMove {
        Generation old_gen;
        Opinion old_col;
        Generation new_gen;
        Opinion new_col;
    };

    /// Census over the assignment; its dominant opinion is the plurality
    /// the ε-tracking expects.
    explicit EventEngine(const Assignment& assignment);

    /// Builds the injector for an active `plan` from `rng`'s current state
    /// through the pure substream: `rng` is not advanced.
    void attach_faults(const fault::FaultPlan& plan, std::size_t n,
                       double horizon, const Rng& rng);

    /// The windowed executor for `Event` over `n` nodes from the config's
    /// shard, thread, window and queue knobs, with the injector attached,
    /// on `rng`; sizes the census-move buffers to its shards. Pending
    /// events stay near 2 per node (next tick + one in-flight exchange or
    /// signal).
    template <typename Event>
    [[nodiscard]] std::unique_ptr<WindowedExecutor<Event>> make_executor(
        const EventConfig& config, std::size_t n, const Rng& rng) {
        WindowedOptions options;
        options.shards = config.event_shards;
        options.threads = config.threads;
        options.window = config.window;
        options.lambda = config.lambda;
        options.queue_kind = config.queue_kind;
        options.reserve_hint = 2 * n;
        options.injector = injector_.get();
        auto executor = std::make_unique<WindowedExecutor<Event>>(n, options, rng);
        shard_moves_.resize(executor->num_shards());
        return executor;
    }

    /// Runs one window of `executor` through `handler`, merges its census
    /// moves and advances the clock. Returns whether any event ran.
    template <typename Event, typename Handler>
    bool run_window(WindowedExecutor<Event>& executor, Handler&& handler) {
        const bool ran = executor.run_window(std::forward<Handler>(handler));
        commit_window();
        now_ = executor.now();
        return ran;
    }

    /// Records a census move made by `shard`'s handler in this window.
    void record_move(std::size_t shard, const CensusMove& move) {
        shard_moves_[shard].moves.push_back(move);
    }

    /// Merges the window's census moves in shard order on the driving
    /// thread.
    void commit_window();

    /// core::run over this engine with the config's budgets and sampling;
    /// its outcome fills the core::RunResult part of `result`.
    void run_core(const EventConfig& config, core::Observer& observer,
                  EventRunResult& result);

    /// Folds the executor's event, window and straggler counts, its message
    /// faults, the crashed-node count and the top generation into `result`.
    void fold(std::uint64_t events, std::uint64_t windows,
              std::uint64_t stragglers,
              const fault::FaultCounters& message_faults,
              EventRunResult& result) const;

    template <typename Executor>
    void fold(const Executor& executor, EventRunResult& result) const {
        fold(executor.events_processed(), executor.windows_run(),
             executor.stragglers(), executor.fault_counters(), result);
    }

    GenerationCensus census_;
    double now_ = 0.0;
    Opinion plurality_ = 0;
    /// Built in attach_faults(); null when the plan is inactive.
    std::unique_ptr<fault::Injector> injector_;
    bool crash_on_ = false;  ///< injector_ has node-crash faults

private:
    /// One shard's moves, on its own cache line so neighbouring shards
    /// never contend.
    struct alignas(64) ShardMoves {
        std::vector<CensusMove> moves;
    };
    std::vector<ShardMoves> shard_moves_;
};

}  // namespace papc::sim
