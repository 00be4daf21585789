#pragma once

/// \file windowed_executor.hpp
/// Parallel discrete-event executor: sharded event queues advanced in
/// conservative time windows.
///
/// The event-driven engine families (async single-leader, sequential,
/// validated, cluster multi-leader) historically popped one event at a
/// time off a single SchedulerQueue. This executor partitions the nodes
/// into a fixed number of *shards* — each with its own SchedulerQueue and
/// a per-window RNG substream — and advances the simulation window by
/// window: all shards process their pending events with timestamps in
/// [T_min, T_min + delta) in parallel on a support::ThreadPool, then a
/// barrier delivers cross-shard messages in deterministic shard order
/// before the next window opens.
///
/// Determinism contract (the PR 5 sharded-sync contract, extended to
/// events): a run's trajectory is a pure function of (seed, shard count,
/// window width delta) — never of the thread count, which worker a shard
/// lands on, or shard completion order. The pieces:
///
///   1. The node -> shard partition is a pure function of the node id
///      (contiguous blocks; shard_of()).
///   2. Within a window each shard drains its own queue in strict
///      (time, seq) order; same-shard events emitted inside the window
///      with a timestamp before the window end are processed in the same
///      window (the queue interleaves them exactly).
///   3. Every random draw comes from the shard's window substream
///      Rng::substream(window_counter, shard) — a pure function of the
///      executor's base generator state and the labels. The window
///      counter increments once per executed window (NOT floor(T/delta):
///      a cross-shard straggler can force two consecutive windows to
///      overlap in time, and a time-derived label would then replay the
///      previous window's draws).
///   4. Cross-shard emissions buffer in a per-shard outbox and are
///      delivered at the barrier on the driving thread, iterating shards
///      in index order and each outbox in emission order, so the target
///      queue's seq tie-break stream is reproducible.
///   5. A *signal* (ShardContext::signal / signal_message) is an emission
///      whose handler draws nothing from ctx.rng(), emits nothing, and
///      writes only state that no event of the same window reads (a
///      leader's counters, which exchanges read through window-start
///      snapshots). Signals skip the SchedulerQueue: they collect in a
///      per-shard vector, same-shard ones at once and cross-shard ones
///      through a signal outbox delivered at the barrier like item 4.
///      After a shard drains its queue for the window it runs the
///      signals timestamped before the window end, ordered by time with
///      ties in append order. Append order is the order a queue would
///      have assigned seq in, so the signals run in the exact (time, seq)
///      order they would have popped in; and because no event of the
///      window reads what they write, running them after the queue
///      changes no result.
///
/// Window semantics engines must code against (and tests pin):
///   - An event with timestamp exactly T_min + delta belongs to the NEXT
///     window (the window interval is half-open).
///   - A cross-shard send whose timestamp lands inside the current window
///     is delivered at the barrier and processed at the start of the next
///     window (it is a "straggler": the receiving shard has already
///     closed the window). Conservative lookahead delta trades this
///     bounded reordering for parallelism; engines therefore read remote
///     state through window-start snapshots they maintain themselves, so
///     the reordering never becomes a data race.
///   - Empty stretches of the time axis are skipped in one step: the next
///     window always starts at the globally earliest pending timestamp,
///     not at the end of the previous window.
///
/// The executor owns queues, windows, outboxes, substreams and the pool;
/// engines own all protocol state and pass a handler to run_window().
/// Handler discipline for parallel safety: an event for node v is handled
/// by shard_of(v) and may WRITE only state owned by that shard (v's node
/// state, the shard's scratch counters); it may READ remote state only
/// from snapshots taken between windows. ShardContext::emit() and
/// ShardContext::signal() are the only cross-shard channels.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "fault/injector.hpp"
#include "sim/queue_kind.hpp"
#include "sim/scheduler_queue.hpp"
#include "sim/time.hpp"
#include "support/check.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"

namespace papc::sim {

/// Default shard count. Fixed independently of the thread count (shard
/// count is part of the trajectory, thread count is not); 8 shards keep
/// up to 8 workers busy while the per-window merge stays cheap.
inline constexpr std::size_t kDefaultWindowShards = 8;

/// Default conservative window width for an Exponential(lambda) channel
/// model with rate-1 Poisson node clocks. The lookahead must sit well
/// below the protocol's decision timescales (the leader windows span
/// multiple time units) while batching enough events to amortize the
/// barrier: a quarter time unit holds ~n events at rate-1 ticks. Faster
/// channels (lambda > 1) compress the event spacing, so the window
/// shrinks proportionally; slower channels keep the tick-driven density.
[[nodiscard]] inline double default_window(double lambda) {
    return 0.25 / std::max(lambda, 1.0);
}

struct WindowedOptions {
    std::size_t shards = 0;   ///< 0 = kDefaultWindowShards
    std::size_t threads = 1;  ///< worker threads (never changes results)
    double window = 0.0;      ///< delta; <= 0 = default_window(lambda)
    double lambda = 1.0;      ///< channel rate used by the auto window
    QueueKind queue_kind = QueueKind::kBinaryHeap;
    std::size_t reserve_hint = 0;  ///< expected concurrently-queued events
    /// Optional fault injector (borrowed; must outlive the executor).
    /// Message-level faults apply only to emissions routed through
    /// ShardContext::emit_message() or signal_message(); nullptr or an
    /// inactive plan keeps the delivery path byte-identical to the
    /// fault-free executor.
    const fault::Injector* injector = nullptr;
};

template <typename Event>
class WindowedExecutor {
public:
    class ShardContext;

    WindowedExecutor(std::size_t n, const WindowedOptions& options,
                     const Rng& parent)
        : n_(n),
          shards_(options.shards > 0 ? options.shards : kDefaultWindowShards),
          window_(options.window > 0.0 ? options.window
                                       : default_window(options.lambda)),
          threads_(std::max<std::size_t>(1, options.threads)),
          base_rng_(parent),
          injector_(options.injector),
          message_faults_on_(options.injector != nullptr &&
                             options.injector->message_faults_active()) {
        PAPC_CHECK(n_ >= 1);
        PAPC_CHECK(window_ > 0.0);
        lanes_.reserve(shards_);
        const std::size_t hint =
            options.reserve_hint > 0 ? options.reserve_hint / shards_ + 1 : 0;
        for (std::size_t s = 0; s < shards_; ++s) {
            lanes_.push_back(std::make_unique<Lane>());
            lanes_.back()->queue =
                make_scheduler_queue<Event>(options.queue_kind, hint);
        }
        if (threads_ > 1) {
            pool_ = std::make_unique<support::ThreadPool>(threads_);
        }
    }

    /// Owning shard of a node id: contiguous blocks, so neighbouring nodes
    /// share cache lines with their shard.
    [[nodiscard]] std::size_t shard_of(std::size_t node) const {
        return node * shards_ / n_;
    }

    [[nodiscard]] std::size_t num_shards() const { return shards_; }
    [[nodiscard]] std::size_t threads() const { return threads_; }
    [[nodiscard]] double window_width() const { return window_; }

    /// Direct push outside a window (initial-event seeding, between-window
    /// injection). Single-threaded; seq follows call order.
    void seed(std::size_t shard, Time time, Event event) {
        PAPC_CHECK(shard < shards_);
        lanes_[shard]->queue->push(time, std::move(event));
    }

    [[nodiscard]] bool empty() const {
        for (const auto& lane : lanes_) {
            if (!lane->queue->empty() || !lane->signals.empty()) return false;
        }
        return true;
    }

    /// Latest processed event timestamp (monotone across windows).
    [[nodiscard]] double now() const { return now_; }

    /// End of the last executed window.
    [[nodiscard]] double window_end() const { return window_end_; }

    [[nodiscard]] std::uint64_t windows_run() const { return window_counter_; }
    [[nodiscard]] std::uint64_t events_processed() const { return events_; }
    /// Cross-shard messages delivered behind the receiver's closed window
    /// (diagnostics for the lookahead/fidelity trade-off).
    [[nodiscard]] std::uint64_t stragglers() const { return stragglers_; }

    /// Executes one window: picks the globally earliest pending timestamp
    /// T_min (events and signals), processes every shard's events in
    /// [T_min, T_min + delta) in parallel — queue first, then signals —
    /// and delivers cross-shard outboxes in shard order. Returns false
    /// (running nothing) when nothing is pending. handler(ctx, time, event)
    /// must follow the ownership discipline in the file comment.
    template <typename Handler>
    bool run_window(Handler&& handler) {
        Time t_min = kNever;
        for (const auto& lane : lanes_) {
            if (!lane->queue->empty()) {
                t_min = std::min(t_min, lane->queue->next_time());
            }
            t_min = std::min(t_min, lane->signal_min);
        }
        if (!(t_min < kNever)) return false;

        const Time w_end = t_min + window_;
        window_end_ = w_end;
        ++window_counter_;

        const auto body = [&](std::size_t s, std::size_t /*worker*/) {
            Lane& lane = *lanes_[s];
            lane.rng = base_rng_.substream(window_counter_, s);
            if (message_faults_on_) {
                // Fault decisions draw from their own (window, shard)
                // substream, never the engine lane stream — attaching
                // faults must not shift the protocol tape.
                lane.fault_rng = injector_->message_stream(window_counter_, s);
            }
            lane.processed = 0;
            lane.last_time = now_;
            ShardContext ctx(*this, lane, s);
            SchedulerQueue<Event>& queue = *lane.queue;
            while (!queue.empty() && queue.next_time() < w_end) {
                auto entry = queue.pop();
                lane.last_time = entry.time;
                ++lane.processed;
                handler(ctx, entry.time, entry.payload);
            }
            if (lane.signal_min < w_end) run_signals(lane, ctx, w_end, handler);
        };
        if (pool_ == nullptr) {
            for (std::size_t s = 0; s < shards_; ++s) body(s, 0);
        } else {
            pool_->parallel_for(shards_, body);
        }

        // Barrier: deliver outboxes in shard order, then fold counters.
        // Messages timestamped before w_end arrive behind the receiver's
        // closed window and run first thing next window ("stragglers").
        for (const auto& lane : lanes_) {
            for (auto& msg : lane->outbox) {
                if (msg.time < w_end) ++stragglers_;
                lanes_[msg.shard]->queue->push(msg.time, std::move(msg.event));
            }
            lane->outbox.clear();
            for (auto& msg : lane->signal_outbox) {
                if (msg.time < w_end) ++stragglers_;
                lanes_[msg.shard]->add_signal(msg.time, std::move(msg.event));
            }
            lane->signal_outbox.clear();
            events_ += lane->processed;
            now_ = std::max(now_, lane->last_time);
            if (message_faults_on_) {
                faults_.lost += lane->faults.lost;
                faults_.duplicated += lane->faults.duplicated;
                faults_.corrupted += lane->faults.corrupted;
                faults_.delayed += lane->faults.delayed;
                lane->faults = fault::FaultCounters{};
            }
        }
        return true;
    }

    /// Message-fault tallies across all executed windows (all zero when no
    /// injector is attached or its message rates are zero).
    [[nodiscard]] const fault::FaultCounters& fault_counters() const {
        return faults_;
    }

private:
    static constexpr Time kNever = std::numeric_limits<Time>::infinity();

    struct Outgoing {
        std::size_t shard;
        Time time;
        Event event;
    };

    struct Signal {
        Time time;
        Event event;
    };

    /// Per-shard lane. Heap-allocated so neighbouring shards' hot state
    /// never false-shares a cache line.
    struct Lane {
        std::unique_ptr<SchedulerQueue<Event>> queue;
        std::vector<Outgoing> outbox;
        /// Pending signals in append order (contract item 5).
        std::vector<Signal> signals;
        Time signal_min = kNever;  ///< earliest time in `signals`
        std::vector<Outgoing> signal_outbox;
        /// run_signals() scratch: the due signals' indices, the same
        /// sorted, and the bucket offsets that sort them.
        std::vector<std::uint32_t> due;
        std::vector<std::uint32_t> order;
        std::vector<std::uint32_t> buckets;
        Rng rng{0};
        Rng fault_rng{0};  ///< per-window message-fault substream
        fault::FaultCounters faults;  ///< folded at the barrier
        std::uint64_t processed = 0;
        Time last_time = 0.0;

        void add_signal(Time time, Event event) {
            signal_min = std::min(signal_min, time);
            signals.push_back(Signal{time, std::move(event)});
        }
    };

    /// Runs `lane`'s signals timestamped before `w_end` in (time, append
    /// index) order — the (time, seq) order a queue would pop them in,
    /// since append order is the order a queue would have assigned seq
    /// in — then drops them, keeping the rest in append order.
    template <typename Handler>
    void run_signals(Lane& lane, ShardContext& ctx, Time w_end,
                     Handler& handler) {
        std::vector<Signal>& pending = lane.signals;
        PAPC_CHECK(pending.size() <= std::numeric_limits<std::uint32_t>::max());
        lane.due.clear();
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (pending[i].time < w_end) {
                lane.due.push_back(static_cast<std::uint32_t>(i));
            }
        }
        sort_by_time(pending, lane.due, lane.buckets, lane.order);
        ctx.draining_signals_ = true;
        for (const std::uint32_t i : lane.order) {
            handler(ctx, pending[i].time, pending[i].event);
        }
        ctx.draining_signals_ = false;
        lane.processed += lane.due.size();
        lane.last_time =
            std::max(lane.last_time, pending[lane.order.back()].time);

        std::size_t kept = 0;
        Time kept_min = kNever;
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (pending[i].time < w_end) continue;
            kept_min = std::min(kept_min, pending[i].time);
            if (kept != i) pending[kept] = std::move(pending[i]);
            ++kept;
        }
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(kept),
                      pending.end());
        lane.signal_min = kept_min;
    }

    /// Writes `due` (ascending indices into `signals`) to `order` sorted
    /// by (time, index). A counting pass drops each index into one of
    /// due.size() equal-width time buckets, in index order; an insertion
    /// pass then orders each bucket. A window's signal times spread near
    /// uniformly, so a bucket holds about one signal and this runs in
    /// linear time, where a comparison sort pays a mispredicted branch per
    /// compare (4x slower on the async leader's ~4,000 due signals per
    /// window). Times that cluster into few buckets fall back to std::sort.
    static void sort_by_time(const std::vector<Signal>& signals,
                             const std::vector<std::uint32_t>& due,
                             std::vector<std::uint32_t>& buckets,
                             std::vector<std::uint32_t>& order) {
        const std::size_t count = due.size();
        order.assign(due.begin(), due.end());
        Time lo = kNever;
        Time hi = -kNever;
        for (const std::uint32_t i : due) {
            lo = std::min(lo, signals[i].time);
            hi = std::max(hi, signals[i].time);
        }
        if (!(lo < hi)) return;  // one time: index order is the order
        const double scale = static_cast<double>(count) / (hi - lo);
        const auto bucket = [&](std::uint32_t i) {
            const double b = (signals[i].time - lo) * scale;
            return b < static_cast<double>(count) ? static_cast<std::size_t>(b)
                                                  : count - 1;
        };
        buckets.assign(count + 1, 0);
        for (const std::uint32_t i : due) ++buckets[bucket(i) + 1];
        for (std::size_t b = 1; b <= count; ++b) buckets[b] += buckets[b - 1];
        for (const std::uint32_t i : due) order[buckets[bucket(i)]++] = i;

        const auto before = [&](std::uint32_t a, std::uint32_t b) {
            return signals[a].time < signals[b].time ||
                   (signals[a].time == signals[b].time && a < b);
        };
        std::size_t moves = 0;
        for (std::size_t k = 1; k < count; ++k) {
            const std::uint32_t x = order[k];
            std::size_t j = k;
            for (; j > 0 && before(x, order[j - 1]); --j) {
                order[j] = order[j - 1];
            }
            order[j] = x;
            moves += k - j;
            if (moves > 4 * count) {
                std::sort(order.begin(), order.end(), before);
                return;
            }
        }
    }

public:
    /// What an event handler sees: its shard's substream, its shard index,
    /// and the only legal cross-shard channels.
    class ShardContext {
        /// emit_message()'s default: corruption rewrites nothing.
        struct KeepPayload {
            void operator()(Rng& /*fault_rng*/, Event& /*event*/) const {}
        };

    public:
        ShardContext(WindowedExecutor& executor, Lane& lane, std::size_t shard)
            : executor_(executor), lane_(lane), shard_(shard) {}

        [[nodiscard]] Rng& rng() { return lane_.rng; }
        [[nodiscard]] std::size_t shard() const { return shard_; }
        [[nodiscard]] double window_end() const {
            return executor_.window_end_;
        }

        /// Schedules `event` at `time` on `target` shard. Same-shard
        /// emissions land in the local queue immediately (and are still
        /// processed this window when time < window_end()); cross-shard
        /// emissions buffer in the outbox until the barrier.
        void emit(std::size_t target, Time time, Event event) {
            PAPC_CHECK(!draining_signals_);
            if (target == shard_) {
                lane_.queue->push(time, std::move(event));
            } else {
                lane_.outbox.push_back(
                    Outgoing{target, time, std::move(event)});
            }
        }

        /// Schedules `event` at `time` on `target` shard as a signal
        /// (contract item 5: its handler draws nothing, emits nothing and
        /// writes nothing the window reads). A same-shard signal with
        /// time < window_end() still runs this window, after the queue; a
        /// cross-shard one waits for the barrier like emit().
        void signal(std::size_t target, Time time, Event event) {
            PAPC_CHECK(!draining_signals_);
            if (target == shard_) {
                lane_.add_signal(time, std::move(event));
            } else {
                lane_.signal_outbox.push_back(
                    Outgoing{target, time, std::move(event)});
            }
        }

        /// Schedules a *message* — an emission that models a network send
        /// from `send_time` arriving at `arrive_time` — through the fault
        /// layer: it may be dropped, duplicated, corrupted
        /// (`corrupt(fault_rng, event)` rewrites the payload in place;
        /// without `corrupt`, corruption still counts a fault draw but
        /// rewrites nothing), or straggler-inflated (arrival stretched by
        /// the drawn multiplier). Self-events (ticks, exchange completions)
        /// must stay on emit(): faults model the network, not a node's own
        /// clock. With no active injector this is exactly
        /// emit(target, arrive_time, ...).
        template <typename CorruptFn = KeepPayload>
        void emit_message(std::size_t target, Time send_time,
                          Time arrive_time, Event event,
                          CorruptFn&& corrupt = {}) {
            send_message<false>(target, send_time, arrive_time,
                                std::move(event), corrupt);
        }

        /// emit_message() delivered as a signal(): the same fault draws,
        /// then signal() in place of emit().
        template <typename CorruptFn = KeepPayload>
        void signal_message(std::size_t target, Time send_time,
                            Time arrive_time, Event event,
                            CorruptFn&& corrupt = {}) {
            send_message<true>(target, send_time, arrive_time,
                               std::move(event), corrupt);
        }

    private:
        friend class WindowedExecutor;

        template <bool kSignal>
        void deliver(std::size_t target, Time time, Event event) {
            if constexpr (kSignal) {
                signal(target, time, std::move(event));
            } else {
                emit(target, time, std::move(event));
            }
        }

        /// The one fault path of emit_message() and signal_message().
        template <bool kSignal, typename CorruptFn>
        void send_message(std::size_t target, Time send_time,
                          Time arrive_time, Event event, CorruptFn& corrupt) {
            if (!executor_.message_faults_on_) {
                deliver<kSignal>(target, arrive_time, std::move(event));
                return;
            }
            const fault::MessageFate fate =
                executor_.injector_->draw_fate(lane_.fault_rng);
            if (fate.drop) {
                ++lane_.faults.lost;
                return;
            }
            if (fate.corrupt) {
                ++lane_.faults.corrupted;
                corrupt(lane_.fault_rng, event);
            }
            Time at = arrive_time;
            if (fate.delay_multiplier > 1.0) {
                ++lane_.faults.delayed;
                at = send_time +
                     (arrive_time - send_time) * fate.delay_multiplier;
            }
            if (fate.duplicate) {
                ++lane_.faults.duplicated;
                Event copy = event;
                deliver<kSignal>(target, at, std::move(copy));
            }
            deliver<kSignal>(target, at, std::move(event));
        }

        WindowedExecutor& executor_;
        Lane& lane_;
        std::size_t shard_;
        bool draining_signals_ = false;  ///< run_signals() is running
    };

private:
    std::size_t n_;
    std::size_t shards_;
    double window_;
    std::size_t threads_;
    Rng base_rng_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::unique_ptr<support::ThreadPool> pool_;  ///< null when threads_ == 1

    const fault::Injector* injector_ = nullptr;
    bool message_faults_on_ = false;
    fault::FaultCounters faults_;

    double now_ = 0.0;
    double window_end_ = 0.0;
    std::uint64_t window_counter_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t stragglers_ = 0;
};

}  // namespace papc::sim
