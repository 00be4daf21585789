#include "sim/windowed_executor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "sim/event_engine.hpp"

namespace papc::sim {
namespace {

// Pins the WindowedExecutor's window semantics — the contract the four
// event-driven engine families code against (see the header comment):
// half-open windows, empty-stretch skipping, straggler delivery at the
// barrier, per-window substreams labeled by a monotone counter,
// thread-count-invariant trajectories, and the signal lane (contract
// item 5). Negative payloads mark signals in the mixed workloads: their
// handler draws nothing and emits nothing, as the contract requires.

WindowedOptions options(std::size_t shards, double window,
                        std::size_t threads = 1) {
    WindowedOptions o;
    o.shards = shards;
    o.threads = threads;
    o.window = window;
    return o;
}

TEST(WindowedExecutor, ShardPartitionIsContiguousAndBalanced) {
    const std::size_t n = 1000;
    const WindowedExecutor<int> executor(n, options(8, 1.0), Rng(1));
    ASSERT_EQ(executor.num_shards(), 8U);
    std::vector<std::size_t> counts(8, 0);
    std::size_t prev = 0;
    for (std::size_t v = 0; v < n; ++v) {
        const std::size_t s = executor.shard_of(v);
        ASSERT_LT(s, 8U);
        EXPECT_GE(s, prev);  // contiguous blocks: shard is monotone in v
        prev = s;
        ++counts[s];
    }
    for (const std::size_t c : counts) {
        EXPECT_GE(c, n / 8);  // every shard owns a near-equal block
        EXPECT_LE(c, n / 8 + 1);
    }
}

TEST(WindowedExecutor, DefaultWindowTracksLambda) {
    EXPECT_DOUBLE_EQ(default_window(1.0), 0.25);
    EXPECT_DOUBLE_EQ(default_window(0.5), 0.25);  // floor at rate 1
    EXPECT_DOUBLE_EQ(default_window(4.0), 0.0625);
    const WindowedExecutor<int> executor(10, options(2, 0.0), Rng(1));
    EXPECT_DOUBLE_EQ(executor.window_width(), 0.25);
}

TEST(WindowedExecutor, EventExactlyAtWindowEndBelongsToNextWindow) {
    // The window interval is half-open: [T_min, T_min + delta).
    WindowedExecutor<int> executor(8, options(1, 1.0), Rng(3));
    executor.seed(0, 0.0, 1);
    executor.seed(0, 1.0, 2);  // exactly T_min + delta
    std::vector<int> seen;
    const auto handler = [&](auto& /*ctx*/, Time /*t*/, int payload) {
        seen.push_back(payload);
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1}));
    EXPECT_DOUBLE_EQ(executor.window_end(), 1.0);

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(executor.window_end(), 2.0);
    EXPECT_TRUE(executor.empty());
    EXPECT_FALSE(executor.run_window(handler));
    EXPECT_EQ(executor.windows_run(), 2U);
    EXPECT_EQ(executor.events_processed(), 2U);
}

TEST(WindowedExecutor, EmptyTimeStretchesAreSkippedInOneWindow) {
    // The next window opens at the globally earliest pending timestamp,
    // not at the end of the previous window: a 1000-unit gap costs one
    // window, not 1000 of them.
    WindowedExecutor<int> executor(8, options(2, 1.0), Rng(4));
    executor.seed(0, 0.5, 1);
    executor.seed(1, 1000.25, 2);
    std::vector<int> seen;
    const auto handler = [&](auto& /*ctx*/, Time /*t*/, int payload) {
        seen.push_back(payload);
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_DOUBLE_EQ(executor.window_end(), 1.5);
    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_DOUBLE_EQ(executor.window_end(), 1001.25);
    EXPECT_EQ(executor.windows_run(), 2U);
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

TEST(WindowedExecutor, SameShardEmissionInsideWindowRunsThisWindow) {
    // A same-shard emit with time < window_end interleaves into the
    // current window (the queue orders it exactly).
    WindowedExecutor<int> executor(8, options(1, 1.0), Rng(5));
    executor.seed(0, 0.0, 1);
    std::vector<int> seen;
    const auto handler = [&](auto& ctx, Time t, int payload) {
        seen.push_back(payload);
        if (payload == 1) {
            ctx.emit(0, t + 0.5, 2);   // inside [0, 1): this window
            ctx.emit(0, t + 1.25, 3);  // beyond the window: next one
        }
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(executor.stragglers(), 0U);
}

TEST(WindowedExecutor, CrossShardSendInsideWindowIsAStraggler) {
    // A cross-shard send whose timestamp lands inside the current window
    // waits at the barrier and runs first thing next window; the executor
    // counts it as a straggler.
    WindowedExecutor<int> executor(8, options(2, 1.0), Rng(6));
    executor.seed(0, 0.0, 1);
    std::vector<int> seen;
    std::vector<std::uint64_t> seen_window;
    const auto handler = [&](auto& ctx, Time t, int payload) {
        seen.push_back(payload);
        seen_window.push_back(executor.windows_run());
        if (payload == 1) {
            ctx.emit(1, t + 0.25, 2);  // inside shard 1's closed window
        }
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1}));
    EXPECT_EQ(executor.stragglers(), 1U);

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
    EXPECT_EQ(seen_window, (std::vector<std::uint64_t>{1, 2}));
    // The straggler forced window 2 to open before window 1's end — the
    // two windows overlap in time.
    EXPECT_LT(executor.window_end() - executor.window_width(), 1.0);
    EXPECT_EQ(executor.stragglers(), 1U);
}

TEST(WindowedExecutor, OverlappingWindowsGetFreshSubstreams) {
    // The substream label is the monotone window counter, not
    // floor(T_min / delta): after a straggler the next window can replay
    // the same time interval, and a time-derived label would replay the
    // previous window's draws. Pin that consecutive windows starting at
    // the same T_min draw differently.
    WindowedExecutor<int> executor(8, options(2, 1.0), Rng(7));
    executor.seed(0, 0.0, 1);
    std::vector<std::uint64_t> draws;
    const auto handler = [&](auto& ctx, Time t, int payload) {
        draws.push_back(ctx.rng().next_u64());
        if (payload == 1) ctx.emit(1, t, 2);  // straggler at the SAME time
    };

    ASSERT_TRUE(executor.run_window(handler));
    ASSERT_TRUE(executor.run_window(handler));
    ASSERT_EQ(draws.size(), 2U);
    EXPECT_NE(draws[0], draws[1]);
}

TEST(WindowedExecutor, TrajectoryInvariantAcrossThreadCounts) {
    // The full (shard, time, payload, draw) tape is a pure function of
    // (seed, shards, window) — never the thread count. Same workload at
    // threads {1, 2, 8} must produce byte-identical tapes.
    struct Step {
        std::size_t shard;
        Time time;
        int payload;
        std::uint64_t draw;
        bool operator==(const Step& o) const {
            return shard == o.shard && time == o.time &&
                   payload == o.payload && draw == o.draw;
        }
    };
    const auto run = [](std::size_t threads, bool signals) {
        WindowedExecutor<int> executor(64, options(4, 0.5, threads), Rng(11));
        // Per-shard tapes: shards run concurrently, so each writes its
        // own vector; folding in shard order is deterministic.
        std::vector<std::vector<Step>> tapes(4);
        for (std::size_t s = 0; s < 4; ++s) {
            executor.seed(s, 0.1 * static_cast<double>(s + 1),
                          static_cast<int>(s));
        }
        const auto handler = [&](auto& ctx, Time t, int payload) {
            if (payload < 0) {
                tapes[ctx.shard()].push_back(Step{ctx.shard(), t, payload, 0});
                return;
            }
            const std::uint64_t draw = ctx.rng().next_u64();
            tapes[ctx.shard()].push_back(Step{ctx.shard(), t, payload, draw});
            if (payload < 40) {
                // Bounce between shards and within the shard.
                const std::size_t target = (ctx.shard() + 1) % 4;
                ctx.emit(target, t + 0.05 + 1e-3 * (draw % 7), payload + 4);
                ctx.emit(ctx.shard(), t + 0.2, payload + 5);
                if (signals) {
                    // One leader shard, signalled from every shard: some
                    // land in this window, some are stragglers.
                    ctx.signal(0, t + 1e-2 * static_cast<double>(draw % 9),
                               -payload - 1);
                }
            }
        };
        while (executor.run_window(handler)) {
        }
        std::vector<Step> tape;
        for (const auto& shard_tape : tapes) {
            tape.insert(tape.end(), shard_tape.begin(), shard_tape.end());
        }
        return tape;
    };

    for (const bool signals : {false, true}) {
        SCOPED_TRACE(signals ? "with signals" : "events only");
        const std::vector<Step> t1 = run(1, signals);
        const std::vector<Step> t2 = run(2, signals);
        const std::vector<Step> t8 = run(8, signals);
        ASSERT_FALSE(t1.empty());
        EXPECT_EQ(t1, t2);
        EXPECT_EQ(t1, t8);
    }
}

TEST(WindowedExecutor, WorksWithEveryQueueKind) {
    // The executor is queue-kind agnostic: identical tapes whichever
    // SchedulerQueue implementation backs the shards.
    const auto run = [](QueueKind kind, bool signals) {
        WindowedOptions o = options(2, 1.0);
        o.queue_kind = kind;
        WindowedExecutor<int> executor(16, o, Rng(13));
        executor.seed(0, 0.0, 0);
        std::vector<int> seen;
        const auto handler = [&](auto& ctx, Time t, int payload) {
            seen.push_back(payload);
            if (payload >= 0 && payload < 20) {
                ctx.emit(payload % 2, t + 0.3, payload + 1);
                if (signals) ctx.signal(0, t + 0.2, -payload - 1);
            }
        };
        while (executor.run_window(handler)) {
        }
        return seen;
    };
    for (const bool signals : {false, true}) {
        SCOPED_TRACE(signals ? "with signals" : "events only");
        const std::vector<int> heap = run(QueueKind::kBinaryHeap, signals);
        EXPECT_EQ(heap, run(QueueKind::kCalendar, signals));
        EXPECT_EQ(heap, run(QueueKind::kLadder, signals));
        ASSERT_EQ(heap.size(), signals ? 41U : 21U);
    }
}

// ---------------------------------------------------------- signal lane

TEST(WindowedExecutor, SameShardSignalInsideWindowRunsAfterTheQueue) {
    // A same-shard signal timestamped before the window end runs in this
    // window, after every queue event of the window — even queue events
    // later than the signal. One past the window end waits for the next.
    WindowedExecutor<int> executor(8, options(1, 1.0), Rng(21));
    executor.seed(0, 0.0, 1);
    std::vector<int> seen;
    const auto handler = [&](auto& ctx, Time t, int payload) {
        seen.push_back(payload);
        if (payload == 1) {
            ctx.signal(0, t + 0.75, -2);  // inside, later than event 2
            ctx.signal(0, t + 0.1, -1);   // inside, earlier than event 2
            ctx.emit(0, t + 0.5, 2);
            ctx.signal(0, t + 1.5, -3);  // beyond the window: next one
        }
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2, -1, -2}));
    EXPECT_DOUBLE_EQ(executor.now(), 0.75);  // the latest signal counts
    EXPECT_EQ(executor.events_processed(), 4U);
    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2, -1, -2, -3}));
    EXPECT_DOUBLE_EQ(executor.now(), 1.5);
    EXPECT_EQ(executor.stragglers(), 0U);
    EXPECT_TRUE(executor.empty());
}

TEST(WindowedExecutor, CrossShardSignalInsideWindowIsAStraggler) {
    // Like a cross-shard emit: delivered at the barrier, counted as a
    // straggler, run in the next window, which opens at its timestamp.
    WindowedExecutor<int> executor(8, options(2, 1.0), Rng(22));
    executor.seed(0, 0.0, 1);
    std::vector<int> seen;
    const auto handler = [&](auto& ctx, Time t, int payload) {
        seen.push_back(payload);
        if (payload == 1) ctx.signal(1, t + 0.25, -1);
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1}));
    EXPECT_EQ(executor.stragglers(), 1U);

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, -1}));
    EXPECT_DOUBLE_EQ(executor.window_end(), 1.25);
    EXPECT_EQ(executor.stragglers(), 1U);
}

TEST(WindowedExecutor, SignalTimeTiesRunInPushOrder) {
    // Equal timestamps run in push order — same-shard appends, then the
    // barrier's in source-shard order, then later windows' — which is the
    // (time, seq) order a queue gives the same emissions.
    const auto run = [](bool signals) {
        WindowedExecutor<int> executor(8, options(2, 1.0), Rng(23));
        executor.seed(0, 0.0, 0);
        executor.seed(1, 0.0, 1);
        executor.seed(0, 1.5, 2);
        std::vector<int> seen;
        const auto handler = [&](auto& ctx, Time /*t*/, int payload) {
            seen.push_back(payload);
            if (payload < 0) return;
            for (int i = 0; i < 2; ++i) {
                const int leaf = -(100 * (payload + 1) + i);
                if (signals) {
                    ctx.signal(0, 2.0, leaf);
                } else {
                    ctx.emit(0, 2.0, leaf);
                }
            }
        };
        while (executor.run_window(handler)) {
        }
        return seen;
    };
    const std::vector<int> queued = run(false);
    EXPECT_EQ(queued,
              (std::vector<int>{0, 1, 2, -100, -101, -200, -201, -300, -301}));
    EXPECT_EQ(run(true), queued);
}

TEST(WindowedExecutor, SignalsRunInTheOrderAQueueWouldPopThem) {
    // Many signals per window, sent as signals or as plain emits to a
    // shard that runs nothing else: the tapes match for spread-out times
    // (about one per sort bucket), rounded times (exact ties) and times
    // crowded into a sliver of the window (most in one bucket).
    const auto spread = [](Rng& rng) { return rng.uniform() * 3.0; };
    const auto rounded = [](Rng& rng) {
        return static_cast<double>(rng.uniform_index(12)) * 0.25;
    };
    const auto crowded = [](Rng& rng) {
        return rng.uniform_index(50) == 0 ? 2.5 : 1.0 + rng.uniform() * 1e-9;
    };
    const auto run = [](bool signals, const auto& draw_time) {
        WindowedExecutor<int> executor(8, options(2, 1.0), Rng(28));
        for (int i = 0; i < 4; ++i) executor.seed(0, 0.1 * i, i);
        std::vector<std::pair<Time, int>> tape;
        int next = 0;
        const auto handler = [&](auto& ctx, Time t, int payload) {
            if (ctx.shard() == 1) {
                tape.emplace_back(t, payload);
                return;
            }
            for (int k = 0; k < 500; ++k) {
                const Time at = t + draw_time(ctx.rng());
                if (signals) {
                    ctx.signal(1, at, --next);
                } else {
                    ctx.emit(1, at, --next);
                }
            }
        };
        while (executor.run_window(handler)) {
        }
        return tape;
    };
    const auto check = [&](const char* label, const auto& draw_time) {
        SCOPED_TRACE(label);
        const auto queued = run(false, draw_time);
        ASSERT_EQ(queued.size(), 2000U);
        EXPECT_EQ(run(true, draw_time), queued);
    };
    check("spread", spread);
    check("rounded", rounded);
    check("crowded", crowded);
}

TEST(WindowedExecutor, PendingSignalsAloneKeepTheRunGoing) {
    // With every queue empty, a pending signal still sets T_min, keeps
    // empty() false and gets its window.
    WindowedExecutor<int> executor(8, options(2, 1.0), Rng(24));
    executor.seed(0, 0.0, 1);
    std::vector<int> seen;
    const auto handler = [&](auto& ctx, Time t, int payload) {
        seen.push_back(payload);
        if (payload == 1) ctx.signal(1, t + 5.0, -1);
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_FALSE(executor.empty());
    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_DOUBLE_EQ(executor.window_end(), 6.0);
    EXPECT_DOUBLE_EQ(executor.now(), 5.0);
    EXPECT_EQ(seen, (std::vector<int>{1, -1}));
    EXPECT_TRUE(executor.empty());
    EXPECT_FALSE(executor.run_window(handler));
    EXPECT_EQ(executor.events_processed(), 2U);
    EXPECT_EQ(executor.stragglers(), 0U);
}

TEST(WindowedExecutor, SignalMessageDrawsTheSameFatesAsEmitMessage) {
    // signal_message() and emit_message() share one fault path: the same
    // fault draws drop, duplicate, corrupt and delay the same messages.
    fault::FaultPlan plan;
    plan.loss = 0.2;
    plan.duplication = 0.2;
    plan.corruption = 0.2;
    plan.straggler_fraction = 0.2;
    const fault::Injector injector(plan, 16, 100.0, Rng(25));
    struct Delivery {
        Time time;
        int payload;
        bool operator==(const Delivery& o) const {
            return time == o.time && payload == o.payload;
        }
    };
    const auto run = [&](bool signals) {
        WindowedOptions o = options(2, 1.0);
        o.injector = &injector;
        WindowedExecutor<int> executor(16, o, Rng(26));
        for (int i = 0; i < 64; ++i) executor.seed(0, 0.1 * i, i);
        std::vector<Delivery> delivered;
        const auto corrupt = [](Rng& /*fault_rng*/, int& msg) { msg += 1000; };
        const auto handler = [&](auto& ctx, Time t, int payload) {
            if (ctx.shard() == 1) {
                delivered.push_back(Delivery{t, payload});
                return;
            }
            if (signals) {
                ctx.signal_message(1, t, t + 0.3, -payload - 1, corrupt);
            } else {
                ctx.emit_message(1, t, t + 0.3, -payload - 1, corrupt);
            }
        };
        while (executor.run_window(handler)) {
        }
        return std::make_pair(delivered, executor.fault_counters());
    };
    const auto [queued, queued_faults] = run(false);
    const auto [signalled, signalled_faults] = run(true);
    EXPECT_EQ(signalled, queued);
    EXPECT_GT(queued_faults.lost, 0U);
    EXPECT_GT(queued_faults.duplicated, 0U);
    EXPECT_GT(queued_faults.corrupted, 0U);
    EXPECT_GT(queued_faults.delayed, 0U);
    EXPECT_EQ(signalled_faults.lost, queued_faults.lost);
    EXPECT_EQ(signalled_faults.duplicated, queued_faults.duplicated);
    EXPECT_EQ(signalled_faults.corrupted, queued_faults.corrupted);
    EXPECT_EQ(signalled_faults.delayed, queued_faults.delayed);
}

using WindowedExecutorDeathTest = ::testing::Test;

TEST(WindowedExecutorDeathTest, EmittingWhileRunningSignalsAborts) {
    // A signal's handler emits nothing (contract item 5): every emission
    // channel checks it.
    const auto run = [](auto emit_from_signal) {
        WindowedExecutor<int> executor(8, options(1, 1.0), Rng(27));
        executor.seed(0, 0.0, 1);
        const auto handler = [&](auto& ctx, Time t, int payload) {
            if (payload == 1) {
                ctx.signal(0, t + 0.5, -1);
            } else if (payload == -1) {
                emit_from_signal(ctx, t);
            }
        };
        while (executor.run_window(handler)) {
        }
    };
    EXPECT_DEATH(run([](auto& ctx, Time t) { ctx.emit(0, t, 2); }),
                 "PAPC_CHECK failed");
    EXPECT_DEATH(run([](auto& ctx, Time t) { ctx.signal(0, t, -2); }),
                 "PAPC_CHECK failed");
    EXPECT_DEATH(run([](auto& ctx, Time t) { ctx.emit_message(0, t, t, 2); }),
                 "PAPC_CHECK failed");
    EXPECT_DEATH(
        run([](auto& ctx, Time t) { ctx.signal_message(0, t, t, -2); }),
        "PAPC_CHECK failed");
}

// The §4.5 leader-load meter both event families feed from their signal
// lanes (sim/event_engine.hpp): buckets are the unit intervals [b, b + 1).
TEST(LeaderLoad, CountsSignalsAndPeaksPerUnitTimeBucket) {
    static_assert(alignof(LeaderLoad) == 64, "one cache line per leader");
    LeaderLoad load;
    EXPECT_EQ(load.signals, 0U);
    EXPECT_EQ(load.peak_load(), 0U);

    // Three signals in [0, 1); the one at t = 1 opens the next bucket.
    for (const double t : {0.0, 0.5, 0.999}) load.record(t);
    EXPECT_EQ(load.peak, 0U);  // no bucket closed yet
    EXPECT_EQ(load.peak_load(), 3U);
    load.record(1.0);
    EXPECT_EQ(load.signals, 4U);
    EXPECT_EQ(load.peak, 3U);
    EXPECT_EQ(load.count, 1U);
    EXPECT_EQ(load.peak_load(), 3U);

    // Five signals in [5, 6) after a gap: the still-open bucket carries the
    // peak until a later signal closes it.
    for (const double t : {5.0, 5.25, 5.5, 5.75, 5.999}) load.record(t);
    EXPECT_EQ(load.signals, 9U);
    EXPECT_EQ(load.peak, 3U);
    EXPECT_EQ(load.peak_load(), 5U);
    load.record(6.0);
    EXPECT_EQ(load.signals, 10U);
    EXPECT_EQ(load.peak, 5U);
    EXPECT_EQ(load.peak_load(), 5U);
}

}  // namespace
}  // namespace papc::sim
