#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "async/sequential_simulation.hpp"
#include "async/simulation.hpp"
#include "async/validated_simulation.hpp"
#include "cluster/simulation.hpp"
#include "core/run_result.hpp"
#include "sim/event_engine.hpp"

namespace papc {
namespace {

// The windowed executor's headline contract: a fixed-seed run is a pure
// function of (seed, shard count, window width) — NEVER the thread count.
// These tests run every event-driven engine family at threads {1, 2, 8}
// and require bit-identical results (core::serialize round-trips doubles
// as hex floats, so string equality is bit equality).

constexpr std::size_t kThreadSweep[] = {1, 2, 8};

/// Bit-exact double rendering (hex float) for fingerprints.
std::string hex(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    return buffer;
}

async::AsyncConfig async_config(std::size_t threads) {
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 400.0;
    c.threads = threads;
    return c;
}

/// Engine-specific extras that serialize() does not cover, folded into one
/// comparable string alongside the exact base-result serialization.
std::string fingerprint(const async::AsyncResult& r) {
    std::string s = core::serialize(r);
    s += " ticks " + std::to_string(r.ticks);
    s += " good " + std::to_string(r.good_ticks);
    s += " exch " + std::to_string(r.exchanges);
    s += " two " + std::to_string(r.two_choices_count);
    s += " prop " + std::to_string(r.propagation_count);
    s += " refresh " + std::to_string(r.refresh_count);
    s += " sig " + std::to_string(r.signals_delivered);
    s += " chan " + std::to_string(r.channels_opened);
    s += " ev " + std::to_string(r.events_processed);
    s += " win " + std::to_string(r.windows);
    s += " strag " + std::to_string(r.window_stragglers);
    s += " gen " + std::to_string(r.final_top_generation);
    s += " trace " + std::to_string(r.leader_trace.size());
    for (const auto& t : r.leader_trace) {
        s += " " + std::to_string(t.gen) + "@" + hex(t.time);
    }
    return s;
}

std::string fingerprint(const cluster::MultiLeaderResult& r) {
    std::string s = core::serialize(r);
    s += " ticks " + std::to_string(r.ticks);
    s += " exch " + std::to_string(r.exchanges);
    s += " two " + std::to_string(r.two_choices_count);
    s += " prop " + std::to_string(r.propagation_count);
    s += " adopt " + std::to_string(r.finished_adoptions);
    s += " sig " + std::to_string(r.signals_delivered);
    s += " ev " + std::to_string(r.events_processed);
    s += " win " + std::to_string(r.windows);
    s += " strag " + std::to_string(r.window_stragglers);
    s += " active " + std::to_string(r.clustering.num_active);
    for (const std::int32_t c : r.clustering.cluster_of) {
        s += "," + std::to_string(c);
    }
    return s;
}

TEST(WindowedDeterminism, AsyncSingleLeaderThreadSweep) {
    const std::string baseline = fingerprint(
        async::run_single_leader(600, 3, 2.0, async_config(1), 97));
    for (const std::size_t threads : kThreadSweep) {
        EXPECT_EQ(baseline,
                  fingerprint(async::run_single_leader(
                      600, 3, 2.0, async_config(threads), 97)))
            << "threads=" << threads;
    }
}

TEST(WindowedDeterminism, ValidatedSingleLeaderThreadSweep) {
    const auto run = [](std::size_t threads) {
        const async::ValidatedResult r = async::run_validated_single_leader(
            500, 3, 2.0, async_config(threads), 2.0, 31);
        return fingerprint(r.base) + " commits " + std::to_string(r.commits) +
               " aborts " + std::to_string(r.aborts);
    };
    const std::string baseline = run(1);
    for (const std::size_t threads : kThreadSweep) {
        EXPECT_EQ(baseline, run(threads)) << "threads=" << threads;
    }
}

TEST(WindowedDeterminism, SequentialSingleLeaderThreadSweep) {
    // The sequential engine is single-shard by construction; a threads
    // request must be a no-op on results, not an error.
    const auto run = [](std::size_t threads) {
        async::AsyncConfig c = async_config(threads);
        c.max_time = 150.0;
        return fingerprint(
            async::run_sequential_single_leader(500, 3, 2.0, c, 53));
    };
    const std::string baseline = run(1);
    for (const std::size_t threads : kThreadSweep) {
        EXPECT_EQ(baseline, run(threads)) << "threads=" << threads;
    }
}

TEST(WindowedDeterminism, MultiLeaderThreadSweep) {
    const auto run = [](std::size_t threads) {
        cluster::ClusterConfig c;
        c.size_floor = 16;
        c.leader_probability = 1.0 / 32.0;
        c.alpha_hint = 2.0;
        c.max_time = 800.0;
        c.threads = threads;
        return fingerprint(cluster::run_multi_leader(1024, 2, 2.0, c, 71));
    };
    const std::string baseline = run(1);
    for (const std::size_t threads : kThreadSweep) {
        EXPECT_EQ(baseline, run(threads)) << "threads=" << threads;
    }
}

/// Runs `base` and knob variants of it through `run` and pins how the
/// shared sim::EventEngine maps the executor knobs: the window is part of
/// the trajectory, threads and the queue kind are not.
template <typename Config, typename Run>
void expect_executor_knobs_reach(const Config& base, const Run& run) {
    const auto variant = [&](auto set) {
        Config config = base;
        set(static_cast<sim::EventConfig&>(config));
        return run(config);
    };
    const std::string reference = fingerprint(run(base));
    const auto wide = variant([](sim::EventConfig& c) { c.window = 0.5; });
    const auto narrow = variant([](sim::EventConfig& c) { c.window = 0.125; });
    EXPECT_NE(reference, fingerprint(wide));
    EXPECT_GT(narrow.windows, wide.windows);
    EXPECT_EQ(reference, fingerprint(variant([](sim::EventConfig& c) {
                  c.threads = 4;
                  c.queue_kind = sim::QueueKind::kLadder;
              })));
}

TEST(WindowedDeterminism, ExecutorKnobsReachTheSingleLeaderEngine) {
    expect_executor_knobs_reach(async_config(1), [](const async::AsyncConfig& c) {
        return async::run_single_leader(600, 3, 2.0, c, 97);
    });
}

TEST(WindowedDeterminism, ExecutorKnobsReachTheMultiLeaderEngine) {
    cluster::ClusterConfig base;
    base.size_floor = 16;
    base.leader_probability = 1.0 / 32.0;
    base.alpha_hint = 2.0;
    base.max_time = 800.0;
    expect_executor_knobs_reach(base, [](const cluster::ClusterConfig& c) {
        return cluster::run_multi_leader(1024, 2, 2.0, c, 71);
    });
}

TEST(WindowedDeterminism, WindowWidthIsPartOfTheTrajectory) {
    // The flip side of the contract: unlike threads, the window width IS
    // allowed to change the trajectory (different snapshot boundaries).
    // Pin that both widths still converge to the same winner — the
    // physics is invariant even when the tape is not.
    async::AsyncConfig narrow = async_config(1);
    narrow.window = 0.125;
    async::AsyncConfig wide = async_config(1);
    wide.window = 0.5;
    const async::AsyncResult a =
        async::run_single_leader(600, 3, 2.0, narrow, 97);
    const async::AsyncResult b =
        async::run_single_leader(600, 3, 2.0, wide, 97);
    EXPECT_TRUE(a.converged);
    EXPECT_TRUE(b.converged);
    EXPECT_EQ(a.winner, b.winner);
    EXPECT_GE(a.windows, b.windows);  // narrower windows => more of them
}

}  // namespace
}  // namespace papc
