/// \file thread_equivalence_test.cpp
/// The PR 5 determinism contract: sharded sync rounds are bit-identical
/// at every thread count. Each shard draws from Rng::substream(round,
/// shard) — a pure function of the run generator and the labels — so
/// neither the worker pool size, nor shard-to-worker assignment, nor
/// shard completion order can influence a trajectory. Pinned here three
/// ways:
///
///   1. full-state FNV hashes after a fixed number of rounds, threads
///      {1, 2, 8}, all five protocols;
///   2. api::run end-to-end: byte-comparable RunResults across thread
///      counts (steps, times, winner, recorded series);
///   3. api::run_sweep with a `threads` axis: two executions of the same
///      sweep emit identical JSON, and same-seed cells agree across
///      thread counts.
///
/// Pull voting is also pinned against a hand-driven batched replay of its
/// shard substreams, for a single-shard and a multi-shard population.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "opinion/assignment.hpp"
#include "support/json_writer.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"
#include "sync/engine.hpp"
#include "sync/round_kernel.hpp"

namespace papc::sync {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xFFU;
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t state_hash(const ColorVectorDynamics& dynamics, std::size_t n) {
    std::uint64_t hash = kFnvOffset;
    for (NodeId v = 0; v < n; ++v) hash = fnv1a(hash, dynamics.color(v));
    return hash;
}

std::uint64_t state_hash(const Algorithm1& alg, std::size_t n) {
    std::uint64_t hash = kFnvOffset;
    for (NodeId v = 0; v < n; ++v) {
        hash = fnv1a(hash, (static_cast<std::uint64_t>(alg.generation(v)) << 32U) |
                               alg.color(v));
    }
    return hash;
}

// Spans three shards with a partial tail so shard boundaries, the worker
// pool, and the tail path are all exercised.
constexpr std::size_t kN = 2 * 4096 + 1234;
constexpr int kRounds = 12;

Assignment equivalence_assignment(std::uint32_t k) {
    Rng workload_rng(771);
    return make_biased_plurality(kN, k, 1.2, workload_rng);
}

template <typename MakeDynamics>
std::vector<std::uint64_t> hashes_per_thread_count(MakeDynamics&& make,
                                                   std::uint64_t seed) {
    std::vector<std::uint64_t> hashes;
    for (const std::size_t threads : {1U, 2U, 8U}) {
        auto dynamics = make(threads);
        Rng rng(seed);
        for (int round = 0; round < kRounds; ++round) dynamics->step(rng);
        hashes.push_back(state_hash(*dynamics, kN));
    }
    return hashes;
}

template <typename Hashes>
void expect_all_equal(const Hashes& hashes) {
    for (std::size_t i = 1; i < hashes.size(); ++i) {
        EXPECT_EQ(hashes[i], hashes[0]) << "thread-count variant " << i;
    }
}

TEST(ThreadEquivalence, Algorithm1) {
    const Assignment a = equivalence_assignment(8);
    ScheduleParams params;
    params.n = kN;
    params.k = 8;
    params.alpha = 1.2;
    expect_all_equal(hashes_per_thread_count(
        [&](std::size_t threads) {
            return std::make_unique<Algorithm1>(a, Schedule(params), threads);
        },
        3031));
}

TEST(ThreadEquivalence, PullVoting) {
    const Assignment a = equivalence_assignment(8);
    expect_all_equal(hashes_per_thread_count(
        [&](std::size_t threads) {
            return std::make_unique<PullVoting>(a, threads);
        },
        3032));
}

TEST(ThreadEquivalence, TwoChoices) {
    const Assignment a = equivalence_assignment(8);
    expect_all_equal(hashes_per_thread_count(
        [&](std::size_t threads) {
            return std::make_unique<TwoChoices>(a, threads);
        },
        3033));
}

TEST(ThreadEquivalence, ThreeMajority) {
    const Assignment a = equivalence_assignment(8);
    expect_all_equal(hashes_per_thread_count(
        [&](std::size_t threads) {
            return std::make_unique<ThreeMajority>(a, threads);
        },
        3034));
}

TEST(ThreadEquivalence, UndecidedState) {
    const Assignment a = equivalence_assignment(3);
    expect_all_equal(hashes_per_thread_count(
        [&](std::size_t threads) {
            return std::make_unique<UndecidedState>(a, threads);
        },
        3035));
}

TEST(ThreadEquivalence, PullVotingMatchesBatchedReplay) {
    // The production kernel must realize the per-shard substream schedule
    // exactly: a run matches a hand-driven batched replay of the same
    // draws, below one round block (one shard) and above it (two).
    for (const std::size_t n :
         {kRoundBlock - 1000,    // one shard
          kRoundBlock + 1000}) { // two shards
        Rng workload_rng(771);
        const Assignment a = make_biased_plurality(n, 4, 1.2, workload_rng);
        PullVoting production(a);
        Rng run_rng(888);
        for (int round = 0; round < kRounds; ++round) production.step(run_rng);

        // Reference: replay the same schedule through explicit batched
        // draws, mirroring the driver's one-draw-per-round parent nonce.
        std::vector<Opinion> colors = a.opinions;
        std::vector<Opinion> next(colors.size());
        Rng parent(888);
        for (std::uint64_t round = 1; round <= kRounds; ++round) {
            (void)parent.next_u64();
            const Rng base = parent;
            for (std::size_t base_node = 0, shard = 0;
                 base_node < colors.size(); base_node += 4096, ++shard) {
                const std::size_t count = std::min<std::size_t>(
                    4096, colors.size() - base_node);
                Rng sub = base.substream(round, shard);
                std::vector<std::uint64_t> idx(count);
                sub.uniform_indices(colors.size(), idx.data(), count);
                for (std::size_t i = 0; i < count; ++i) {
                    next[base_node + i] = colors[idx[i]];
                }
            }
            colors.swap(next);
        }

        for (NodeId v = 0; v < colors.size(); ++v) {
            ASSERT_EQ(production.color(v), colors[v])
                << "n " << n << " node " << v;
        }
    }
}

// ------------------------------------------------------------- api layer

api::Scenario sync_scenario(const char* protocol, std::size_t threads) {
    api::Scenario s;
    s.protocol = protocol;
    s.n = 6000;
    s.k = 4;
    s.alpha = 1.5;
    s.threads = threads;
    return s;
}

TEST(ThreadEquivalence, ApiRunResultsByteIdentical) {
    for (const char* protocol :
         {"sync", "two-choices", "3-majority", "undecided", "pull"}) {
        const api::ScenarioResult one = api::run(sync_scenario(protocol, 1), 77);
        for (const std::size_t threads : {2U, 8U}) {
            const api::ScenarioResult many =
                api::run(sync_scenario(protocol, threads), 77);
            EXPECT_EQ(many.run.steps, one.run.steps) << protocol;
            EXPECT_EQ(many.run.converged, one.run.converged) << protocol;
            EXPECT_EQ(many.run.winner, one.run.winner) << protocol;
            EXPECT_DOUBLE_EQ(many.run.end_time, one.run.end_time) << protocol;
            EXPECT_DOUBLE_EQ(many.run.epsilon_time, one.run.epsilon_time)
                << protocol;
            EXPECT_DOUBLE_EQ(many.run.consensus_time, one.run.consensus_time)
                << protocol;
            ASSERT_EQ(many.run.plurality_fraction.size(),
                      one.run.plurality_fraction.size())
                << protocol;
            for (std::size_t i = 0; i < one.run.plurality_fraction.size();
                 ++i) {
                ASSERT_DOUBLE_EQ(many.run.plurality_fraction[i].value,
                                 one.run.plurality_fraction[i].value)
                    << protocol << " point " << i;
            }
        }
    }
}

TEST(ThreadEquivalence, ThreadsSweepAxisIsDeterministic) {
    api::Sweep sweep;
    sweep.base = sync_scenario("two-choices", 1);
    sweep.base.n = 3000;
    sweep.base.record_series = false;
    sweep.axes = api::parse_sweep_spec("threads=1,2,8;k=2,4").axes;
    sweep.reps = 2;
    sweep.base_seed = 5;

    const auto to_json = [](const api::SweepResult& result) {
        JsonWriter writer;
        api::write_json(writer, result);
        return writer.str();
    };
    const std::string first = to_json(api::run_sweep(sweep));
    EXPECT_EQ(to_json(api::run_sweep(sweep)), first);
    // And with the per-cell trial harness itself multithreaded.
    sweep.threads = 4;
    EXPECT_EQ(to_json(api::run_sweep(sweep)), first);
}

}  // namespace
}  // namespace papc::sync
