/// \file micro_engine.cpp
/// Micro-benchmarks (google-benchmark) for the substrate hot paths: RNG,
/// event queue, census bookkeeping, one synchronous round, and one
/// simulated asynchronous time step.

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <type_traits>

#include "api/registry.hpp"
#include "api/sweep.hpp"
#include "async/simulation.hpp"
#include "fault/injector.hpp"
#include "opinion/assignment.hpp"
#include "opinion/census.hpp"
#include "opinion/packed_array.hpp"
#include "sim/scheduler_queue.hpp"
#include "sim/windowed_executor.hpp"
#include "support/random.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"
#include "sync/engine.hpp"
#include "sync/round_kernel.hpp"
#include "sync/simd_gather.hpp"

namespace {

using namespace papc;

/// Process peak RSS in MiB (ru_maxrss is KiB on Linux). A high-water mark:
/// monotone across the whole binary run, so it only bounds a single row
/// when that row is the biggest allocation so far — which holds for the
/// n = 2^22 sync rows this counter exists for.
double peak_rss_mib() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void BM_RngNextU64(benchmark::State& state) {
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.next_u64());
    }
}
BENCHMARK(BM_RngNextU64);

void BM_RngExponential(benchmark::State& state) {
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.exponential(1.0));
    }
}
BENCHMARK(BM_RngExponential);

void BM_RngUniformIndex(benchmark::State& state) {
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.uniform_index(1000003));
    }
}
BENCHMARK(BM_RngUniformIndex);

// One kernel block of batched Lemire draws (the sync kernels' index-batch
// phase); items/sec is indices/sec, directly comparable to
// BM_RngUniformIndex above.
void BM_RngUniformIndicesBlock(benchmark::State& state) {
    Rng rng(3);
    std::vector<std::uint64_t> block(sync::kRoundBlock);
    for (auto _ : state) {
        rng.uniform_indices(1000003, block.data(), block.size());
        benchmark::DoNotOptimize(block.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_RngUniformIndicesBlock);

// Hold model: `queue_size` pending events, each iteration pops the
// earliest and pushes a replacement one uniform draw into the future. The
// {heap, calendar} x {2^10 .. 2^22} matrix exposes how each scheduler
// scales with the pending-event population.
void queue_push_pop(benchmark::State& state, sim::QueueKind kind) {
    const auto queue_size = static_cast<std::size_t>(state.range(0));
    Rng rng(4);
    auto queue = sim::make_scheduler_queue<std::uint64_t>(kind, queue_size);
    for (std::size_t i = 0; i < queue_size; ++i) {
        queue->push(rng.uniform(), i);
    }
    {
        // The first pop pays each implementation's one-time structuring of
        // the seeded population (ladder rung spawn, calendar width
        // estimation). Pay it in setup: at 2^22 pending it is large enough
        // to wreck the iteration estimate, and the row is meant to price
        // the steady-state hold cycle.
        auto e = queue->pop();
        queue->push(e.time, e.seq);
    }
    double t = 1.0;
    for (auto _ : state) {
        auto e = queue->pop();
        benchmark::DoNotOptimize(e);
        queue->push(t + rng.uniform(), e.seq);
        t += 1e-6;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_EventQueuePushPop(benchmark::State& state) {  // legacy heap name
    queue_push_pop(state, sim::QueueKind::kBinaryHeap);
}
void BM_CalendarQueuePushPop(benchmark::State& state) {
    queue_push_pop(state, sim::QueueKind::kCalendar);
}
void BM_LadderQueuePushPop(benchmark::State& state) {
    queue_push_pop(state, sim::QueueKind::kLadder);
}
BENCHMARK(BM_EventQueuePushPop)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Arg(1 << 22);
BENCHMARK(BM_CalendarQueuePushPop)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Arg(1 << 22);
BENCHMARK(BM_LadderQueuePushPop)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Arg(1 << 22);

// The packed-lane gather primitive in isolation: one kRoundBlock of
// random indices decoded from 4-bit lanes (k = 8) per iteration, through
// whatever dispatch path support::active_simd() selects. items/sec is
// lanes/sec; the CI Release smoke pins this row to catch dispatch or
// codegen regressions in the strip kernel itself.
void BM_PackedOpinionGather(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    PackedOpinionArray array(n, 8);
    for (std::size_t i = 0; i < n; ++i) {
        array.set(i, static_cast<Opinion>(rng.uniform_index(8)));
    }
    std::vector<std::uint64_t> idx(sync::kRoundBlock);
    std::vector<Opinion> out(sync::kRoundBlock);
    rng.uniform_indices(n, idx.data(), idx.size());
    for (auto _ : state) {
        sync::simd::gather_packed(array.words(), idx.data(), idx.size(),
                                  array.log2_lane_bits(), out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(idx.size()));
    state.counters["bytes_per_node"] =
        static_cast<double>(array.memory_bytes()) / static_cast<double>(n);
}
BENCHMARK(BM_PackedOpinionGather)->Arg(1 << 20)->Arg(1 << 22);

void BM_CensusTransition(benchmark::State& state) {
    GenerationCensus census(1 << 16, 8);
    Rng rng(5);
    std::vector<Opinion> opinions(1 << 16);
    for (auto& op : opinions) op = static_cast<Opinion>(rng.uniform_index(8));
    census.reset(opinions);
    Generation g = 0;
    for (auto _ : state) {
        const auto from = static_cast<Opinion>(rng.uniform_index(8));
        // Move one node up a generation (wrap to keep counts valid).
        if (census.count(g, from) == 0) {
            g = 0;
            continue;
        }
        census.transition(g, from, g + 1, from);
        if (census.generation_size(g) == 0) ++g;
        if (g > 30) {
            census.reset(opinions);
            g = 0;
        }
    }
}
BENCHMARK(BM_CensusTransition);

// Synchronous round matrix: one round per iteration across the whole
// family, n ∈ {2^14 .. 2^22} (Algorithm 1 additionally with a k = 64
// column). items/sec is node-updates/sec; iterations/sec is rounds/sec —
// the headline number the batched SoA kernels are measured on
// (BENCH_pr4.json before/after).
template <typename Dynamics>
void sync_round_matrix(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::uint32_t>(state.range(1));
    Rng rng(6);
    const Assignment a = make_biased_plurality(n, k, 1.5, rng);
    auto alg = [&] {
        if constexpr (std::is_same_v<Dynamics, sync::Algorithm1>) {
            sync::ScheduleParams sp;
            sp.n = n;
            sp.k = k;
            sp.alpha = 1.5;
            return sync::Algorithm1(a, sync::Schedule(sp));
        } else {
            return Dynamics(a);
        }
    }();
    for (auto _ : state) {
        alg.step(rng);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    // Memory anatomy (PR 7): steady-state engine bytes per node and the
    // process high-water mark. Diff across recordings with
    //   scripts/bench-diff.py BEFORE.json AFTER.json --field bytes_per_node
    state.counters["bytes_per_node"] =
        static_cast<double>(alg.memory_bytes()) / static_cast<double>(n);
    state.counters["peak_rss_mib"] = peak_rss_mib();
}

void BM_SyncRound_Algorithm1(benchmark::State& state) {
    sync_round_matrix<sync::Algorithm1>(state);
}
void BM_SyncRound_PullVoting(benchmark::State& state) {
    sync_round_matrix<sync::PullVoting>(state);
}
void BM_SyncRound_TwoChoices(benchmark::State& state) {
    sync_round_matrix<sync::TwoChoices>(state);
}
void BM_SyncRound_ThreeMajority(benchmark::State& state) {
    sync_round_matrix<sync::ThreeMajority>(state);
}
void BM_SyncRound_UndecidedState(benchmark::State& state) {
    sync_round_matrix<sync::UndecidedState>(state);
}

void sync_matrix_args(benchmark::internal::Benchmark* bench) {
    for (int shift = 14; shift <= 22; shift += 2) {
        bench->Args({1 << shift, 8});
    }
}
BENCHMARK(BM_SyncRound_Algorithm1)->Apply(sync_matrix_args)->Apply([](auto* b) {
    for (int shift = 14; shift <= 22; shift += 2) b->Args({1 << shift, 64});
});
BENCHMARK(BM_SyncRound_PullVoting)->Apply(sync_matrix_args);
BENCHMARK(BM_SyncRound_TwoChoices)->Apply(sync_matrix_args);
BENCHMARK(BM_SyncRound_ThreeMajority)->Apply(sync_matrix_args);
BENCHMARK(BM_SyncRound_UndecidedState)->Apply(sync_matrix_args);

// Sharded round matrix (PR 5): the same per-round kernels driven through
// the worker pool, args {n, k, threads}. iterations/sec is rounds/sec; the
// acceptance comparison is threads=4 vs threads=1 from ONE recorded run
// (same binary), diffed with
//   scripts/bench-diff.py BENCH.json BENCH.json
//       --suffix-before /threads:1/real_time --suffix-after /threads:4/real_time
template <typename Dynamics>
void sync_round_sharded(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::uint32_t>(state.range(1));
    const auto threads = static_cast<std::size_t>(state.range(2));
    Rng rng(6);
    const Assignment a = make_biased_plurality(n, k, 1.5, rng);
    auto alg = [&] {
        if constexpr (std::is_same_v<Dynamics, sync::Algorithm1>) {
            sync::ScheduleParams sp;
            sp.n = n;
            sp.k = k;
            sp.alpha = 1.5;
            return sync::Algorithm1(a, sync::Schedule(sp), threads);
        } else {
            return Dynamics(a, threads);
        }
    }();
    for (auto _ : state) {
        alg.step(rng);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

void BM_SyncRoundSharded_Algorithm1(benchmark::State& state) {
    sync_round_sharded<sync::Algorithm1>(state);
}
void BM_SyncRoundSharded_PullVoting(benchmark::State& state) {
    sync_round_sharded<sync::PullVoting>(state);
}
void BM_SyncRoundSharded_TwoChoices(benchmark::State& state) {
    sync_round_sharded<sync::TwoChoices>(state);
}
void BM_SyncRoundSharded_ThreeMajority(benchmark::State& state) {
    sync_round_sharded<sync::ThreeMajority>(state);
}
void BM_SyncRoundSharded_UndecidedState(benchmark::State& state) {
    sync_round_sharded<sync::UndecidedState>(state);
}

void sharded_matrix_args(benchmark::internal::Benchmark* bench) {
    bench->ArgNames({"n", "k", "threads"});
    // Wall-clock rates: the default CPU-time rate only meters the calling
    // thread, which under-counts pooled work and over-reports items/s.
    bench->UseRealTime();
    for (const int shift : {20, 22}) {
        for (const int threads : {1, 2, 4}) {
            bench->Args({1 << shift, 8, threads});
        }
    }
}
BENCHMARK(BM_SyncRoundSharded_Algorithm1)->Apply(sharded_matrix_args);
BENCHMARK(BM_SyncRoundSharded_PullVoting)->Apply(sharded_matrix_args);
BENCHMARK(BM_SyncRoundSharded_TwoChoices)->Apply(sharded_matrix_args);
BENCHMARK(BM_SyncRoundSharded_ThreeMajority)->Apply(sharded_matrix_args);
BENCHMARK(BM_SyncRoundSharded_UndecidedState)->Apply(sharded_matrix_args);

// End-to-end through api::run at n = 2^20 (the acceptance measurement for
// the kernel refactor): one full fixed-seed convergence run per iteration;
// items/sec reports rounds/sec. The weak alpha makes the run long enough
// that the (unchanged) workload construction amortizes and rounds/sec
// reflects the steady-state kernel rate.
void api_sync_full_run(benchmark::State& state, const char* protocol) {
    api::Scenario scenario;
    scenario.protocol = protocol;
    scenario.n = 1 << 20;
    scenario.k = 8;
    scenario.alpha = 1.5;
    scenario.record_series = false;
    std::uint64_t seed = 10;
    std::int64_t rounds = 0;
    for (auto _ : state) {
        const api::ScenarioResult r = api::run(scenario, seed++);
        benchmark::DoNotOptimize(r.run.converged);
        rounds += static_cast<std::int64_t>(r.run.steps);
    }
    state.SetItemsProcessed(rounds);
}

void BM_ApiRunSyncLarge(benchmark::State& state) {
    api_sync_full_run(state, "sync");
}
void BM_ApiRunTwoChoicesLarge(benchmark::State& state) {
    api_sync_full_run(state, "two-choices");
}
BENCHMARK(BM_ApiRunSyncLarge)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ApiRunTwoChoicesLarge)->Unit(benchmark::kMillisecond);

void async_full_run_small(benchmark::State& state, sim::QueueKind kind) {
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 400.0;
    c.record_series = false;
    c.queue_kind = kind;
    std::uint64_t seed = 8;
    std::int64_t events = 0;
    for (auto _ : state) {
        const async::AsyncResult r =
            async::run_single_leader(512, 2, 2.0, c, seed++);
        benchmark::DoNotOptimize(r.consensus_time);
        // items/sec reports async-engine events/sec. (RunResult.steps
        // counts executor windows since the windowed transition; the
        // event count moved to AsyncResult.events_processed.)
        events += static_cast<std::int64_t>(r.events_processed);
    }
    state.SetItemsProcessed(events);
}

void BM_AsyncFullRunSmall(benchmark::State& state) {
    async_full_run_small(state, sim::QueueKind::kBinaryHeap);
}
void BM_AsyncFullRunSmallCalendar(benchmark::State& state) {
    async_full_run_small(state, sim::QueueKind::kCalendar);
}
void BM_AsyncFullRunSmallLadder(benchmark::State& state) {
    async_full_run_small(state, sim::QueueKind::kLadder);
}
BENCHMARK(BM_AsyncFullRunSmall)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AsyncFullRunSmallCalendar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AsyncFullRunSmallLadder)->Unit(benchmark::kMillisecond);

// Windowed-executor rows (PR 6). The single-queue hold model above
// (BM_EventQueuePushPop) prices one pop+push; BM_WindowedExecutorHold
// prices the same event churn through the sharded executor — per-window
// substream derivation, the shard loop / pool dispatch, and the outbox
// barrier included. Both report events/sec, so
//   BM_WindowedExecutorHold/threads:1  vs  BM_SingleQueueHold
// is the executor's single-thread overhead (acceptance: within 0.9x) and
//   /threads:4 vs /threads:1
// is the parallel speedup (needs real cores; see
// scripts/bench-multicore.sh).
constexpr std::size_t kHoldNodes = 1 << 12;
constexpr std::size_t kHoldPending = 1 << 14;

void BM_SingleQueueHold(benchmark::State& state) {
    Rng rng(14);
    auto queue = sim::make_scheduler_queue<std::uint32_t>(
        sim::QueueKind::kBinaryHeap, kHoldPending);
    for (std::size_t i = 0; i < kHoldPending; ++i) {
        queue->push(rng.exponential(1.0),
                    static_cast<std::uint32_t>(i % kHoldNodes));
    }
    for (auto _ : state) {
        auto e = queue->pop();
        const auto target =
            static_cast<std::uint32_t>(rng.uniform_index(kHoldNodes));
        queue->push(e.time + rng.exponential(1.0), target);
        benchmark::DoNotOptimize(target);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleQueueHold);

void BM_WindowedExecutorHold(benchmark::State& state) {
    const auto threads = static_cast<std::size_t>(state.range(0));
    sim::WindowedOptions options;
    options.threads = threads;
    options.reserve_hint = kHoldPending;
    sim::WindowedExecutor<std::uint32_t> executor(kHoldNodes, options,
                                                  Rng(15));
    {
        Rng seed_rng(16);
        for (std::size_t i = 0; i < kHoldPending; ++i) {
            const auto node = static_cast<std::uint32_t>(i % kHoldNodes);
            executor.seed(executor.shard_of(node),
                          seed_rng.exponential(1.0), node);
        }
    }
    const auto handler = [&](auto& ctx, sim::Time t, std::uint32_t /*node*/) {
        const auto target =
            static_cast<std::uint32_t>(ctx.rng().uniform_index(kHoldNodes));
        ctx.emit(executor.shard_of(target), t + ctx.rng().exponential(1.0),
                 target);
    };
    std::uint64_t events = 0;
    for (auto _ : state) {
        executor.run_window(handler);  // one window per iteration
    }
    events = executor.events_processed();
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_WindowedExecutorHold)
    ->ArgName("threads")
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

// The hold model with one emission in four sent as a cross-shard signal
// (the leader-signal pattern of the event engines): every hold event
// re-emits itself, and every third one also signals the next shard. The
// signal handler only counts, as a leader's does. Prices the signal lane
// (outbox, barrier append, per-window sort) against the queue path of
// BM_WindowedExecutorHold.
void BM_WindowedExecutorSignals(benchmark::State& state) {
    constexpr std::uint32_t kSignalBit = 1U << 31;
    const auto threads = static_cast<std::size_t>(state.range(0));
    sim::WindowedOptions options;
    options.threads = threads;
    options.reserve_hint = kHoldPending;
    sim::WindowedExecutor<std::uint32_t> executor(kHoldNodes, options,
                                                  Rng(15));
    {
        Rng seed_rng(16);
        for (std::size_t i = 0; i < kHoldPending; ++i) {
            const auto node = static_cast<std::uint32_t>(i % kHoldNodes);
            executor.seed(executor.shard_of(node),
                          seed_rng.exponential(1.0), node);
        }
    }
    std::vector<std::uint64_t> signals(executor.num_shards(), 0);
    const auto handler = [&](auto& ctx, sim::Time t, std::uint32_t payload) {
        if ((payload & kSignalBit) != 0) {
            ++signals[ctx.shard()];
            return;
        }
        const auto target =
            static_cast<std::uint32_t>(ctx.rng().uniform_index(kHoldNodes));
        ctx.emit(executor.shard_of(target), t + ctx.rng().exponential(1.0),
                 target);
        if (target % 3 == 0) {
            ctx.signal((ctx.shard() + 1) % executor.num_shards(),
                       t + ctx.rng().exponential(1.0), target | kSignalBit);
        }
    };
    for (auto _ : state) {
        executor.run_window(handler);
    }
    benchmark::DoNotOptimize(signals.data());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(executor.events_processed()));
}
BENCHMARK(BM_WindowedExecutorSignals)
    ->ArgName("threads")
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2);

// Fault-layer pricing (PR 9), args {mode}: 0 = no injector (the PR 8
// baseline path), 1 = a zero-rate plan attached (prices the fast-path
// branch the fault layer adds — acceptance: within 2% of mode 0),
// 2 = faults actually firing (the honest cost of a degraded run, for
// context, not an acceptance gate). Diff modes from ONE recording with
//   scripts/bench-diff.py BENCH.json BENCH.json
//       --suffix-before /mode:0 --suffix-after /mode:1

// One 3-majority round per iteration at n = 2^20; mode 2 lights crash +
// byzantine-adaptive, the channels the round kernels consume.
void BM_FaultedRound(benchmark::State& state) {
    const auto mode = static_cast<int>(state.range(0));
    constexpr std::size_t n = 1 << 20;
    Rng rng(6);
    const Assignment a = make_biased_plurality(n, 8, 1.5, rng);
    sync::ThreeMajority alg(a);
    fault::FaultPlan plan;
    if (mode == 2) {
        plan.crash_rate = 0.0001;
        plan.recover_rate = 0.01;
        plan.byzantine_fraction = 0.05;
        plan.byzantine_policy = fault::ByzantinePolicy::kAdaptive;
    }
    // Horizon bounds the per-node crash timelines (round-count axis).
    fault::Injector injector(plan, n, 1e4, rng);
    if (mode > 0) alg.set_fault_injector(&injector);
    for (auto _ : state) {
        alg.step(rng);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FaultedRound)->ArgName("mode")->Arg(0)->Arg(1)->Arg(2);

// The executor hold loop with every emission routed via emit_message();
// mode 2 lights corruption + stragglers — the channels that preserve the
// live-event count. (Loss/duplication would drift the closed hold loop's
// population toward empty windows, timing drainage instead of churn.)
void BM_FaultedWindow(benchmark::State& state) {
    const auto mode = static_cast<int>(state.range(0));
    fault::FaultPlan plan;
    if (mode == 2) {
        plan.corruption = 0.05;
        plan.straggler_fraction = 0.05;
        plan.straggler_scale = 2.0;
    }
    const fault::Injector injector(plan, kHoldNodes, 1e9, Rng(15));
    sim::WindowedOptions options;
    options.threads = 1;
    options.reserve_hint = kHoldPending;
    if (mode > 0) options.injector = &injector;
    sim::WindowedExecutor<std::uint32_t> executor(kHoldNodes, options,
                                                  Rng(15));
    {
        Rng seed_rng(16);
        for (std::size_t i = 0; i < kHoldPending; ++i) {
            const auto node = static_cast<std::uint32_t>(i % kHoldNodes);
            executor.seed(executor.shard_of(node),
                          seed_rng.exponential(1.0), node);
        }
    }
    const auto handler = [&](auto& ctx, sim::Time t, std::uint32_t /*node*/) {
        const auto target =
            static_cast<std::uint32_t>(ctx.rng().uniform_index(kHoldNodes));
        const sim::Time arrive = t + ctx.rng().exponential(1.0);
        ctx.emit_message(executor.shard_of(target), t, arrive, target);
    };
    for (auto _ : state) {
        executor.run_window(handler);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(executor.events_processed()));
}
BENCHMARK(BM_FaultedWindow)->ArgName("mode")->Arg(0)->Arg(1)->Arg(2);

// Full windowed async runs across the thread knob: the end-to-end view of
// the same comparison (protocol work included, not just executor churn).
void BM_AsyncFullRunThreaded(benchmark::State& state) {
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 400.0;
    c.record_series = false;
    c.threads = static_cast<std::size_t>(state.range(0));
    std::uint64_t seed = 8;
    std::int64_t events = 0;
    for (auto _ : state) {
        const async::AsyncResult r =
            async::run_single_leader(4096, 2, 2.0, c, seed++);
        benchmark::DoNotOptimize(r.consensus_time);
        events += static_cast<std::int64_t>(r.events_processed);
    }
    state.SetItemsProcessed(events);
}
BENCHMARK(BM_AsyncFullRunThreaded)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

// Dispatch overhead of the declarative api layer: the same tiny
// synchronous run executed (a) directly against the engine and (b) through
// api::run's registry lookup + scenario plumbing, and (c) through a full
// api::run_sweep cell. The deltas are what a sweep pays per cell on top of
// the raw engine — they should stay noise-level next to any real run.

constexpr std::size_t kDispatchN = 128;

void BM_DirectEngineRunSmall(benchmark::State& state) {
    std::uint64_t seed = 9;
    for (auto _ : state) {
        // Mirrors the registry's sync-family path exactly (same seed
        // derivation, workload and options), minus the api layer.
        Rng rng(seed);
        Rng workload_rng(derive_seed(seed, 1));
        const Assignment a =
            make_biased_plurality(kDispatchN, 2, 3.0, workload_rng);
        sync::TwoChoices dynamics(a);
        sync::RunOptions options;
        options.record_every = 0;
        const sync::SyncResult r = run_to_consensus(dynamics, rng, options);
        benchmark::DoNotOptimize(r.steps);
        ++seed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectEngineRunSmall);

void BM_ApiRunDispatchSmall(benchmark::State& state) {
    api::Scenario scenario;
    scenario.protocol = "two-choices";
    scenario.n = kDispatchN;
    scenario.k = 2;
    scenario.alpha = 3.0;
    scenario.record_series = false;
    std::uint64_t seed = 9;
    for (auto _ : state) {
        const api::ScenarioResult r = api::run(scenario, seed++);
        benchmark::DoNotOptimize(r.run.steps);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ApiRunDispatchSmall);

void BM_SweepDispatchSmall(benchmark::State& state) {
    // One 4-cell x 1-rep sweep per iteration; items/sec is cells/sec and
    // compares against BM_ApiRunDispatchSmall runs/sec.
    api::Sweep sweep;
    sweep.base.protocol = "two-choices";
    sweep.base.n = kDispatchN;
    sweep.base.k = 2;
    sweep.base.alpha = 3.0;
    sweep.base.record_series = false;
    sweep.axes = {{"alpha", {"2.6", "2.8", "3.0", "3.2"}}};
    sweep.reps = 1;
    std::uint64_t seed = 9;
    std::int64_t cells = 0;
    for (auto _ : state) {
        sweep.base_seed = seed++;
        const api::SweepResult r = api::run_sweep(sweep);
        benchmark::DoNotOptimize(r.cells.front().outcome.repetitions);
        cells += static_cast<std::int64_t>(r.cells.size());
    }
    state.SetItemsProcessed(cells);
}
BENCHMARK(BM_SweepDispatchSmall);

}  // namespace

BENCHMARK_MAIN();
