#pragma once

/// \file probes.hpp
/// Layer probes of the traced run: each calls one layer's public entry
/// point in a loop at the size its workload uses and reports a rate or a
/// per-call time (median over batches). They complement the spans, which
/// time the same layers inside whole runs.

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "bench.hpp"
#include "fault/plan.hpp"
#include "sim/queue_kind.hpp"

namespace perfbench {

/// Sizes the probes use: the sync-huge population, the event-core async
/// population, and the time each probe spends measuring.
struct ProbeSizes {
    std::size_t sync_n = std::size_t{1} << 22U;
    std::size_t event_n = std::size_t{1} << 15U;
    double budget_s = 0.25;
};
[[nodiscard]] ProbeSizes probe_sizes(bool smoke);

/// Runs `batch` (which returns the work it did) until `budget_s` has
/// passed and at least `min_batches` ran; returns the median work/s.
[[nodiscard]] double median_rate(const std::function<double()>& batch,
                                 double budget_s, int min_batches = 5);

/// Rng::uniform_indices, one 4096 block at a time over [0, sync_n).
[[nodiscard]] double rng_indices_per_s(const ProbeSizes& sizes,
                                       std::uint64_t seed);
/// An empty 4-way ThreadPool::parallel_for, microseconds per dispatch.
[[nodiscard]] double pool_dispatch_us(const ProbeSizes& sizes);
/// Median Algorithm 1 round (ms) at threads 1, 2 and 4, first rounds of
/// one sync-huge input.
[[nodiscard]] std::map<int, double> algorithm1_round_ms(const ProbeSizes& sizes,
                                                        std::uint64_t seed);
/// simd::gather_packed lanes/s with the dispatch forced to "simd" and to
/// "scalar" (the SIMD row falls back to scalar where AVX2 is absent; the
/// manifest records which ran).
[[nodiscard]] std::map<std::string, double> gather_lanes_per_s(
    const ProbeSizes& sizes, std::uint64_t seed);
/// Scheduler-queue hold model (pop + push) at 2 * event_n pending, ns/op.
[[nodiscard]] double queue_hold_ns(const ProbeSizes& sizes,
                                   papc::sim::QueueKind kind,
                                   std::uint64_t seed);

struct ExecutorHold {
    double events_per_s = 0.0;
    double window_us = 0.0;
};
/// WindowedExecutor::run_window hold model at event_n nodes, 8 shards.
[[nodiscard]] ExecutorHold executor_hold(const ProbeSizes& sizes,
                                         std::size_t threads,
                                         std::uint64_t seed);
/// The three 20000-sample Monte-Carlo C1 estimates, ms per triple.
[[nodiscard]] double c1_estimate_ms(const ProbeSizes& sizes,
                                    std::uint64_t seed);
/// fault::Injector construction, ms each.
[[nodiscard]] double injector_construct_ms(const ProbeSizes& sizes,
                                           const papc::fault::FaultPlan& plan,
                                           std::size_t n, double horizon,
                                           std::uint64_t seed);
/// api::run minus the direct engine call on one tiny scenario, us per call.
[[nodiscard]] double api_dispatch_us(const ProbeSizes& sizes,
                                     std::uint64_t seed);

}  // namespace perfbench
