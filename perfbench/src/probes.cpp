#include "probes.hpp"

#include <cmath>
#include <memory>
#include <vector>

#include "analysis/latency_units.hpp"
#include "fault/injector.hpp"
#include "opinion/assignment.hpp"
#include "opinion/packed_array.hpp"
#include "sim/latency.hpp"
#include "sim/scheduler_queue.hpp"
#include "sim/windowed_executor.hpp"
#include "support/cpu.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"
#include "sync/engine.hpp"
#include "sync/round_kernel.hpp"
#include "sync/schedule.hpp"
#include "sync/simd_gather.hpp"

namespace perfbench {

using papc::Rng;

double median_rate(const std::function<double()>& batch, double budget_s,
                   int min_batches) {
    std::vector<double> rates;
    const Clock::time_point begin = Clock::now();
    while (static_cast<int>(rates.size()) < min_batches ||
           seconds_since(begin) < budget_s) {
        const Clock::time_point start = Clock::now();
        const double work = batch();
        rates.push_back(work / seconds_since(start));
    }
    return median(rates);
}

ProbeSizes probe_sizes(bool smoke) {
    ProbeSizes sizes;
    if (smoke) {
        sizes.sync_n = std::size_t{1} << 14U;
        sizes.event_n = std::size_t{1} << 11U;
        sizes.budget_s = 0.02;
    }
    return sizes;
}

double rng_indices_per_s(const ProbeSizes& sizes, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> block(papc::sync::kRoundBlock);
    return median_rate(
        [&] {
            for (int i = 0; i < 64; ++i) {
                rng.uniform_indices(sizes.sync_n, block.data(), block.size());
            }
            return 64.0 * static_cast<double>(block.size());
        },
        sizes.budget_s);
}

double pool_dispatch_us(const ProbeSizes& sizes) {
    papc::support::ThreadPool pool(4);
    const auto noop = [](std::size_t, std::size_t) {};
    const double per_s = median_rate(
        [&] {
            for (int i = 0; i < 256; ++i) pool.parallel_for(4, noop);
            return 256.0;
        },
        sizes.budget_s);
    return 1e6 / per_s;
}

std::map<int, double> algorithm1_round_ms(const ProbeSizes& sizes,
                                          std::uint64_t seed) {
    Rng workload_rng(seed);
    const papc::Assignment assignment =
        papc::make_biased_plurality(sizes.sync_n, 8, 1.5, workload_rng);
    papc::sync::ScheduleParams params;
    params.n = sizes.sync_n;
    params.k = 8;
    params.alpha = 1.5;
    std::map<int, double> out;
    for (const int threads : {1, 2, 4}) {
        papc::sync::Algorithm1 dynamics(assignment,
                                        papc::sync::Schedule(params),
                                        static_cast<std::size_t>(threads));
        Rng rng(seed);
        std::vector<double> ms;
        // The same first rounds at every thread count, so the rows compare
        // like for like (results are thread-count invariant).
        for (int round = 0; round < 4; ++round) {
            const Clock::time_point start = Clock::now();
            dynamics.step(rng);
            ms.push_back(seconds_since(start) * 1e3);
        }
        out[threads] = median(ms);
    }
    return out;
}

std::map<std::string, double> gather_lanes_per_s(const ProbeSizes& sizes,
                                                 std::uint64_t seed) {
    Rng rng(seed);
    papc::PackedOpinionArray array(sizes.sync_n, 8);
    for (std::size_t i = 0; i < sizes.sync_n; ++i) {
        array.set(i, static_cast<papc::Opinion>(rng.uniform_index(8)));
    }
    std::vector<std::uint64_t> idx(papc::sync::kRoundBlock);
    std::vector<papc::Opinion> lanes(idx.size());
    rng.uniform_indices(sizes.sync_n, idx.data(), idx.size());
    std::map<std::string, double> out;
    const std::pair<const char*, papc::support::SimdLevel> paths[] = {
        {"simd", papc::support::SimdLevel::kAvx2},
        {"scalar", papc::support::SimdLevel::kScalar}};
    for (const auto& [name, level] : paths) {
        papc::support::set_simd_override(level);
        out[name] = median_rate(
            [&] {
                for (int i = 0; i < 64; ++i) {
                    papc::sync::simd::gather_packed(
                        array.words(), idx.data(), idx.size(),
                        array.log2_lane_bits(), lanes.data());
                }
                return 64.0 * static_cast<double>(idx.size());
            },
            sizes.budget_s);
    }
    papc::support::clear_simd_override();
    return out;
}

double queue_hold_ns(const ProbeSizes& sizes, papc::sim::QueueKind kind,
                     std::uint64_t seed) {
    // Hold model at the async run's pending-event count (about 2n: one
    // Poisson tick per node plus in-flight signals and exchanges).
    const std::size_t pending = 2 * sizes.event_n;
    Rng rng(seed);
    auto queue = papc::sim::make_scheduler_queue<std::uint64_t>(kind, pending);
    for (std::size_t i = 0; i < pending; ++i) queue->push(rng.uniform(), i);
    {
        // One-time structuring of the seeded population (ladder rungs,
        // calendar width) is set-up, not the steady hold cycle.
        auto entry = queue->pop();
        queue->push(entry.time, entry.seq);
    }
    double t = 1.0;
    const double per_s = median_rate(
        [&] {
            for (std::size_t i = 0; i < pending; ++i) {
                const auto entry = queue->pop();
                queue->push(t + rng.uniform(), entry.seq);
                t += 1e-6;
            }
            return static_cast<double>(pending);
        },
        sizes.budget_s);
    return 1e9 / per_s;
}

ExecutorHold executor_hold(const ProbeSizes& sizes, std::size_t threads,
                           std::uint64_t seed) {
    const std::size_t n = sizes.event_n;
    const std::size_t pending = 2 * n;
    papc::sim::WindowedOptions options;
    options.threads = threads;
    options.reserve_hint = pending;
    papc::sim::WindowedExecutor<std::uint32_t> executor(n, options, Rng(seed));
    {
        Rng seed_rng(seed + 1);
        for (std::size_t i = 0; i < pending; ++i) {
            const auto node = static_cast<std::uint32_t>(i % n);
            executor.seed(executor.shard_of(node), seed_rng.exponential(1.0),
                          node);
        }
    }
    const auto handler = [&](auto& ctx, papc::sim::Time t, std::uint32_t) {
        const auto target =
            static_cast<std::uint32_t>(ctx.rng().uniform_index(n));
        ctx.emit(executor.shard_of(target), t + ctx.rng().exponential(1.0),
                 target);
    };
    constexpr int kWindows = 16;
    std::vector<double> window_us;
    const double events_per_s = median_rate(
        [&] {
            const std::uint64_t before = executor.events_processed();
            const Clock::time_point start = Clock::now();
            for (int i = 0; i < kWindows; ++i) executor.run_window(handler);
            window_us.push_back(seconds_since(start) * 1e6 / kWindows);
            return static_cast<double>(executor.events_processed() - before);
        },
        sizes.budget_s);
    return ExecutorHold{events_per_s, median(window_us)};
}

double c1_estimate_ms(const ProbeSizes& sizes, std::uint64_t seed) {
    // The three Monte-Carlo C1 estimates the async, validated and
    // multi-leader constructors run, at their 20000-sample size.
    constexpr std::size_t kSamples = 20000;
    const auto channel = papc::sim::make_exponential_latency(1.0);
    const auto message = papc::sim::make_exponential_latency(2.0);
    Rng rng(seed);
    double sink = 0.0;
    const double per_s = median_rate(
        [&] {
            sink += papc::analysis::t3_quantile_monte_carlo(*channel, 0.9,
                                                            kSamples, rng);
            sink += papc::analysis::validated_cycle_quantile_monte_carlo(
                *channel, *message, 0.9, kSamples, rng);
            sink += papc::analysis::cluster_exchange_quantile_monte_carlo(
                *channel, 0.9, kSamples, rng);
            return 1.0;
        },
        sizes.budget_s);
    return std::isfinite(sink) ? 1e3 / per_s : -1.0;
}

double injector_construct_ms(const ProbeSizes& sizes,
                             const papc::fault::FaultPlan& plan,
                             std::size_t n, double horizon,
                             std::uint64_t seed) {
    const Rng parent(seed);
    const double per_s = median_rate(
        [&] {
            for (int i = 0; i < 16; ++i) {
                const papc::fault::Injector injector(plan, n, horizon, parent);
                if (injector.population() != n) return 0.0;
            }
            return 16.0;
        },
        sizes.budget_s);
    return 1e3 / per_s;
}

double api_dispatch_us(const ProbeSizes& sizes, std::uint64_t seed) {
    // The same tiny two-choices run through api::run and straight against
    // the engine, as the registry's sync path would call it.
    papc::api::Scenario scenario;
    scenario.protocol = "two-choices";
    scenario.n = 128;
    scenario.k = 2;
    scenario.alpha = 3.0;
    scenario.record_series = false;
    constexpr int kCalls = 64;
    const auto direct = [&](std::uint64_t s) {
        Rng rng(s);
        Rng workload_rng(papc::derive_seed(s, 1));
        const papc::Assignment a = papc::make_biased_plurality(
            scenario.n, scenario.k, scenario.alpha, workload_rng);
        papc::sync::TwoChoices dynamics(a, 1);
        papc::sync::RunOptions options;
        options.record_every = 0;
        return papc::sync::run_to_consensus(dynamics, rng, options).steps;
    };
    std::vector<double> api_us;
    std::vector<double> direct_us;
    std::uint64_t sink = 0;
    const Clock::time_point begin = Clock::now();
    while (api_us.size() < 5 || seconds_since(begin) < sizes.budget_s) {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < kCalls; ++i) {
            const std::uint64_t s = seed + static_cast<std::uint64_t>(i);
            sink += papc::api::run(scenario, s).run.steps;
        }
        api_us.push_back(seconds_since(start) * 1e6 / kCalls);
        start = Clock::now();
        for (int i = 0; i < kCalls; ++i) {
            sink += direct(seed + static_cast<std::uint64_t>(i));
        }
        direct_us.push_back(seconds_since(start) * 1e6 / kCalls);
    }
    return sink > 0 ? median(api_us) - median(direct_us) : -1.0;
}

}  // namespace perfbench
