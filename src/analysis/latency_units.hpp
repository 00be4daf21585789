#pragma once

/// \file latency_units.hpp
/// The paper's *time unit* (§3.1): C1 = F^{-1}(0.9) time steps, where F is
/// the CDF of T3, the full good-tick round-trip
///
///   T2' = max(T2, T2) + T2            (two random channels, then leader)
///   T3  = T2' + T1 + T2'              (waiting + channel building)
///
/// with T1 ~ Exp(1) (Poisson clock) and T2 a latency-model draw. For the
/// exponential model, max(T2, T2) = Exp(2λ) + Exp(λ) in distribution, so
///
///   T3 = Exp(1) + 2·Exp(2λ) + 4·Exp(λ)   (hypoexponential).
///
/// This module computes C1 three ways: the exact hypoexponential CDF (for
/// the exponential model), a Monte-Carlo quantile (any latency model), and
/// the paper's Γ(7, β) majorization bound (Remark 14). Figure 1 plots
/// F^{-1}(0.9) against 1/λ; bench/fig1_steps_per_unit regenerates it.

#include <memory>

#include "sim/latency.hpp"
#include "support/random.hpp"

namespace papc::analysis {

/// Exact CDF of T3 for the exponential-latency model at time t.
/// Evaluates the hypoexponential CDF for rates {1, 2λ×2, λ×4} via the
/// matrix-free convolution-of-Erlangs formula; falls back to numerically
/// robust evaluation when λ is close to the degenerate values (λ = 1,
/// λ = 1/2) where rates coincide.
[[nodiscard]] double t3_cdf_exponential(double lambda, double t);

/// Exact mean of T3 for the exponential model: 1 + 2/(2λ) + 4/λ = 1 + 5/λ
/// (composition above). Example 15 of the paper states 1 + 3/λ, which is
/// the mean of the composition without the leader leg (T2' = max(T2, T2),
/// mean 3/(2λ)). We keep the stated composition; the E[T3] column of
/// bench/fig1_steps_per_unit.cpp prints 1 + 5/λ next to the quantiles.
[[nodiscard]] double t3_mean_exponential(double lambda);

/// q-quantile of T3 (exponential model) by bisecting the exact CDF.
[[nodiscard]] double t3_quantile_exponential(double lambda, double q);

/// C1 = F^{-1}(0.9) for the exponential model (exact).
[[nodiscard]] double steps_per_unit_exact(double lambda);

/// Draws one T3 sample under an arbitrary latency model.
[[nodiscard]] double sample_t3(const sim::LatencyModel& latency, Rng& rng);

/// Monte-Carlo estimate of the q-quantile of T3 under any latency model.
[[nodiscard]] double t3_quantile_monte_carlo(const sim::LatencyModel& latency,
                                             double q, std::size_t samples,
                                             Rng& rng);

/// Draws one full cycle of the §5 validated engine: tick wait (Exp(1)) +
/// three channels (max(T2, T2) + T2) + first message round (2·T4) +
/// validation channel (T2) + validation round-trip (2·T4). `channel`
/// models T2, `message` models T4.
[[nodiscard]] double sample_validated_cycle(const sim::LatencyModel& channel,
                                            const sim::LatencyModel& message,
                                            Rng& rng);

/// Monte-Carlo q-quantile of the validated cycle; the 0.9-quantile is the
/// C1 (steps per time unit) the validated engine derives its leader
/// thresholds from.
[[nodiscard]] double validated_cycle_quantile_monte_carlo(
    const sim::LatencyModel& channel, const sim::LatencyModel& message,
    double q, std::size_t samples, Rng& rng);

/// Draws one §4 member exchange round-trip: five channels in two stages —
/// three concurrent samples, then the own and the sampled leader
/// concurrently (T2'' ≼ 5·T2, §4.2) — on both sides of the tick wait.
[[nodiscard]] double sample_cluster_exchange(const sim::LatencyModel& latency,
                                             Rng& rng);

/// Monte-Carlo q-quantile of the cluster member exchange; the 0.9-quantile
/// is the C1 the multi-leader engine derives its per-cluster leader
/// thresholds from.
[[nodiscard]] double cluster_exchange_quantile_monte_carlo(
    const sim::LatencyModel& latency, double q, std::size_t samples,
    Rng& rng);

/// One row of Figure 1: 1/λ plus the three C1 estimates.
struct Figure1Row {
    double inv_lambda = 0.0;      ///< expected latency 1/λ (x-axis)
    double exact = 0.0;           ///< exact F^{-1}(0.9)
    double monte_carlo = 0.0;     ///< Monte-Carlo F^{-1}(0.9)
    double gamma_bound = 0.0;     ///< Remark 14 exact bound (Γ(7, β) quantile)
    double bound_10_3beta = 0.0;  ///< Remark 14 rounded bound 10/(3β)
};

/// Computes one Figure 1 row for latency rate λ.
[[nodiscard]] Figure1Row figure1_row(double lambda, std::size_t mc_samples,
                                     Rng& rng);

}  // namespace papc::analysis
