#include "analysis/latency_units.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/gamma.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace papc::analysis {

namespace {

/// Density of Erlang(k, rate) at x (x >= 0).
double erlang_pdf(unsigned k, double rate, double x) {
    if (x < 0.0) return 0.0;
    double log_pdf = static_cast<double>(k) * std::log(rate) +
                     static_cast<double>(k - 1) * std::log(std::max(x, 1e-300)) -
                     rate * x - std::lgamma(static_cast<double>(k));
    if (k == 1) {
        // k-1 == 0: x^0 = 1 even at x == 0; recompute without the log(x) term.
        log_pdf = std::log(rate) - rate * x;
    }
    return std::exp(log_pdf);
}

/// CDF of Exp(1): 1 - e^-t for t >= 0.
double exp1_cdf(double t) { return t <= 0.0 ? 0.0 : -std::expm1(-t); }

/// Gauss–Legendre nodes/weights on [-1, 1], computed once by Newton
/// iteration on the Legendre polynomial (deterministic, ~1e-15 accurate).
struct GaussLegendre {
    static constexpr int kOrder = 64;
    double nodes[kOrder];
    double weights[kOrder];

    GaussLegendre() {
        const int n = kOrder;
        for (int i = 0; i < (n + 1) / 2; ++i) {
            // Chebyshev initial guess for the i-th root.
            double x = std::cos(M_PI * (i + 0.75) / (n + 0.5));
            double dp = 0.0;
            for (int iter = 0; iter < 100; ++iter) {
                // Evaluate P_n(x) and P'_n(x) by the recurrence.
                double p0 = 1.0;
                double p1 = x;
                for (int k = 2; k <= n; ++k) {
                    const double p2 = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
                    p0 = p1;
                    p1 = p2;
                }
                dp = n * (x * p1 - p0) / (x * x - 1.0);
                const double dx = p1 / dp;
                x -= dx;
                if (std::fabs(dx) < 1e-15) break;
            }
            nodes[i] = -x;
            nodes[n - 1 - i] = x;
            const double w = 2.0 / ((1.0 - x * x) * dp * dp);
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
    }
};

/// Integrates f over [0, upper] with 64-point Gauss–Legendre.
template <typename F>
double integrate(F&& f, double upper) {
    if (upper <= 0.0) return 0.0;
    static const GaussLegendre gl;
    const double half = 0.5 * upper;
    double sum = 0.0;
    for (int i = 0; i < GaussLegendre::kOrder; ++i) {
        sum += gl.weights[i] * f(half * (gl.nodes[i] + 1.0));
    }
    return sum * half;
}

/// Sample q-quantile of `samples` successive draw() calls.
template <typename Draw>
double monte_carlo_quantile(double q, std::size_t samples, Draw&& draw) {
    PAPC_CHECK(samples >= 10);
    std::vector<double> draws;
    draws.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) draws.push_back(draw());
    return quantile(std::move(draws), q);
}

}  // namespace

double t3_cdf_exponential(double lambda, double t) {
    PAPC_CHECK(lambda > 0.0);
    if (t <= 0.0) return 0.0;
    // T3 = Erlang(4, λ) + Erlang(2, 2λ) + Exp(1); integrate the two Erlang
    // densities against the closed-form Exp(1) CDF:
    //   F(t) = ∫∫ f4(x) f2(y) F_exp(t - x - y) dy dx over the simplex.
    // The integration domains are truncated where the Erlang densities are
    // negligible (mass < 1e-20) so the quadrature resolution tracks the
    // distribution scale 1/λ instead of t.
    const double outer_upper = std::min(t, 60.0 / lambda);
    const double inner_cap = 40.0 / lambda;
    auto outer = [&](double x) {
        const double fx = erlang_pdf(4, lambda, x);
        if (fx == 0.0) return 0.0;
        auto inner = [&](double y) {
            return erlang_pdf(2, 2.0 * lambda, y) * exp1_cdf(t - x - y);
        };
        return fx * integrate(inner, std::min(t - x, inner_cap));
    };
    const double value = integrate(outer, outer_upper);
    return std::clamp(value, 0.0, 1.0);
}

double t3_mean_exponential(double lambda) {
    PAPC_CHECK(lambda > 0.0);
    // E[T3] = E[Exp(1)] + 2·E[Exp(2λ)] + 4·E[Exp(λ)] = 1 + 1/λ + 4/λ.
    return 1.0 + 5.0 / lambda;
}

double t3_quantile_exponential(double lambda, double q) {
    PAPC_CHECK(q > 0.0 && q < 1.0);
    double hi = t3_mean_exponential(lambda) * 2.0 + 2.0;
    while (t3_cdf_exponential(lambda, hi) < q) hi *= 2.0;
    double lo = 0.0;
    for (int i = 0; i < 100; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (t3_cdf_exponential(lambda, mid) < q) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-9 * (1.0 + hi)) break;
    }
    return 0.5 * (lo + hi);
}

double steps_per_unit_exact(double lambda) {
    return t3_quantile_exponential(lambda, 0.9);
}

double sample_t3(const sim::LatencyModel& latency, Rng& rng) {
    auto t2_prime = [&] {
        const double c1 = latency.sample(rng);
        const double c2 = latency.sample(rng);
        const double leader = latency.sample(rng);
        return std::max(c1, c2) + leader;
    };
    // Each t2_prime() draws three times; named locals fix their order.
    const double wait = rng.exponential(1.0);
    const double before = t2_prime();
    const double after = t2_prime();
    return before + wait + after;
}

double t3_quantile_monte_carlo(const sim::LatencyModel& latency, double q,
                               std::size_t samples, Rng& rng) {
    return monte_carlo_quantile(q, samples,
                                [&] { return sample_t3(latency, rng); });
}

double sample_validated_cycle(const sim::LatencyModel& channel,
                              const sim::LatencyModel& message, Rng& rng) {
    // Every rng-mutating call is sequenced through a named local so the
    // draw order (and hence the fixed-seed value) is compiler-independent.
    const double wait = rng.exponential(1.0);
    const double peer_a = channel.sample(rng);
    const double peer_b = channel.sample(rng);
    const double establish = std::max(peer_a, peer_b) + channel.sample(rng);
    const double first_round = 2.0 * message.sample(rng);
    const double validation_channel = channel.sample(rng);
    const double validation_round = 2.0 * message.sample(rng);
    return wait + establish + first_round + validation_channel +
           validation_round;
}

double validated_cycle_quantile_monte_carlo(const sim::LatencyModel& channel,
                                            const sim::LatencyModel& message,
                                            double q, std::size_t samples,
                                            Rng& rng) {
    return monte_carlo_quantile(q, samples, [&] {
        return sample_validated_cycle(channel, message, rng);
    });
}

double sample_cluster_exchange(const sim::LatencyModel& latency, Rng& rng) {
    auto five_channels = [&] {
        const double a = latency.sample(rng);
        const double b = latency.sample(rng);
        const double c = latency.sample(rng);
        const double stage1 = std::max({a, b, c});
        const double d = latency.sample(rng);
        const double e = latency.sample(rng);
        return stage1 + std::max(d, e);
    };
    const double first = five_channels();
    const double wait = rng.exponential(1.0);
    return first + wait + five_channels();
}

double cluster_exchange_quantile_monte_carlo(const sim::LatencyModel& latency,
                                             double q, std::size_t samples,
                                             Rng& rng) {
    return monte_carlo_quantile(q, samples,
                                [&] { return sample_cluster_exchange(latency, rng); });
}

Figure1Row figure1_row(double lambda, std::size_t mc_samples, Rng& rng) {
    Figure1Row row;
    row.inv_lambda = 1.0 / lambda;
    row.exact = steps_per_unit_exact(lambda);
    const sim::ExponentialLatency latency(lambda);
    row.monte_carlo = t3_quantile_monte_carlo(latency, 0.9, mc_samples, rng);
    // Remark 14 bound: the 0.9-quantile of Γ(7, β) with β = min(1, λ), plus
    // the rounded 10/(3β) form.
    const double beta = std::min(1.0, lambda);
    row.gamma_bound = gamma_quantile(7.0, 1.0 / beta, 0.9);
    row.bound_10_3beta = remark14_c1_bound(lambda);
    return row;
}

}  // namespace papc::analysis
