#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/latency_units.hpp"
#include "support/check.hpp"

namespace papc::analysis {
namespace {

// Closed-form CDF of a sum of independent exponentials with *distinct*
// rates (hypoexponential / generalized Erlang distribution):
//
//   P(Σ_i Exp(r_i) ≤ t) = 1 − Σ_i [Π_{j≠i} r_j/(r_j − r_i)] e^{−r_i t}.
//
// T3 = Exp(1) + 2·Exp(2λ) + 4·Exp(λ) has *repeated* rates, which make the
// closed form singular, so production t3_cdf_exponential uses quadrature.
// This test-only oracle evaluates the closed form on slightly perturbed
// stage rates and cross-validates that quadrature.

// CDF of Σ Exp(rates[i]) at t. All rates must be positive and pairwise
// distinct (relative separation > ~1e-6 to keep the weights stable).
double hypoexponential_cdf(const std::vector<double>& rates, double t) {
    PAPC_CHECK(!rates.empty());
    if (t <= 0.0) return 0.0;
    double survival = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        PAPC_CHECK(rates[i] > 0.0);
        double weight = 1.0;
        for (std::size_t j = 0; j < rates.size(); ++j) {
            if (j == i) continue;
            const double denom = rates[j] - rates[i];
            PAPC_CHECK(std::fabs(denom) > 1e-9 * rates[i]);
            weight *= rates[j] / denom;
        }
        survival += weight * std::exp(-rates[i] * t);
    }
    return std::clamp(1.0 - survival, 0.0, 1.0);
}

double hypoexponential_mean(const std::vector<double>& rates) {
    double mean = 0.0;
    for (const double r : rates) {
        PAPC_CHECK(r > 0.0);
        mean += 1.0 / r;
    }
    return mean;
}

double hypoexponential_variance(const std::vector<double>& rates) {
    double variance = 0.0;
    for (const double r : rates) {
        PAPC_CHECK(r > 0.0);
        variance += 1.0 / (r * r);
    }
    return variance;
}

double hypoexponential_quantile(const std::vector<double>& rates, double q) {
    PAPC_CHECK(q > 0.0 && q < 1.0);
    double hi = hypoexponential_mean(rates) +
                6.0 * std::sqrt(hypoexponential_variance(rates));
    while (hypoexponential_cdf(rates, hi) < q) hi *= 2.0;
    double lo = 0.0;
    for (int i = 0; i < 120; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (hypoexponential_cdf(rates, mid) < q) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-12 * (1.0 + hi)) break;
    }
    return 0.5 * (lo + hi);
}

// The T3 stage rates with repeated entries spread by (1 ± k·eps) so the
// distinct-rate closed form applies; eps ~ 1e-4 keeps both the perturbation
// bias and the cancellation error around 1e-3.
std::vector<double> t3_perturbed_rates(double lambda, double eps) {
    PAPC_CHECK(lambda > 0.0);
    PAPC_CHECK(eps > 0.0 && eps < 0.01);
    // Stage rates 1, 2λ ×2, λ ×4; spread the repeats multiplicatively and
    // symmetrically so the mean shift cancels to first order.
    return {
        1.0,
        2.0 * lambda * (1.0 - eps),
        2.0 * lambda * (1.0 + eps),
        lambda * (1.0 - 3.0 * eps),
        lambda * (1.0 - eps),
        lambda * (1.0 + eps),
        lambda * (1.0 + 3.0 * eps),
    };
}

TEST(Hypoexponential, SingleStageIsExponential) {
    for (const double t : {0.1, 0.5, 1.0, 3.0}) {
        EXPECT_NEAR(hypoexponential_cdf({2.0}, t), 1.0 - std::exp(-2.0 * t),
                    1e-12);
    }
}

TEST(Hypoexponential, TwoStageClosedForm) {
    // Exp(a) + Exp(b): F(t) = 1 - b/(b-a) e^{-at} + a/(b-a) e^{-bt}.
    const double a = 1.0;
    const double b = 3.0;
    for (const double t : {0.2, 1.0, 2.5}) {
        const double expected = 1.0 - b / (b - a) * std::exp(-a * t) +
                                a / (b - a) * std::exp(-b * t);
        EXPECT_NEAR(hypoexponential_cdf({a, b}, t), expected, 1e-12) << t;
    }
}

TEST(Hypoexponential, BoundaryAndMonotone) {
    const std::vector<double> rates{0.5, 1.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(hypoexponential_cdf(rates, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(hypoexponential_cdf(rates, -1.0), 0.0);
    double prev = 0.0;
    for (double t = 0.0; t < 40.0; t += 0.5) {
        const double f = hypoexponential_cdf(rates, t);
        EXPECT_GE(f, prev - 1e-12);
        prev = f;
    }
    EXPECT_GT(hypoexponential_cdf(rates, 40.0), 0.999);
}

TEST(Hypoexponential, MomentFormulas) {
    const std::vector<double> rates{1.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(hypoexponential_mean(rates), 1.0 + 0.5 + 0.25);
    EXPECT_DOUBLE_EQ(hypoexponential_variance(rates), 1.0 + 0.25 + 0.0625);
}

TEST(Hypoexponential, QuantileInvertsCdf) {
    const std::vector<double> rates{0.7, 1.3, 2.9};
    for (const double q : {0.1, 0.5, 0.9}) {
        const double t = hypoexponential_quantile(rates, q);
        EXPECT_NEAR(hypoexponential_cdf(rates, t), q, 1e-9);
    }
}

TEST(Hypoexponential, OrderInvariance) {
    EXPECT_NEAR(hypoexponential_cdf({1.0, 3.0, 5.0}, 1.2),
                hypoexponential_cdf({5.0, 1.0, 3.0}, 1.2), 1e-12);
}

TEST(Hypoexponential, PerturbedT3MatchesQuadrature) {
    // The distinct-rate closed form on slightly perturbed stage rates must
    // agree with the Gauss-Legendre quadrature used by Figure 1. Avoid
    // λ = 1 and λ = 0.5 where T3's stage rates collide exactly.
    for (const double lambda : {0.3, 1.7, 3.0}) {
        const auto rates = t3_perturbed_rates(lambda, 1e-4);
        for (const double t :
             {0.5 * t3_mean_exponential(lambda), t3_mean_exponential(lambda),
              2.0 * t3_mean_exponential(lambda)}) {
            EXPECT_NEAR(hypoexponential_cdf(rates, t),
                        t3_cdf_exponential(lambda, t), 2e-3)
                << "lambda=" << lambda << " t=" << t;
        }
    }
}

TEST(Hypoexponential, PerturbedT3MeanMatchesClosedForm) {
    const auto rates = t3_perturbed_rates(2.0, 1e-4);
    EXPECT_NEAR(hypoexponential_mean(rates), t3_mean_exponential(2.0), 1e-4);
}

}  // namespace
}  // namespace papc::analysis
