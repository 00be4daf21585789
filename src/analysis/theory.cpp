#include "analysis/theory.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/math.hpp"

namespace papc::analysis {

double log_alpha_pow_plus(double alpha, std::uint32_t k, unsigned i) {
    PAPC_CHECK(alpha >= 1.0);
    PAPC_CHECK(k >= 1);
    const double log_alpha_pow = std::ldexp(std::log(alpha), static_cast<int>(i));
    if (k == 1) return log_alpha_pow;
    return log_add_exp(log_alpha_pow, std::log(static_cast<double>(k - 1)));
}

unsigned generations_to_reach_bias(double alpha, double target) {
    PAPC_CHECK(alpha > 1.0);
    PAPC_CHECK(target > 1.0);
    if (alpha >= target) return 0;
    // Smallest i with 2^i · ln α >= ln target.
    const double ratio = std::log(target) / std::log(alpha);
    const double exact = std::log2(ratio);
    auto i = static_cast<unsigned>(std::ceil(exact - 1e-12));
    return i;
}

unsigned generations_k_to_monochromatic(double k, double n) {
    PAPC_CHECK(k >= 2.0);
    PAPC_CHECK(n > k);
    // log2 log_k n, at least 1.
    const double v = std::log2(std::max(std::log(n) / std::log(k), 2.0));
    return std::max(1U, static_cast<unsigned>(std::ceil(v)));
}

unsigned total_generations(double alpha, std::uint32_t k, std::size_t n,
                           unsigned slack) {
    PAPC_CHECK(alpha > 1.0);
    const double kd = std::max(2.0, static_cast<double>(k));
    const double nd = static_cast<double>(n);
    const unsigned to_k = generations_to_reach_bias(alpha, kd);
    const unsigned to_mono = generations_k_to_monochromatic(kd, nd);
    return to_k + to_mono + slack;
}

double theorem1_runtime_shape(std::size_t n, std::uint32_t k, double alpha) {
    PAPC_CHECK(alpha > 1.0);
    const double kd = std::max(2.0, static_cast<double>(k));
    const double nd = static_cast<double>(n);
    const double log_k = std::log2(kd);
    // log log_α k = log2(ln k / ln α), clamped at >= 1 for shape purposes.
    const double loglog_alpha_k =
        std::max(1.0, std::log2(std::max(2.0, std::log(kd) / std::log(alpha))));
    const double loglog_n = std::log2(std::max(2.0, std::log2(nd)));
    return log_k * loglog_alpha_k + loglog_n;
}

std::vector<double> ideal_bias_trajectory(double alpha0, unsigned generations,
                                          double cap) {
    PAPC_CHECK(alpha0 >= 1.0);
    PAPC_CHECK(cap > 1.0);
    std::vector<double> out;
    out.reserve(generations + 1);
    double log_alpha = std::log(alpha0);
    const double log_cap = std::log(cap);
    for (unsigned i = 0; i <= generations; ++i) {
        out.push_back(std::exp(std::min(log_alpha, log_cap)));
        log_alpha = std::min(2.0 * log_alpha, 2.0 * log_cap);
    }
    return out;
}

PreconditionReport check_preconditions(std::size_t n, std::uint32_t k,
                                       double alpha) {
    PAPC_CHECK(n >= 2);
    PAPC_CHECK(k >= 1);
    PreconditionReport report;
    const double nd = static_cast<double>(n);
    const double kd = static_cast<double>(k);
    // Concrete instantiation of k <= n^(1/2-ε): √n / log2 n.
    report.k_bound = std::sqrt(nd) / std::log2(nd);
    report.k_in_range = kd <= report.k_bound;
    if (k >= 2) {
        report.alpha_threshold =
            1.0 + kd * std::log2(nd) / std::sqrt(nd) * std::log2(kd);
    }
    report.alpha_sufficient = alpha > report.alpha_threshold;
    return report;
}

ComplexityProfile complexity_profile(std::size_t n, std::uint32_t k,
                                     double alpha) {
    PAPC_CHECK(n >= 2);
    ComplexityProfile p;
    const double g_star =
        static_cast<double>(total_generations(std::max(alpha, 1.0 + 1e-9),
                                              std::max(2U, k), n, 2));
    p.address_bits = std::ceil(std::log2(static_cast<double>(n)));
    p.generation_bits = std::max(1.0, std::ceil(std::log2(g_star + 1.0)));
    const double color_bits =
        std::max(1.0, std::ceil(std::log2(static_cast<double>(std::max(2U, k)))));
    // Per node: own address + leader address, color, generation, stored
    // leader state (generation + 2 state bits), flags (locked, finished).
    p.node_memory_bits = 2.0 * p.address_bits + color_bits +
                         2.0 * p.generation_bits + 2.0 + 2.0;
    // Leader reply: (gen, state); state needs 2 bits.
    p.leader_message_bits = p.generation_bits + 2.0;
    // Promotion notification: (i, s, hasChanged).
    p.promotion_message_bits = p.generation_bits + 2.0 + 1.0;
    return p;
}

double dominant_fraction_recursion(double a0, unsigned steps) {
    PAPC_CHECK(a0 > 0.0 && a0 <= 1.0);
    double a = a0;
    for (unsigned i = 0; i < steps; ++i) {
        const double denom = a * a + (1.0 - a) * (1.0 - a);
        a = a * a / denom;
    }
    return a;
}

}  // namespace papc::analysis
