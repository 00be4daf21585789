#pragma once

/// \file theory.hpp
/// Closed-form predictions from the paper's analysis, used to cross-check
/// measurements in the benches and tests:
///  - the bias recursion α_{i+1} ≈ α_i² (Lemma 4 / Corollary 7),
///  - generation counts to reach bias k and bias n (Corollary 10, Lemma 11),
///  - the asymptotic runtime expressions of Theorems 1, 13 and 26.

#include <cstdint>
#include <vector>

namespace papc::analysis {

/// ln(α^(2^i) + k - 1), evaluated in log space (α^(2^i) overflows double
/// for i ≳ 10 even with modest α).
[[nodiscard]] double log_alpha_pow_plus(double alpha, std::uint32_t k, unsigned i);

/// Corollary 10: number of generations for the bias to exceed k, i.e. the
/// smallest i with α^(2^i) > k; equals ceil(log2(log k / log α)) with
/// degenerate cases handled (α > k already, k < 2).
[[nodiscard]] unsigned generations_to_reach_bias(double alpha, double target);

/// Lemma 11: generations needed from bias >= k until monochromatic,
/// ~ log2 log_k n.
[[nodiscard]] unsigned generations_k_to_monochromatic(double k, double n);

/// Total generation budget G* used by the protocols: generations to reach
/// bias k plus generations from k to monochromatic plus a safety slack.
[[nodiscard]] unsigned total_generations(double alpha, std::uint32_t k,
                                         std::size_t n, unsigned slack = 2);

/// Theorem 1 runtime expression (up to constants):
///   log(k)·log log_α(k) + log log n.
[[nodiscard]] double theorem1_runtime_shape(std::size_t n, std::uint32_t k,
                                            double alpha);

/// The idealized single-step bias map of one generation hand-over including
/// the Remark 2 worst case: alpha' = alpha² (no error terms). Exposed for
/// the E2 bench to compare measured bias trajectories against.
[[nodiscard]] std::vector<double> ideal_bias_trajectory(double alpha0,
                                                        unsigned generations,
                                                        double cap);

/// Lemma 11 dominant-fraction recursion a' = a² / (a² + (1-a)²), iterated
/// `steps` times from a0.
[[nodiscard]] double dominant_fraction_recursion(double a0, unsigned steps);

/// Result of checking (n, k, α) against the preconditions of Theorems 1,
/// 13 and 26: k <= n^(1/2-ε) and α > 1 + (k·log n/√n)·log k.
struct PreconditionReport {
    bool k_in_range = false;      ///< k ≤ √n / log n (a concrete ε choice)
    bool alpha_sufficient = false;
    double alpha_threshold = 1.0; ///< the Theorem-1 bias bound
    double k_bound = 0.0;         ///< the concrete k upper bound used

    [[nodiscard]] bool all_satisfied() const {
        return k_in_range && alpha_sufficient;
    }
};

/// Evaluates the theorem preconditions; used by the CLI to warn users.
[[nodiscard]] PreconditionReport check_preconditions(std::size_t n,
                                                     std::uint32_t k,
                                                     double alpha);

/// §4.5 closed-form complexity parameters of the decentralized system.
struct ComplexityProfile {
    double node_memory_bits = 0.0;    ///< total per-node memory, O(log n)
    double address_bits = 0.0;        ///< network addresses, log2 n
    double generation_bits = 0.0;     ///< generation counter, log2 G*
    double leader_message_bits = 0.0; ///< leader replies: gen + state
    double promotion_message_bits = 0.0;  ///< promotion notifications
};

/// Computes the §4.5 bit counts for a system of n nodes, k opinions and
/// initial bias alpha.
[[nodiscard]] ComplexityProfile complexity_profile(std::size_t n,
                                                   std::uint32_t k,
                                                   double alpha);

}  // namespace papc::analysis
