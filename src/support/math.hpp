#pragma once

/// \file math.hpp
/// Small numeric helpers shared by the schedule and analysis modules.

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace papc {

/// Natural-log domain addition: returns ln(e^a + e^b) without overflow.
/// Used to evaluate ln(alpha^(2^i) + k - 1) where alpha^(2^i) overflows
/// double for i >= ~10.
inline double log_add_exp(double a, double b) {
    if (std::isinf(a) && a < 0) return b;
    if (std::isinf(b) && b < 0) return a;
    const double hi = std::max(a, b);
    const double lo = std::min(a, b);
    return hi + std::log1p(std::exp(lo - hi));
}

/// Integer ceil(log2(x)) for x >= 1.
inline int ceil_log2(std::uint64_t x) {
    int bits = 0;
    std::uint64_t v = 1;
    while (v < x) {
        v <<= 1U;
        ++bits;
    }
    return bits;
}

/// Clamp helper mirroring std::clamp but tolerant of lo > hi caused by
/// degenerate parameter combinations (returns lo in that case).
inline double clamp_safe(double x, double lo, double hi) {
    if (hi < lo) return lo;
    return std::clamp(x, lo, hi);
}

/// True when |a - b| <= tol * max(1, |a|, |b|).
inline bool approx_equal(double a, double b, double tol = 1e-9) {
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= tol * scale;
}

}  // namespace papc
