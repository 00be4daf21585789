#pragma once

/// \file math.hpp
/// Small numeric helpers shared by the schedule and analysis modules.

#include <algorithm>
#include <cmath>

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

}  // namespace papc
