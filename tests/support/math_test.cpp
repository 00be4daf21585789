#include "support/math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace papc {
namespace {

TEST(LogAddExp, MatchesDirectComputationInRange) {
    const double a = std::log(3.0);
    const double b = std::log(5.0);
    EXPECT_NEAR(log_add_exp(a, b), std::log(8.0), 1e-12);
}

TEST(LogAddExp, HandlesHugeValuesWithoutOverflow) {
    const double a = 1e6;
    const double b = 1e6 - 3.0;
    const double r = log_add_exp(a, b);
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_NEAR(r, a + std::log1p(std::exp(-3.0)), 1e-9);
}

TEST(LogAddExp, NegativeInfinityIdentity) {
    const double neg_inf = -std::numeric_limits<double>::infinity();
    EXPECT_DOUBLE_EQ(log_add_exp(neg_inf, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(log_add_exp(2.0, neg_inf), 2.0);
}

}  // namespace
}  // namespace papc
