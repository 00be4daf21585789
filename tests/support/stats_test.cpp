#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace papc {
namespace {

TEST(RunningStat, EmptyIsZero) {
    RunningStat s;
    EXPECT_EQ(s.count(), 0U);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleValue) {
    RunningStat s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1U);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStat, KnownMeanAndVariance) {
    RunningStat s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic dataset is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeMatchesSequential) {
    RunningStat a;
    RunningStat b;
    RunningStat all;
    for (int i = 0; i < 50; ++i) {
        const double x = i * 0.37 - 3.0;
        a.add(x);
        all.add(x);
    }
    for (int i = 50; i < 120; ++i) {
        const double x = i * 0.11 + 1.0;
        b.add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
    RunningStat a;
    a.add(1.0);
    a.add(2.0);
    RunningStat empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2U);
    RunningStat b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2U);
    EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Quantile, SortedInterpolation) {
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.125), 1.5);
}

TEST(Quantile, SingleElement) {
    const std::vector<double> v{7.0};
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 7.0);
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 7.0);
}

TEST(Quantile, UnsortedConvenience) {
    EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 0.5), 3.0);
}

TEST(Summarize, EmptyInput) {
    const Summary s = summarize({});
    EXPECT_EQ(s.count, 0U);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, BasicFields) {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
    const Summary s = summarize(v);
    EXPECT_EQ(s.count, 100U);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_NEAR(s.p50, 50.5, 1e-9);
    EXPECT_NEAR(s.p10, 10.9, 1e-9);
    EXPECT_NEAR(s.p90, 90.1, 1e-9);
}

}  // namespace
}  // namespace papc
