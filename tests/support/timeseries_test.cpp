#include "support/timeseries.hpp"

#include <gtest/gtest.h>

namespace papc {
namespace {

TEST(TimeSeries, RecordAndAccess) {
    TimeSeries ts("x");
    ts.record(0.0, 1.0);
    ts.record(1.0, 2.0);
    ts.record(1.0, 3.0);  // equal time allowed
    EXPECT_EQ(ts.size(), 3U);
    EXPECT_EQ(ts.name(), "x");
    EXPECT_DOUBLE_EQ(ts[2].value, 3.0);
}

TEST(TimeSeries, DownsampleKeepsEndpoints) {
    TimeSeries ts;
    for (int i = 0; i <= 100; ++i) {
        ts.record(static_cast<double>(i), static_cast<double>(i * i));
    }
    const TimeSeries small = ts.downsample(5);
    EXPECT_EQ(small.size(), 5U);
    EXPECT_DOUBLE_EQ(small[0].time, 0.0);
    EXPECT_DOUBLE_EQ(small[4].time, 100.0);
}

TEST(TimeSeries, DownsampleKeepsLastPointUnderFloatTruncation) {
    // Regression: with 100 points -> 48, stride·47 = 99/47·47 lands just
    // below 99 in floating point and the final sample used to be dropped.
    TimeSeries ts;
    for (int i = 0; i < 100; ++i) {
        ts.record(static_cast<double>(i) * 0.25, static_cast<double>(i));
    }
    const TimeSeries small = ts.downsample(48);
    EXPECT_EQ(small.size(), 48U);
    EXPECT_DOUBLE_EQ(small[47].time, 99.0 * 0.25);
    EXPECT_DOUBLE_EQ(small[47].value, 99.0);
}

TEST(TimeSeries, DownsampleShortSeriesUnchanged) {
    TimeSeries ts;
    ts.record(0.0, 1.0);
    ts.record(1.0, 2.0);
    const TimeSeries same = ts.downsample(10);
    EXPECT_EQ(same.size(), 2U);
}

}  // namespace
}  // namespace papc
