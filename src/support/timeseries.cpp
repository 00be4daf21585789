#include "support/timeseries.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace papc {

void TimeSeries::record(double time, double value) {
    PAPC_CHECK(points_.empty() || time >= points_.back().time);
    points_.push_back({time, value});
}

TimeSeries TimeSeries::downsample(std::size_t max_points) const {
    PAPC_CHECK(max_points >= 2);
    TimeSeries out(name_);
    if (points_.size() <= max_points) {
        out.points_ = points_;
        return out;
    }
    const double stride = static_cast<double>(points_.size() - 1) /
                          static_cast<double>(max_points - 1);
    for (std::size_t i = 0; i < max_points; ++i) {
        // Pin the final slot to the true last sample: the float multiply
        // can truncate just below size-1 (e.g. 99/47 * 47 -> 98.999...).
        const std::size_t idx =
            i + 1 == max_points
                ? points_.size() - 1
                : static_cast<std::size_t>(stride * static_cast<double>(i));
        out.points_.push_back(points_[std::min(idx, points_.size() - 1)]);
    }
    return out;
}

}  // namespace papc
