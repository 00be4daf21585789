#pragma once

/// \file timeseries.hpp
/// Sparse (time, value) series recorded during simulations, e.g. the fraction
/// of nodes holding the plurality opinion over simulated time.

#include <cstddef>
#include <string>
#include <vector>

namespace papc {

struct TimePoint {
    double time = 0.0;
    double value = 0.0;
};

/// Append-only time series with monotone time stamps.
class TimeSeries {
public:
    explicit TimeSeries(std::string name = {}) : name_(std::move(name)) {}

    /// Appends a sample; time must be >= the previous sample's time.
    void record(double time, double value);

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::size_t size() const { return points_.size(); }
    [[nodiscard]] bool empty() const { return points_.empty(); }
    [[nodiscard]] const TimePoint& operator[](std::size_t i) const { return points_[i]; }
    [[nodiscard]] const std::vector<TimePoint>& points() const { return points_; }

    /// Down-samples to at most `max_points` evenly spaced points (keeps the
    /// first and last). Used before printing long series.
    [[nodiscard]] TimeSeries downsample(std::size_t max_points) const;

private:
    std::string name_;
    std::vector<TimePoint> points_;
};

}  // namespace papc
