#pragma once

/// \file stats.hpp
/// Online and batch statistics used by the experiment harness.

#include <cstddef>
#include <vector>

namespace papc {

/// Welford's online mean/variance accumulator.
class RunningStat {
public:
    void add(double x);

    [[nodiscard]] std::size_t count() const { return count_; }
    [[nodiscard]] double mean() const;
    /// Unbiased sample variance; 0 for fewer than two samples.
    [[nodiscard]] double variance() const;
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;

    void merge(const RunningStat& other);

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Batch summary of a sample vector: mean, stddev, min/max and quantiles.
struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p10 = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/// Computes a Summary. The input is copied and sorted internally.
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Linear-interpolation quantile of a *sorted* sample, q in [0, 1].
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);

/// Convenience: quantile of an unsorted sample (copies and sorts).
[[nodiscard]] double quantile(std::vector<double> samples, double q);

}  // namespace papc
