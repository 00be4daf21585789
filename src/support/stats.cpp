#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace papc {

void RunningStat::add(double x) {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double RunningStat::mean() const { return count_ > 0 ? mean_ : 0.0; }

double RunningStat::variance() const {
    if (count_ < 2) return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::min() const { return min_; }

double RunningStat::max() const { return max_; }

void RunningStat::merge(const RunningStat& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const auto na = static_cast<double>(count_);
    const auto nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
    PAPC_CHECK(!sorted.empty());
    PAPC_CHECK(q >= 0.0 && q <= 1.0);
    if (sorted.size() == 1) return sorted.front();
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::vector<double> samples, double q) {
    std::sort(samples.begin(), samples.end());
    return quantile_sorted(samples, q);
}

Summary summarize(std::vector<double> samples) {
    Summary s;
    s.count = samples.size();
    if (samples.empty()) return s;
    std::sort(samples.begin(), samples.end());
    RunningStat rs;
    for (const double x : samples) rs.add(x);
    s.mean = rs.mean();
    s.stddev = rs.stddev();
    s.min = samples.front();
    s.max = samples.back();
    s.p10 = quantile_sorted(samples, 0.10);
    s.p50 = quantile_sorted(samples, 0.50);
    s.p90 = quantile_sorted(samples, 0.90);
    s.p99 = quantile_sorted(samples, 0.99);
    return s;
}

}  // namespace papc
