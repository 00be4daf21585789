#include <algorithm>
#include <chrono>

#include "bench.hpp"
#include "support/json_writer.hpp"

namespace perfbench {

double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

double micros_since(Clock::time_point origin) {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
}

}  // namespace

int Tracer::begin(const std::string& name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_us = micros_since(origin_);
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void Tracer::end(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = micros_since(origin_);
    // Scopes close in LIFO order, so `id` is the innermost open span.
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::self_times_us() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] = spans_[i].end_us - spans_[i].start_us;
    }
    // Children never overlap each other (one thread), so subtracting each
    // child's duration from its parent leaves the uncovered part.
    for (const Span& span : spans_) {
        if (span.parent >= 0) {
            self[static_cast<std::size_t>(span.parent)] -=
                span.end_us - span.start_us;
        }
    }
    return self;
}

std::vector<double> Tracer::durations_under(int ancestor,
                                            const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
        if (span.name != name) continue;
        int up = span.parent;
        while (up >= 0 && up != ancestor) {
            up = spans_[static_cast<std::size_t>(up)].parent;
        }
        if (up == ancestor) out.push_back(span.end_us - span.start_us);
    }
    return out;
}

std::string Tracer::chrome_json() const {
    papc::JsonWriter writer;
    writer.begin_object();
    writer.kv("displayTimeUnit", std::string("ms"));
    writer.key("traceEvents");
    writer.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        writer.begin_object();
        writer.kv("name", span.name);
        writer.kv("ph", std::string("X"));
        writer.kv("ts", span.start_us);
        writer.kv("dur", span.end_us - span.start_us);
        writer.kv("pid", 1);
        writer.kv("tid", 1);
        writer.key("args");
        writer.begin_object();
        writer.kv("id", static_cast<std::int64_t>(i));
        writer.kv("parent", static_cast<std::int64_t>(span.parent));
        writer.end_object();
        writer.end_object();
    }
    writer.end_array();
    writer.end_object();
    return writer.str();
}

}  // namespace perfbench
