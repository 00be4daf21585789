#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace papc::fault {

namespace {
/// Channel labels of the fault substreams, derived from the parent via the
/// pure Rng::substream so the engine tape never shifts. The first label is
/// a fault-layer tag, the second selects the channel.
constexpr std::uint64_t kFaultTag = 0xFA177EA1ULL;
constexpr std::uint64_t kMessageChannel = 1;
constexpr std::uint64_t kCrashChannel = 2;
constexpr std::uint64_t kByzantineChannel = 3;

bool rate_in_unit(double r) { return r >= 0.0 && r <= 1.0; }
}  // namespace

const char* to_string(ByzantinePolicy policy) {
    switch (policy) {
        case ByzantinePolicy::kFixed:
            return "fixed";
        case ByzantinePolicy::kRandom:
            return "random";
        case ByzantinePolicy::kAdaptive:
            return "adaptive";
    }
    return "fixed";
}

bool try_parse_byzantine_policy(const std::string& text,
                                ByzantinePolicy* out) {
    if (text == "fixed") {
        *out = ByzantinePolicy::kFixed;
    } else if (text == "random") {
        *out = ByzantinePolicy::kRandom;
    } else if (text == "adaptive") {
        *out = ByzantinePolicy::kAdaptive;
    } else {
        return false;
    }
    return true;
}

void FaultPlan::validate(std::vector<std::string>* problems) const {
    const auto complain = [problems](const std::string& what) {
        problems->push_back(what);
    };
    if (!rate_in_unit(loss)) complain("fault_loss must be in [0, 1]");
    if (!rate_in_unit(duplication)) complain("fault_dup must be in [0, 1]");
    if (!rate_in_unit(corruption)) {
        complain("fault_corrupt must be in [0, 1]");
    }
    if (crash_rate < 0.0) complain("fault_crash_rate must be >= 0");
    if (recover_rate < 0.0) complain("fault_recover_rate must be >= 0");
    if (!rate_in_unit(straggler_fraction)) {
        complain("fault_straggler_frac must be in [0, 1]");
    }
    if (straggler_scale < 0.0) {
        complain("fault_straggler_scale must be >= 0");
    }
    if (!rate_in_unit(byzantine_fraction)) {
        complain("byzantine_frac must be in [0, 1]");
    }
    for (const CrashEntry& entry : scheduled_crashes) {
        if (entry.time < 0.0) {
            complain("scheduled crash times must be >= 0");
            break;
        }
    }
}

Injector::Injector(const FaultPlan& plan, std::size_t n, double horizon,
                   const Rng& parent)
    : plan_(plan), n_(n) {
    PAPC_CHECK(n_ >= 1);
    std::vector<std::string> problems;
    plan_.validate(&problems);
    PAPC_CHECK(problems.empty());

    msg_base_ = parent.substream(kFaultTag, kMessageChannel);
    crash_base_ = parent.substream(kFaultTag, kCrashChannel);
    byz_base_ = parent.substream(kFaultTag, kByzantineChannel);

    if (plan_.crash_active()) build_crash_timelines(horizon);
    if (plan_.byzantine_active()) build_byzantine_set();
}

MessageFate Injector::draw_fate(Rng& rng) const {
    // Fixed channel order; disabled channels draw nothing. Safe because
    // the plan is part of the trajectory identity (see header).
    MessageFate fate;
    if (plan_.loss > 0.0 && rng.bernoulli(plan_.loss)) {
        fate.drop = true;
        return fate;  // a dropped message has no further fate
    }
    if (plan_.duplication > 0.0) {
        fate.duplicate = rng.bernoulli(plan_.duplication);
    }
    if (plan_.corruption > 0.0) {
        fate.corrupt = rng.bernoulli(plan_.corruption);
    }
    if (plan_.straggler_fraction > 0.0 &&
        rng.bernoulli(plan_.straggler_fraction)) {
        // Pareto(shape 2) latency multiplier: M = 1 + scale * (u^-1/2 - 1)
        // has median ~ 1 + 0.41*scale and infinite variance at shape 2 —
        // genuinely heavy-tailed, yet mean-finite.
        const double u = rng.uniform();
        const double pareto = 1.0 / std::sqrt(std::max(u, 1e-300));
        fate.delay_multiplier =
            1.0 + plan_.straggler_scale * (pareto - 1.0);
    }
    return fate;
}

bool Injector::is_down(NodeId v, double t) const {
    if (!scheduled_down_.empty() && t >= scheduled_down_[v]) return true;
    if (offsets_.empty()) return false;
    const std::uint32_t begin = offsets_[v];
    const std::uint32_t end = offsets_[v + 1];
    // Down iff an odd number of boundaries are <= t (boundaries alternate
    // crash, recover, crash, ...). A node is down AT its crash time
    // (upper_bound: boundary <= t counts), the same `t >= time` edge as a
    // scheduled crash and leader_down().
    const auto* first = boundaries_.data() + begin;
    const auto* last = boundaries_.data() + end;
    const auto count =
        static_cast<std::size_t>(std::upper_bound(first, last, t) - first);
    return (count & 1U) != 0;
}

void Injector::build_crash_timelines(double horizon) {
    const double span = std::max(horizon, 0.0);
    if (plan_.crash_rate > 0.0) {
        offsets_.assign(n_ + 1, 0);
        boundaries_.clear();
        for (NodeId v = 0; v < n_; ++v) {
            // Per-node substream: the timeline of node v depends only on
            // (seed, v), never on other nodes or the iteration order.
            Rng stream = crash_base_.substream(0, v);
            double t = 0.0;
            bool down = false;
            std::size_t count = 0;
            while (count < kMaxBoundariesPerNode) {
                const double rate =
                    down ? plan_.recover_rate : plan_.crash_rate;
                if (rate <= 0.0) break;  // no recovery: down forever
                t += stream.exponential(rate);
                if (t > span) break;
                boundaries_.push_back(t);
                down = !down;
                ++count;
            }
            offsets_[v + 1] = static_cast<std::uint32_t>(boundaries_.size());
            if (count > 0) ++nodes_crashed_;
        }
    }
    for (const CrashEntry& entry : plan_.scheduled_crashes) {
        if (entry.node == kLeaderNode) {
            leader_crash_time_ = std::min(leader_crash_time_, entry.time);
            continue;
        }
        PAPC_CHECK(entry.node < n_);
        if (scheduled_down_.empty()) {
            scheduled_down_.assign(
                n_, std::numeric_limits<double>::infinity());
        }
        if (entry.time < scheduled_down_[entry.node]) {
            if (scheduled_down_[entry.node] ==
                    std::numeric_limits<double>::infinity() &&
                entry.time <= span) {
                ++nodes_crashed_;
            }
            scheduled_down_[entry.node] = entry.time;
        }
    }
}

void Injector::build_byzantine_set() {
    // One sequential node-ascending pass: membership of node v is the
    // v-th bernoulli draw of the byzantine stream — pure in (seed, v
    // prefix), independent of threads.
    Rng stream = byz_base_.substream(0, 0);
    byzantine_.assign(n_, 0);
    for (NodeId v = 0; v < n_; ++v) {
        if (stream.bernoulli(plan_.byzantine_fraction)) {
            byzantine_[v] = 1;
            byzantine_nodes_.push_back(v);
        }
    }
    byzantine_count_ = byzantine_nodes_.size();
}

}  // namespace papc::fault
