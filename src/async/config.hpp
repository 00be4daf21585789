#pragma once

/// \file config.hpp
/// Configuration of the asynchronous single-leader protocol (§3). The knobs
/// shared with the multi-leader engine (latency, budgets, sampling, faults,
/// executor) live in sim::EventConfig.

#include "sim/event_engine.hpp"

namespace papc::async {

struct AsyncConfig : sim::EventConfig {
    /// Length of the leader's two-choices window in *time units*
    /// (Proposition 16 uses ≈ 2 units). Converted into the 0-signal count
    /// threshold C3·n internally using the measured steps-per-unit C1.
    double two_choices_units = 2.0;

    /// gen_size threshold as a fraction of n (Algorithm 3 uses ⌈n/2⌉).
    double generation_size_fraction = 0.5;

    /// Adversarial failure injection (§4 motivation: "an adversary can
    /// compromise the entire computation by taking over the leader"): at
    /// this time the leader freezes — it stops processing signals and its
    /// public state never changes again. Negative = no failure.
    ///
    /// DEPRECATED shim: since the fault layer landed this is sugar for a
    /// `fault.scheduled_crashes` entry with node == fault::kLeaderNode at
    /// the same time (the engines splice it in; results are unchanged —
    /// pinned by tests/integration/resilience_test.cpp). Prefer the plan.
    double leader_failure_time = -1.0;
};

}  // namespace papc::async
