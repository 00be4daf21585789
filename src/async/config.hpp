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
};

}  // namespace papc::async
