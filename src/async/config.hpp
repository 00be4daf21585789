#pragma once

/// \file config.hpp
/// Configuration of the asynchronous single-leader protocol (§3). The knobs
/// shared with the multi-leader engine (latency, budgets, sampling, faults,
/// executor) live in sim::EventConfig.

#include "sim/event_engine.hpp"

namespace papc::async {

/// Length of the leader's two-choices window in *time units* (Proposition
/// 16 uses ≈ 2 units). Converted into the 0-signal count threshold C3·n
/// using the measured steps-per-unit C1.
inline constexpr double kTwoChoicesUnits = 2.0;

/// gen_size threshold as a fraction of n (Algorithm 3 uses ⌈n/2⌉).
inline constexpr double kGenerationSizeFraction = 0.5;

/// The single-leader engines add no knob to sim::EventConfig; their
/// protocol constants are the two above.
using AsyncConfig = sim::EventConfig;

}  // namespace papc::async
