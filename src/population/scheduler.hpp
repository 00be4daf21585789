#pragma once

/// \file scheduler.hpp
/// The standard population-protocol execution model (§1.1): in each discrete
/// step a uniformly random ordered pair of distinct agents interacts and
/// updates its states by a deterministic rule. Run time is reported in
/// *parallel time* = interactions / n, the common normalization [AGV15].

#include <cstdint>
#include <string>

#include "core/run_result.hpp"
#include "fault/plan.hpp"
#include "opinion/types.hpp"
#include "support/random.hpp"
#include "support/timeseries.hpp"

namespace papc::population {

/// Interface of a pairwise-interaction protocol.
class PopulationProtocol {
public:
    virtual ~PopulationProtocol() = default;

    /// Applies one interaction between distinct agents.
    virtual void interact(NodeId initiator, NodeId responder) = 0;

    [[nodiscard]] virtual std::size_t population() const = 0;

    /// Opinions the fault layer may force on an agent (byzantine and
    /// corruption targets). The binary majority protocols default to 2.
    [[nodiscard]] virtual std::uint32_t num_opinions() const { return 2; }

    /// Opaque per-agent state word for the fault layer's
    /// save / impersonate / restore bracket around one interaction.
    /// restore_state(v, save_state(v)) must be exact — an agent's output
    /// opinion can be lossy (e.g. strong vs weak states). Protocols that
    /// do not override the trio simply ignore impersonation.
    [[nodiscard]] virtual std::uint64_t save_state(NodeId v) const {
        (void)v;
        return 0;
    }
    virtual void restore_state(NodeId v, std::uint64_t state) {
        (void)v;
        (void)state;
    }

    /// Makes v hold the strongest state outputting `op` (the byzantine
    /// impersonation applied just before an interaction).
    virtual void force_opinion(NodeId v, Opinion op) {
        (void)v;
        (void)op;
    }

    /// True when the protocol's output is stable and unanimous.
    [[nodiscard]] virtual bool converged() const = 0;

    /// Current output opinion of the population majority/plurality
    /// (meaningful once converged; best guess otherwise).
    [[nodiscard]] virtual Opinion current_winner() const = 0;

    /// Fraction of agents currently outputting `j`.
    [[nodiscard]] virtual double output_fraction(Opinion j) const = 0;

    [[nodiscard]] virtual std::string name() const = 0;
};

/// Outcome of driving a protocol: the unified result. The time axis is
/// *parallel time* (steps == interactions, end_time == interactions / n).
using PopulationResult = core::RunResult;

struct PopulationRunOptions {
    std::uint64_t max_interactions = 0;  ///< 0: default 64·n·log2(n)
    std::uint64_t check_every = 0;       ///< 0: default n (once per par. step)
    std::uint64_t record_every = 0;      ///< 0: no recording
    Opinion plurality = 0;
    double epsilon = 0.02;               ///< ε for epsilon_time reporting

    /// Fault & adversary plan (borrowed; nullptr = fault-free). The run
    /// builds its own injector (horizon = max parallel time, parent rng
    /// never advanced): a pair with a crashed agent is a no-op that still
    /// advances the clock; message loss / duplication / corruption map
    /// onto whole interactions (drop / apply twice / initiator reports a
    /// uniform opinion); byzantine agents impersonate per policy around
    /// each of their interactions while their true state stays frozen.
    const fault::FaultPlan* fault = nullptr;

    /// Out-params (written when non-null): the run's fault counters, the
    /// number of nodes with a crash inside the horizon, and the size of
    /// the byzantine set.
    fault::FaultCounters* fault_counters = nullptr;
    std::uint64_t* nodes_crashed = nullptr;
    std::uint64_t* byzantine_nodes = nullptr;
};

/// Drives a protocol with uniformly random ordered pairs.
[[nodiscard]] PopulationResult run_population(PopulationProtocol& protocol,
                                              Rng& rng,
                                              const PopulationRunOptions& options = {});

}  // namespace papc::population
