#include "population/scheduler.hpp"

#include <cmath>
#include <memory>

#include "core/engine.hpp"
#include "fault/injector.hpp"
#include "support/check.hpp"

namespace papc::population {

namespace {

/// Adapts a protocol to the core step interface: each step is one
/// uniformly random ordered pair of distinct agents, and the time axis is
/// parallel time (interactions / n).
class PopulationEngine final : public core::Engine {
public:
    PopulationEngine(PopulationProtocol& protocol, Rng& rng,
                     const fault::Injector* injector)
        : protocol_(protocol),
          rng_(rng),
          n_(protocol.population()),
          injector_(injector) {
        if (injector_ != nullptr) {
            crash_on_ = injector_->crash_active();
            msg_on_ = injector_->message_faults_active();
            byz_on_ = injector_->byzantine_active();
            if (msg_on_) fault_rng_ = injector_->serial_stream();
        }
    }

    [[nodiscard]] const fault::FaultCounters& fault_counters() const {
        return faults_;
    }

    bool advance() override {
        const auto initiator = static_cast<NodeId>(rng_.uniform_index(n_));
        const auto responder =
            static_cast<NodeId>(rng_.uniform_index_excluding(n_, initiator));
        ++interactions_;
        if (injector_ == nullptr) {
            protocol_.interact(initiator, responder);
            return true;
        }
        if (crash_on_) {
            const double t = now();
            if (injector_->is_down(initiator, t) ||
                injector_->is_down(responder, t)) {
                // A pair with a down agent is a no-op; the clock advances.
                ++faults_.crash_skips;
                return true;
            }
        }
        bool duplicate = false;
        // Agents impersonated for this interaction only: index, saved word.
        NodeId forced[2];
        std::uint64_t saved[2];
        std::size_t num_forced = 0;
        const auto impersonate = [&](NodeId v, Opinion op) {
            saved[num_forced] = protocol_.save_state(v);
            forced[num_forced] = v;
            ++num_forced;
            protocol_.force_opinion(v, op);
        };
        const std::uint32_t k = protocol_.num_opinions();
        if (msg_on_) {
            const fault::MessageFate fate = injector_->draw_fate(fault_rng_);
            if (fate.drop) {
                ++faults_.lost;
                return true;
            }
            if (fate.duplicate) {
                ++faults_.duplicated;
                duplicate = true;
            }
            if (fate.corrupt) {
                // The initiator's reported opinion flips uniformly for
                // this interaction (stragglers have no meaning on the
                // interaction clock and are ignored).
                ++faults_.corrupted;
                impersonate(initiator, static_cast<Opinion>(
                                           fault_rng_.uniform_index(k)));
            }
        }
        if (byz_on_) {
            for (const NodeId v : {initiator, responder}) {
                if (!injector_->is_byzantine(v)) continue;
                // A corrupted initiator is already impersonated.
                if (num_forced > 0 && forced[0] == v) continue;
                impersonate(v, byzantine_target(k));
            }
        }
        protocol_.interact(initiator, responder);
        if (duplicate) protocol_.interact(initiator, responder);
        // Restore in reverse save order (exact even if both brackets hit
        // the same agent).
        while (num_forced > 0) {
            --num_forced;
            protocol_.restore_state(forced[num_forced], saved[num_forced]);
        }
        return true;
    }
    [[nodiscard]] double now() const override {
        return static_cast<double>(interactions_) / static_cast<double>(n_);
    }
    [[nodiscard]] bool converged() const override {
        return protocol_.converged();
    }
    [[nodiscard]] Opinion dominant() const override {
        return protocol_.current_winner();
    }
    [[nodiscard]] double opinion_fraction(Opinion j) const override {
        return protocol_.output_fraction(j);
    }

private:
    /// Per-interaction byzantine reporting target (policy-dependent).
    [[nodiscard]] Opinion byzantine_target(std::uint32_t k) const {
        switch (injector_->byzantine_policy()) {
            case fault::ByzantinePolicy::kFixed:
                return static_cast<Opinion>(k - 1);
            case fault::ByzantinePolicy::kRandom: {
                Rng stream = injector_->byzantine_round_stream(interactions_);
                return static_cast<Opinion>(stream.uniform_index(k));
            }
            case fault::ByzantinePolicy::kAdaptive:
                return fault::strongest_minority(k, [this](Opinion j) {
                    return static_cast<std::uint64_t>(
                        protocol_.output_fraction(j) * static_cast<double>(n_) +
                        0.5);
                });
        }
        return 0;
    }

    PopulationProtocol& protocol_;
    Rng& rng_;
    std::size_t n_;
    std::uint64_t interactions_ = 0;

    const fault::Injector* injector_;
    bool crash_on_ = false;
    bool msg_on_ = false;
    bool byz_on_ = false;
    Rng fault_rng_{0};
    fault::FaultCounters faults_;
};

}  // namespace

PopulationResult run_population(PopulationProtocol& protocol, Rng& rng,
                                const PopulationRunOptions& options) {
    const auto n = static_cast<std::uint64_t>(protocol.population());
    PAPC_CHECK(n >= 2);

    std::uint64_t max_interactions = options.max_interactions;
    if (max_interactions == 0) {
        const double bound = 64.0 * static_cast<double>(n) *
                             std::log2(static_cast<double>(n));
        max_interactions = static_cast<std::uint64_t>(bound);
    }

    // Fault layer: horizon in parallel time; the parent rng is read, never
    // advanced, so a null/zero plan reproduces the fault-free trajectory.
    std::unique_ptr<fault::Injector> injector;
    if (options.fault != nullptr && options.fault->active()) {
        const double horizon = static_cast<double>(max_interactions) /
                               static_cast<double>(n);
        injector = std::make_unique<fault::Injector>(*options.fault, n,
                                                     horizon, rng);
    }

    PopulationEngine engine(protocol, rng, injector.get());
    core::EngineOptions run_options;
    run_options.max_steps = max_interactions;
    run_options.check_every = options.check_every == 0 ? n : options.check_every;
    run_options.record_every = options.record_every;
    run_options.record = options.record_every > 0;
    run_options.plurality = options.plurality;
    run_options.epsilon = options.epsilon;
    // "@uniform" names the pair model; every population result carries it.
    run_options.series_name = protocol.name() + "@uniform";
    PopulationResult result = core::run(engine, run_options);
    if (options.fault_counters != nullptr) {
        *options.fault_counters = engine.fault_counters();
    }
    if (options.nodes_crashed != nullptr) {
        *options.nodes_crashed = injector ? injector->nodes_crashed() : 0;
    }
    if (options.byzantine_nodes != nullptr) {
        *options.byzantine_nodes = injector ? injector->byzantine_count() : 0;
    }
    return result;
}

}  // namespace papc::population
