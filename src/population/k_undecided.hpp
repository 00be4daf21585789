#pragma once

/// \file k_undecided.hpp
/// The k-opinion generalization of the undecided-state dynamics in the
/// population-protocol model ([AAE08] generalized as in [BCN+15], §1.1):
/// when an initiator with color x meets a responder with a different color
/// y, the responder becomes undecided; an undecided responder adopts the
/// initiator's color. Needs k + 1 states and converges to the plurality
/// under sufficient bias.

#include <cstdint>
#include <vector>

#include "population/scheduler.hpp"

namespace papc::population {

class KUndecided final : public PopulationProtocol {
public:
    /// counts[j] agents start with opinion j; `undecided` extra agents
    /// start in the undecided state.
    explicit KUndecided(const std::vector<std::size_t>& counts,
                        std::size_t undecided = 0);

    void interact(NodeId initiator, NodeId responder) override;

    [[nodiscard]] std::size_t population() const override { return states_.size(); }
    [[nodiscard]] bool converged() const override;
    [[nodiscard]] Opinion current_winner() const override;
    [[nodiscard]] double output_fraction(Opinion j) const override;
    [[nodiscard]] std::string name() const override { return "k-undecided"; }

    [[nodiscard]] std::uint32_t num_opinions() const override {
        return static_cast<std::uint32_t>(counts_.size());
    }
    [[nodiscard]] std::uint64_t count(Opinion j) const { return counts_[j]; }
    [[nodiscard]] std::uint64_t undecided_count() const { return undecided_; }

    // Fault-layer impersonation bracket (see scheduler.hpp).
    [[nodiscard]] std::uint64_t save_state(NodeId v) const override {
        return static_cast<std::uint64_t>(states_[v]);
    }
    void restore_state(NodeId v, std::uint64_t state) override {
        set_state(v, static_cast<Opinion>(state));
    }
    void force_opinion(NodeId v, Opinion op) override { set_state(v, op); }

private:
    void set_state(NodeId v, Opinion s);

    std::vector<Opinion> states_;  ///< kUndecided or an opinion id
    std::vector<std::uint64_t> counts_;
    std::uint64_t undecided_ = 0;
};

}  // namespace papc::population
