#pragma once

/// \file three_state.hpp
/// The 3-state approximate-majority population protocol of Angluin, Aspnes
/// and Eisenstat [AAE08] for two opinions A and B with a blank (undecided)
/// third state:
///   (A, B) -> responder blank      (B, A) -> responder blank
///   (A, _) -> responder A          (B, _) -> responder B
/// With initial additive bias ω(√n log n) the initial majority wins within
/// O(n log n) interactions whp.

#include <cstdint>
#include <vector>

#include "population/scheduler.hpp"

namespace papc::population {

class ThreeStateMajority final : public PopulationProtocol {
public:
    /// Agents 0..a_count-1 start in A, the next b_count in B, the rest blank.
    ThreeStateMajority(std::size_t a_count, std::size_t b_count,
                       std::size_t blank_count = 0);

    void interact(NodeId initiator, NodeId responder) override;

    [[nodiscard]] std::size_t population() const override { return states_.size(); }
    [[nodiscard]] bool converged() const override;
    [[nodiscard]] Opinion current_winner() const override;
    [[nodiscard]] double output_fraction(Opinion j) const override;
    [[nodiscard]] std::string name() const override { return "3-state-majority"; }

    [[nodiscard]] std::uint64_t count_a() const { return count_a_; }
    [[nodiscard]] std::uint64_t count_b() const { return count_b_; }
    [[nodiscard]] std::uint64_t count_blank() const { return count_blank_; }

    // Fault-layer impersonation bracket (see scheduler.hpp).
    [[nodiscard]] std::uint64_t save_state(NodeId v) const override {
        return static_cast<std::uint64_t>(states_[v]);
    }
    void restore_state(NodeId v, std::uint64_t state) override {
        set_state(v, static_cast<State>(state));
    }
    void force_opinion(NodeId v, Opinion op) override {
        set_state(v, op == 0 ? State::kA : op == 1 ? State::kB : State::kBlank);
    }

private:
    enum class State : std::uint8_t { kA, kB, kBlank };

    void set_state(NodeId v, State s);

    std::vector<State> states_;
    std::uint64_t count_a_ = 0;
    std::uint64_t count_b_ = 0;
    std::uint64_t count_blank_ = 0;
};

}  // namespace papc::population
