#pragma once

/// \file four_state.hpp
/// The 4-state *exact* majority population protocol analyzed by Draief and
/// Vojnović [DV10] and Mertzios et al. [MNRS14]. States: strong A/B and
/// weak a/b. Rules (unordered effect, applied to ordered pairs):
///   A + B -> a + b     (strong opposites annihilate to weak)
///   A + b -> A + a     (a strong agent converts an opposite weak agent)
///   B + a -> B + b
///   all other pairs: no change.
/// The strong-token difference #A - #B is invariant, so the protocol always
/// returns the exact majority regardless of the bias — at the price of up
/// to Θ(n² log n) interactions on the clique when the bias is constant. At
/// an exact tie all strong tokens annihilate and the protocol never
/// stabilizes (exact majority is undefined); run_population then reports
/// converged = false.

#include <cstdint>
#include <vector>

#include "population/scheduler.hpp"

namespace papc::population {

class FourStateExactMajority final : public PopulationProtocol {
public:
    FourStateExactMajority(std::size_t a_count, std::size_t b_count);

    void interact(NodeId initiator, NodeId responder) override;

    [[nodiscard]] std::size_t population() const override { return states_.size(); }
    [[nodiscard]] bool converged() const override;
    [[nodiscard]] Opinion current_winner() const override;
    [[nodiscard]] double output_fraction(Opinion j) const override;
    [[nodiscard]] std::string name() const override { return "4-state-exact-majority"; }

    [[nodiscard]] std::uint64_t strong_a() const { return strong_a_; }
    [[nodiscard]] std::uint64_t strong_b() const { return strong_b_; }

    /// Signed strong-token difference #A - #B; invariant over any run.
    [[nodiscard]] std::int64_t strong_difference() const;

    // Fault-layer impersonation bracket (see scheduler.hpp). The opaque
    // word is the full State — an output opinion is lossy (strong vs weak),
    // so restore must not round-trip through opinions. Forcing imperson-
    // ates the *strong* token of the opinion (the influential state).
    [[nodiscard]] std::uint64_t save_state(NodeId v) const override {
        return static_cast<std::uint64_t>(states_[v]);
    }
    void restore_state(NodeId v, std::uint64_t state) override {
        set_state(v, static_cast<State>(state));
    }
    void force_opinion(NodeId v, Opinion op) override {
        set_state(v, op == 0 ? State::kStrongA : State::kStrongB);
    }

private:
    enum class State : std::uint8_t { kStrongA, kStrongB, kWeakA, kWeakB };

    void set_state(NodeId v, State s);
    [[nodiscard]] static bool outputs_a(State s) {
        return s == State::kStrongA || s == State::kWeakA;
    }

    std::vector<State> states_;
    std::uint64_t strong_a_ = 0;
    std::uint64_t strong_b_ = 0;
    std::uint64_t output_a_ = 0;  ///< agents currently outputting A
};

}  // namespace papc::population
