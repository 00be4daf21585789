#include "population/four_state.hpp"

#include "support/check.hpp"

namespace papc::population {

FourStateExactMajority::FourStateExactMajority(std::size_t a_count,
                                               std::size_t b_count) {
    const std::size_t n = a_count + b_count;
    PAPC_CHECK(n >= 2);
    states_.reserve(n);
    states_.insert(states_.end(), a_count, State::kStrongA);
    states_.insert(states_.end(), b_count, State::kStrongB);
    strong_a_ = a_count;
    strong_b_ = b_count;
    output_a_ = a_count;
}

void FourStateExactMajority::set_state(NodeId v, State s) {
    const State old = states_[v];
    if (old == s) return;
    if (old == State::kStrongA) --strong_a_;
    if (old == State::kStrongB) --strong_b_;
    if (s == State::kStrongA) ++strong_a_;
    if (s == State::kStrongB) ++strong_b_;
    if (outputs_a(old) && !outputs_a(s)) --output_a_;
    if (!outputs_a(old) && outputs_a(s)) ++output_a_;
    states_[v] = s;
}

void FourStateExactMajority::interact(NodeId initiator, NodeId responder) {
    PAPC_CHECK(initiator != responder);
    const State x = states_[initiator];
    const State y = states_[responder];

    // Annihilation: strong opposites both weaken.
    if (x == State::kStrongA && y == State::kStrongB) {
        set_state(initiator, State::kWeakA);
        set_state(responder, State::kWeakB);
        return;
    }
    if (x == State::kStrongB && y == State::kStrongA) {
        set_state(initiator, State::kWeakB);
        set_state(responder, State::kWeakA);
        return;
    }
    // Conversion: a strong agent flips an opposite weak agent (either role).
    if (x == State::kStrongA && y == State::kWeakB) {
        set_state(responder, State::kWeakA);
        return;
    }
    if (x == State::kStrongB && y == State::kWeakA) {
        set_state(responder, State::kWeakB);
        return;
    }
    if (y == State::kStrongA && x == State::kWeakB) {
        set_state(initiator, State::kWeakA);
        return;
    }
    if (y == State::kStrongB && x == State::kWeakA) {
        set_state(initiator, State::kWeakB);
        return;
    }
}

bool FourStateExactMajority::converged() const {
    const auto n = static_cast<std::uint64_t>(states_.size());
    // Stable iff one side has no strong tokens *and* no weak tokens of the
    // other side remain to be converted.
    if (strong_b_ == 0 && output_a_ == n && strong_a_ > 0) return true;
    if (strong_a_ == 0 && output_a_ == 0 && strong_b_ > 0) return true;
    return false;
}

Opinion FourStateExactMajority::current_winner() const {
    const auto n = static_cast<std::uint64_t>(states_.size());
    return output_a_ * 2 >= n ? 0U : 1U;
}

double FourStateExactMajority::output_fraction(Opinion j) const {
    const auto n = static_cast<double>(states_.size());
    if (j == 0) return static_cast<double>(output_a_) / n;
    if (j == 1) return 1.0 - static_cast<double>(output_a_) / n;
    return 0.0;
}

std::int64_t FourStateExactMajority::strong_difference() const {
    return static_cast<std::int64_t>(strong_a_) -
           static_cast<std::int64_t>(strong_b_);
}

}  // namespace papc::population
