#include "population/three_state.hpp"

#include "support/check.hpp"

namespace papc::population {

ThreeStateMajority::ThreeStateMajority(std::size_t a_count, std::size_t b_count,
                                       std::size_t blank_count) {
    const std::size_t n = a_count + b_count + blank_count;
    PAPC_CHECK(n >= 2);
    states_.reserve(n);
    states_.insert(states_.end(), a_count, State::kA);
    states_.insert(states_.end(), b_count, State::kB);
    states_.insert(states_.end(), blank_count, State::kBlank);
    count_a_ = a_count;
    count_b_ = b_count;
    count_blank_ = blank_count;
}

void ThreeStateMajority::set_state(NodeId v, State s) {
    const State old = states_[v];
    if (old == s) return;
    switch (old) {
        case State::kA: --count_a_; break;
        case State::kB: --count_b_; break;
        case State::kBlank: --count_blank_; break;
    }
    switch (s) {
        case State::kA: ++count_a_; break;
        case State::kB: ++count_b_; break;
        case State::kBlank: ++count_blank_; break;
    }
    states_[v] = s;
}

void ThreeStateMajority::interact(NodeId initiator, NodeId responder) {
    PAPC_CHECK(initiator != responder);
    const State x = states_[initiator];
    const State y = states_[responder];
    switch (x) {
        case State::kA:
            if (y == State::kB) set_state(responder, State::kBlank);
            else if (y == State::kBlank) set_state(responder, State::kA);
            break;
        case State::kB:
            if (y == State::kA) set_state(responder, State::kBlank);
            else if (y == State::kBlank) set_state(responder, State::kB);
            break;
        case State::kBlank:
            break;  // blank initiators do not influence anyone
    }
}

bool ThreeStateMajority::converged() const {
    const auto n = static_cast<std::uint64_t>(states_.size());
    return count_a_ == n || count_b_ == n;
}

Opinion ThreeStateMajority::current_winner() const {
    return count_a_ >= count_b_ ? 0U : 1U;
}

double ThreeStateMajority::output_fraction(Opinion j) const {
    const auto n = static_cast<double>(states_.size());
    if (j == 0) return static_cast<double>(count_a_) / n;
    if (j == 1) return static_cast<double>(count_b_) / n;
    return 0.0;
}

}  // namespace papc::population
