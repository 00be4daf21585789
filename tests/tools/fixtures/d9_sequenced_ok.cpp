// papc_lint fixture: draw patterns that lint clean under D9 (exit 0).
//
//   * each draw in its own statement, combined through named locals;
//   * a braced init list, whose elements evaluate left to right;
//   * draws from two different generators in one statement;
//   * a control-statement condition and its body, which are sequenced;
//   * a draw inside a lambda body, which is its own statement.
#include "support/random.hpp"

#include <algorithm>

namespace papc::sync {

struct Event {
    double time;
    double weight;
};

double round_trip(const Latency& latency, support::Rng& rng) {
    const double out = latency.sample(rng);
    const double back = latency.sample(rng);
    return out + back;
}

Event braced(support::Rng& rng, double now) {
    const double slowest =
        std::max({rng.exponential(1.0), rng.exponential(1.0)});
    return Event{now + slowest, rng.uniform()};
}

double two_generators(support::Rng& rng, support::Rng& fault_rng) {
    return rng.uniform() + fault_rng.uniform();
}

double guarded(support::Rng& rng) {
    if (rng.bernoulli(0.5)) return rng.uniform();
    const auto draw = [&rng] { return rng.uniform(); };
    return draw();
}

}  // namespace papc::sync
