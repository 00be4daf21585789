// papc_lint fixture: two draws from one generator in one statement, with
// nothing sequencing them — trips D9 and nothing else. C++ leaves the
// order of call arguments and of `+` operands unspecified, so which draw
// lands in which slot depends on the compiler.
#include "support/random.hpp"

namespace papc::sync {

struct Event {
    double time;
    double weight;
};

void schedule(Event* out, support::Rng& rng, double now) {
    // D9: both arguments draw from rng.
    *out = make_event(now + rng.exponential(1.0), rng.uniform());
}

double round_trip(const Latency& latency, support::Rng& rng) {
    return latency.sample(rng) + latency.sample(rng);  // D9
}

}  // namespace papc::sync
