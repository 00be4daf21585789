#include "support/random.hpp"

#include <cmath>

#include "support/check.hpp"

namespace papc {

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31U);
}

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) {
        word = splitmix64(sm);
    }
}

Rng Rng::split() {
    // Seed the child from two fresh outputs folded together; the parent
    // advances, so repeated splits give distinct children.
    const std::uint64_t a = next_u64();
    const std::uint64_t b = next_u64();
    std::uint64_t sm = a ^ rotl(b, 31);
    return Rng(splitmix64(sm));
}

Rng Rng::substream(std::uint64_t a, std::uint64_t b) const {
    // Absorb the four state words and both labels into one splitmix64
    // chain; the accumulated output seeds the child (whose constructor
    // expands it to a full 256-bit state). Everything is const on the
    // parent: same (state, a, b) always gives the same child.
    std::uint64_t sm = state_[0];
    std::uint64_t folded = splitmix64(sm);
    for (const std::uint64_t word : {state_[1], state_[2], state_[3], a, b}) {
        sm ^= word;
        folded ^= splitmix64(sm);
    }
    return Rng(folded);
}

std::uint64_t Rng::next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5U, 7) * 9U;
    const std::uint64_t t = state_[1] << 17U;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

void Rng::fill_u64(std::uint64_t* dst, std::size_t count) {
    // Same recurrence as next_u64(), with the state held in locals so the
    // compiler keeps it in registers across the whole block.
    std::uint64_t s0 = state_[0];
    std::uint64_t s1 = state_[1];
    std::uint64_t s2 = state_[2];
    std::uint64_t s3 = state_[3];
    for (std::size_t i = 0; i < count; ++i) {
        dst[i] = rotl(s1 * 5U, 7) * 9U;
        const std::uint64_t t = s1 << 17U;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
}

void Rng::uniform_indices(std::uint64_t n, std::uint64_t* dst,
                          std::size_t count) {
    PAPC_CHECK(n > 0);
    // The scalar sequence consumes one raw word per output plus one per
    // Lemire rejection, strictly in stream order. Batching therefore only
    // changes *when* raw words are produced, never which word feeds which
    // slot: generate words in-register (same recurrence as next_u64) and
    // multiply-shift each in order; a rejected word leaves its slot
    // unfilled for the next word, exactly like the scalar retry. No word
    // is drawn that the scalar sequence would not draw, so the state
    // afterwards matches the scalar calls bit for bit.
    const std::uint64_t threshold = lemire_threshold(n);
    std::uint64_t s0 = state_[0];
    std::uint64_t s1 = state_[1];
    std::uint64_t s2 = state_[2];
    std::uint64_t s3 = state_[3];
    std::size_t produced = 0;
    while (produced < count) {
        const std::uint64_t x = rotl(s1 * 5U, 7) * 9U;
        const std::uint64_t t = s1 << 17U;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);
        std::uint64_t value;
        if (lemire_map(x, n, threshold, value)) dst[produced++] = value;
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
}

double Rng::uniform() {
    return static_cast<double>(next_u64() >> 11U) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
    PAPC_CHECK(n > 0);
    return uniform_index(n, lemire_threshold(n));
}

std::uint64_t Rng::uniform_index_excluding(std::uint64_t n,
                                           std::uint64_t excluded) {
    PAPC_CHECK(n >= 2 && excluded < n);
    std::uint64_t v = uniform_index(n - 1);
    if (v >= excluded) ++v;
    return v;
}

bool Rng::bernoulli(double p) {
    return uniform() < p;
}

double Rng::exponential(double rate) {
    PAPC_CHECK(rate > 0.0);
    // -log(1 - U) avoids log(0) since uniform() < 1.
    return -std::log1p(-uniform()) / rate;
}

double Rng::normal() {
    // Box–Muller; draws two uniforms per variate, discards the spare so the
    // generator state consumed per call is fixed (simpler reproducibility).
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return r * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double stddev) {
    return mean + stddev * normal();
}

double Rng::gamma(double shape, double scale) {
    PAPC_CHECK(shape > 0.0 && scale > 0.0);
    if (shape < 1.0) {
        // Boost to shape+1 and apply the standard power correction.
        const double u = uniform();
        return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    // Marsaglia–Tsang squeeze method.
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x = 0.0;
        double v = 0.0;
        do {
            x = normal();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
        if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v * scale;
    }
}

double Rng::weibull(double shape, double scale) {
    PAPC_CHECK(shape > 0.0 && scale > 0.0);
    return scale * std::pow(-std::log1p(-uniform()), 1.0 / shape);
}

double Rng::lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
    PAPC_CHECK(p >= 0.0 && p <= 1.0);
    if (n == 0 || p == 0.0) return 0;
    if (p == 1.0) return n;
    if (p > 0.5) return n - binomial(n, 1.0 - p);
    const double np = static_cast<double>(n) * p;
    if (np < 30.0) {
        // Inversion by sequential search over the CDF (small np only).
        const double q = 1.0 - p;
        const double s = p / q;
        double f = std::pow(q, static_cast<double>(n));
        double u = uniform();
        std::uint64_t x = 0;
        while (u > f && x < n) {
            u -= f;
            ++x;
            f *= s * (static_cast<double>(n - x + 1) / static_cast<double>(x));
        }
        return x;
    }
    // Normal approximation with continuity correction, clamped.
    const double sigma = std::sqrt(np * (1.0 - p));
    for (;;) {
        const double x = normal(np, sigma);
        if (x >= -0.5 && x <= static_cast<double>(n) + 0.5) {
            const double rounded = std::floor(x + 0.5);
            return static_cast<std::uint64_t>(rounded < 0.0 ? 0.0 : rounded);
        }
    }
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
    PAPC_CHECK(!weights.empty());
    double total = 0.0;
    for (const double w : weights) {
        PAPC_CHECK(w >= 0.0);
        total += w;
    }
    PAPC_CHECK(total > 0.0);
    double target = uniform() * total;
    for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
        if (target < weights[i]) return i;
        target -= weights[i];
    }
    return weights.size() - 1;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
    std::uint64_t sm = base ^ (0x632be59bd9b4e019ULL * (index + 1));
    (void)splitmix64(sm);
    return splitmix64(sm);
}

}  // namespace papc
