#pragma once

/// \file random.hpp
/// Deterministic random-number generation for the whole library.
///
/// All stochastic behaviour in papc flows from a single 64-bit seed through
/// splitmix64 (for state expansion / stream derivation) into xoshiro256**.
/// Samplers are implemented by hand rather than with `std::` distributions so
/// that a given seed produces identical runs on every platform and standard
/// library — reproducibility of experiments is a core requirement.

#include <array>
#include <cstdint>
#include <vector>

namespace papc {

/// splitmix64 step; used to expand seeds and derive independent streams.
std::uint64_t splitmix64(std::uint64_t& state);

/// Rejection threshold of Lemire's unbiased multiply-shift for range n:
/// raw words whose low product half falls below it must be redrawn.
/// Involves a 64-bit division — callers hoist it out of their draw loops
/// (for loop-invariant n the compiler does it for free).
inline std::uint64_t lemire_threshold(std::uint64_t n) {
    return (0ULL - n) % n;
}

/// Lemire's unbiased multiply-shift: maps raw word `x` into [0, n) via
/// `index`, or returns false when `x` falls in the rejected band (the
/// caller retries with the next raw word). `threshold` must be
/// lemire_threshold(n); since it is < n, the accept test is one compare.
/// This is the single definition shared by the scalar
/// (`Rng::uniform_index`), batched (`Rng::uniform_indices`) and buffered
/// (`sync::BufferedSampler`) samplers — the bit-identical determinism
/// contract between them depends on this logic never diverging.
inline bool lemire_map(std::uint64_t x, std::uint64_t n,
                       std::uint64_t threshold, std::uint64_t& index) {
    const __uint128_t m =
        static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    if (static_cast<std::uint64_t>(m) < threshold) return false;  // rejected
    index = static_cast<std::uint64_t>(m >> 64U);
    return true;
}

/// xoshiro256** 1.0 by Blackman & Vigna — fast, high-quality, 256-bit state.
class Rng {
public:
    /// Seeds the four state words via splitmix64 from a single seed.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /// Derives a statistically independent generator from this one. The
    /// child is *reseeded* (two parent outputs folded through splitmix64
    /// into a fresh 256-bit state) — this is NOT a xoshiro jump, so
    /// non-overlap of the two sequences is probabilistic, not structural:
    /// two random 256-bit states collide on a window of length L with
    /// probability ~ L·2^-256, which is negligible for any simulation but
    /// not a hard guarantee. The parent advances by two draws, so repeated
    /// splits give distinct children. tests/support/random_test.cpp pins
    /// the parent/child non-overlap empirically on 1e6 draws.
    [[nodiscard]] Rng split();

    /// Derives a labeled, statistically independent generator as a pure
    /// function of (current state, a, b): the parent does NOT advance, so
    /// the same labels always yield the same stream. This is the sharded
    /// sync kernels' determinism primitive — shard s of round r draws from
    /// substream(r, s), which depends only on the parent's state at round
    /// start and the labels, never on which thread runs the shard or in
    /// what order (the round driver advances the parent once per round
    /// itself, on the driving thread — see ShardedRoundDriver). Like
    /// split(), the child is a reseed: state and labels fold into ONE
    /// 64-bit value that seeds the child, so two label pairs collide on
    /// the entire stream with probability ~2^-64 (a birthday bound of
    /// ~pairs^2 / 2^65 per run — fine for shards x rounds scales, but a
    /// 64-bit bottleneck, not a 2^-256 guarantee). Distinct labels
    /// giving distinct streams is pinned in
    /// tests/support/random_test.cpp.
    [[nodiscard]] Rng substream(std::uint64_t a, std::uint64_t b) const;

    /// Uniform 64-bit value.
    std::uint64_t next_u64();

    /// Fills dst[0..count) with the next `count` outputs of the generator —
    /// the same values, in the same order, as `count` calls to next_u64()
    /// (the state is kept in registers across the block, which is the whole
    /// point). dst may be null when count == 0.
    void fill_u64(std::uint64_t* dst, std::size_t count);

    /// Fills dst[0..count) with uniform indices in [0, n) — bit-identical
    /// to `count` calls of uniform_index(n), including the raw words burned
    /// by Lemire rejections, so the generator state afterwards matches the
    /// scalar sequence exactly. This is the sync-round kernels' batch
    /// primitive: one tight multiply-shift loop over blocks of raw words.
    void uniform_indices(std::uint64_t n, std::uint64_t* dst,
                         std::size_t count);

    /// Uniform double in [0, 1) with 53 bits of precision.
    double uniform();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's unbiased
    /// multiply-shift rejection method.
    std::uint64_t uniform_index(std::uint64_t n);

    /// Same with the rejection threshold precomputed by the caller
    /// (`threshold` must be lemire_threshold(n)); uniform_index(n)
    /// delegates here. Hot per-draw loops hoist the 64-bit division this
    /// way when the optimizer cannot prove n loop-invariant across an
    /// inlined lambda chain (BufferedSampler has the matching overload
    /// for the sharded kernels' inline-draw paths).
    std::uint64_t uniform_index(std::uint64_t n, std::uint64_t threshold) {
        std::uint64_t index;
        while (!lemire_map(next_u64(), n, threshold, index)) {
        }
        return index;
    }

    /// Uniform integer in [0, n) \ {excluded}. Requires n >= 2 and
    /// excluded < n. One draw (shift-over-hole), no rejection loop — the
    /// peer-sampling primitive shared by every engine family.
    std::uint64_t uniform_index_excluding(std::uint64_t n, std::uint64_t excluded);

    /// Bernoulli trial with success probability p.
    bool bernoulli(double p);

    /// Exponential with given rate (mean 1/rate). Requires rate > 0.
    double exponential(double rate);

    /// Standard normal via Box–Muller (deterministic, no cached spare).
    double normal();

    /// Normal with given mean and standard deviation.
    double normal(double mean, double stddev);

    /// Gamma(shape, scale) via Marsaglia–Tsang; shape > 0, scale > 0.
    double gamma(double shape, double scale);

    /// Weibull(shape, scale) via inversion.
    double weibull(double shape, double scale);

    /// Log-normal: exp(Normal(mu, sigma)).
    double lognormal(double mu, double sigma);

    /// Binomial(n, p) — exact by inversion for small n·p, normal
    /// approximation with continuity correction clamped to [0, n] otherwise.
    std::uint64_t binomial(std::uint64_t n, double p);

    /// Samples an index in [0, weights.size()) proportionally to weights.
    /// Linear scan; intended for small weight vectors (k opinions).
    std::size_t discrete(const std::vector<double>& weights);

    /// Fisher–Yates shuffle of an index range stored in `v`.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(uniform_index(i));
            std::swap(v[i - 1], v[j]);
        }
    }

private:
    std::array<std::uint64_t, 4> state_;
};

/// Derives a per-repetition seed from a base seed and a repetition index.
/// Stable across versions: hash-mixes the pair through splitmix64.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

}  // namespace papc
