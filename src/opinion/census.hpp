#pragma once

/// \file census.hpp
/// Population bookkeeping: per-opinion and per-(generation, opinion) counts,
/// and the paper's derived quantities (§2.2):
///   c_{j,i,t}  fraction of color j inside generation i,
///   α_{i,t}    ratio of dominant to second-dominant color in generation i,
///   p_{i,t}    = Σ_j c²_{j,i,t}, the same-color collision probability,
///   g_t(i)     fraction of nodes in generation i.
///
/// GenerationCensus is maintained incrementally by the engines: O(1) per
/// opinion/generation change. Each generation's row is a dense k-vector
/// of counts, allocated on first touch, so the census holds one k-row per
/// populated generation — G* = O(log log_α k + log log n) of them.

#include <cstdint>
#include <vector>

#include "opinion/types.hpp"

namespace papc {

/// Snapshot statistics of one generation's color distribution.
struct BiasStats {
    Opinion dominant = 0;          ///< color with the largest count
    Opinion runner_up = 0;         ///< second-largest (k >= 2); == dominant for k == 1
    std::uint64_t dominant_count = 0;
    std::uint64_t runner_up_count = 0;
    double alpha = 0.0;            ///< dominant/runner-up ratio; +inf encoded as large
    double collision_probability = 0.0;  ///< p = Σ c², 0 when generation empty
    std::uint64_t total = 0;       ///< nodes in the generation
};

/// Flat census over opinions only (no generations) — used by baselines.
class OpinionCensus {
public:
    OpinionCensus(std::size_t n, std::uint32_t num_opinions);

    /// Initializes from one opinion per node (entries may be kUndecided).
    void reset(const std::vector<Opinion>& opinions);

    /// Records node transition `from` -> `to` (either may be kUndecided).
    void transition(Opinion from, Opinion to);

    /// Applies one per-opinion delta block (plus an undecided delta) in a
    /// single pass — the fused-census commit of the batched round kernels,
    /// equivalent to the corresponding sequence of transition() calls.
    /// Requires deltas.size() == num_opinions().
    void apply_deltas(const std::vector<std::int64_t>& deltas,
                      std::int64_t undecided_delta);

    [[nodiscard]] std::uint64_t count(Opinion j) const;
    [[nodiscard]] std::uint64_t undecided_count() const { return undecided_; }
    [[nodiscard]] std::size_t population() const { return n_; }
    [[nodiscard]] std::uint32_t num_opinions() const;

    /// Stats over decided nodes only.
    [[nodiscard]] BiasStats stats() const;

    /// True when every node is decided and holds `j`.
    [[nodiscard]] bool unanimous(Opinion j) const;

    /// True when some opinion is held by every node.
    [[nodiscard]] bool converged() const;

    /// Fraction of all n nodes holding opinion j.
    [[nodiscard]] double fraction(Opinion j) const;

private:
    std::size_t n_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t undecided_ = 0;
};

/// Census over (generation, opinion) pairs. Generations are dense from 0 to
/// a cap that grows on demand (G* is tiny — O(log log n)).
class GenerationCensus {
public:
    GenerationCensus(std::size_t n, std::uint32_t num_opinions);

    /// All nodes start in generation 0 with the given opinions.
    void reset(const std::vector<Opinion>& opinions);

    /// Rebuilds from full per-node generation and opinion sequences.
    void rebuild(const std::vector<Generation>& generations,
                 const std::vector<Opinion>& opinions);

    /// Records a node moving (gen_from, op_from) -> (gen_to, op_to).
    void transition(Generation gen_from, Opinion op_from,
                    Generation gen_to, Opinion op_to);

    /// Applies a row-major (generation, opinion) delta block covering
    /// generations [0, rows): deltas[g * num_opinions() + j] is the net
    /// node-count change of (g, j) — the batched kernels' fused-census
    /// commit, equivalent to the corresponding sequence of transition()
    /// calls. Grows the generation cap on demand. Requires
    /// deltas.size() >= rows * k.
    void apply_deltas(const std::vector<std::int64_t>& deltas,
                      Generation rows);

    [[nodiscard]] std::size_t population() const { return n_; }
    [[nodiscard]] std::uint32_t num_opinions() const { return k_; }

    /// Highest generation that currently holds at least one node.
    [[nodiscard]] Generation highest_populated() const;

    /// Number of nodes in generation i (0 for never-populated generations).
    [[nodiscard]] std::uint64_t generation_size(Generation i) const;

    /// g_t(i): fraction of all nodes in generation i.
    [[nodiscard]] double generation_fraction(Generation i) const;

    /// Count of color j within generation i.
    [[nodiscard]] std::uint64_t count(Generation i, Opinion j) const;

    /// Bias statistics of generation i.
    [[nodiscard]] BiasStats stats(Generation i) const;

    /// Bias statistics of the whole population (all generations pooled).
    [[nodiscard]] BiasStats pooled_stats() const;

    /// Number of nodes in generation >= i.
    [[nodiscard]] std::uint64_t size_at_least(Generation i) const;

    /// True when all nodes share one opinion (any generations).
    [[nodiscard]] bool converged() const;

    /// Fraction of all nodes holding opinion j (any generation).
    [[nodiscard]] double opinion_fraction(Opinion j) const;

    /// Nodes holding opinion j across all generations — O(1).
    [[nodiscard]] std::uint64_t opinion_total(Opinion j) const;

    /// Heap bytes held by the row storage (RSS accounting).
    [[nodiscard]] std::size_t memory_bytes() const;

private:
    /// One generation's counts: empty until first touched, then k cells.
    using Row = std::vector<std::uint64_t>;

    void ensure_generation(Generation i);
    void refresh_highest(Generation candidate);
    void row_add(Row& row, Opinion j, std::int64_t delta);

    std::size_t n_;
    std::uint32_t k_;
    /// Per-generation rows; rows() = gen_totals_.size() grows by doubling.
    std::vector<Row> rows_;
    std::vector<std::uint64_t> gen_totals_;           ///< [generation]
    std::vector<std::uint64_t> opinion_totals_;       ///< [opinion]
    Generation highest_populated_ = 0;                ///< cached; O(1) reads
};

/// Computes BiasStats from a raw count vector (helper shared by both
/// censuses; exposed for tests).
[[nodiscard]] BiasStats stats_from_counts(const std::vector<std::uint64_t>& counts);

/// Remark 2 lower bound: p >= (α² + k - 1)/(α + k - 1)².
[[nodiscard]] double collision_probability_lower_bound(double alpha, std::uint32_t k);

}  // namespace papc
