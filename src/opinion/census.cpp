#include "opinion/census.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace papc {

BiasStats stats_from_counts(const std::vector<std::uint64_t>& counts) {
    const std::size_t k = counts.size();
    BiasStats s;
    std::uint64_t total = 0;
    for (std::size_t j = 0; j < k; ++j) total += counts[j];
    s.total = total;
    if (total == 0) return s;

    // Find the two largest counts.
    std::size_t best = 0;
    std::size_t second = k;  // sentinel: unset
    for (std::size_t j = 1; j < k; ++j) {
        if (counts[j] > counts[best]) {
            second = best;
            best = j;
        } else if (second == k || counts[j] > counts[second]) {
            second = j;
        }
    }
    s.dominant = static_cast<Opinion>(best);
    s.dominant_count = counts[best];
    if (second == k) {
        s.runner_up = s.dominant;
        s.runner_up_count = 0;
    } else {
        s.runner_up = static_cast<Opinion>(second);
        s.runner_up_count = counts[second];
    }

    if (s.runner_up_count == 0) {
        s.alpha = std::numeric_limits<double>::infinity();
    } else {
        s.alpha = static_cast<double>(s.dominant_count) /
                  static_cast<double>(s.runner_up_count);
    }

    double p = 0.0;
    const double tot = static_cast<double>(total);
    for (std::size_t j = 0; j < k; ++j) {
        const double f = static_cast<double>(counts[j]) / tot;
        p += f * f;
    }
    s.collision_probability = p;
    return s;
}

double collision_probability_lower_bound(double alpha, std::uint32_t k) {
    PAPC_CHECK(alpha >= 1.0);
    PAPC_CHECK(k >= 1);
    const double kd = static_cast<double>(k);
    const double denom = (alpha + kd - 1.0) * (alpha + kd - 1.0);
    return (alpha * alpha + kd - 1.0) / denom;
}

// ---------------------------------------------------------------- Opinion

OpinionCensus::OpinionCensus(std::size_t n, std::uint32_t num_opinions)
    : n_(n), counts_(num_opinions, 0) {
    PAPC_CHECK(num_opinions >= 1);
}

void OpinionCensus::reset(const std::vector<Opinion>& opinions) {
    PAPC_CHECK(opinions.size() == n_);
    for (auto& c : counts_) c = 0;
    undecided_ = 0;
    for (std::size_t v = 0; v < n_; ++v) {
        const Opinion op = opinions[v];
        if (op == kUndecided) {
            ++undecided_;
        } else {
            PAPC_CHECK(op < counts_.size());
            ++counts_[op];
        }
    }
}

void OpinionCensus::transition(Opinion from, Opinion to) {
    if (from == to) return;
    if (from == kUndecided) {
        PAPC_CHECK(undecided_ > 0);
        --undecided_;
    } else {
        PAPC_CHECK(from < counts_.size());
        PAPC_CHECK(counts_[from] > 0);
        --counts_[from];
    }
    if (to == kUndecided) {
        ++undecided_;
    } else {
        PAPC_CHECK(to < counts_.size());
        ++counts_[to];
    }
}

void OpinionCensus::apply_deltas(const std::vector<std::int64_t>& deltas,
                                 std::int64_t undecided_delta) {
    PAPC_CHECK(deltas.size() == counts_.size());
    for (std::size_t j = 0; j < counts_.size(); ++j) {
        const std::int64_t next =
            static_cast<std::int64_t>(counts_[j]) + deltas[j];
        PAPC_CHECK(next >= 0);
        counts_[j] = static_cast<std::uint64_t>(next);
    }
    const std::int64_t undecided =
        static_cast<std::int64_t>(undecided_) + undecided_delta;
    PAPC_CHECK(undecided >= 0);
    undecided_ = static_cast<std::uint64_t>(undecided);
}

std::uint64_t OpinionCensus::count(Opinion j) const {
    PAPC_CHECK(j < counts_.size());
    return counts_[j];
}

std::uint32_t OpinionCensus::num_opinions() const {
    return static_cast<std::uint32_t>(counts_.size());
}

BiasStats OpinionCensus::stats() const { return stats_from_counts(counts_); }

bool OpinionCensus::unanimous(Opinion j) const {
    PAPC_CHECK(j < counts_.size());
    return counts_[j] == n_;
}

bool OpinionCensus::converged() const {
    for (const auto c : counts_) {
        if (c == n_) return true;
    }
    return false;
}

double OpinionCensus::fraction(Opinion j) const {
    PAPC_CHECK(j < counts_.size());
    return static_cast<double>(counts_[j]) / static_cast<double>(n_);
}

// ------------------------------------------------------------- Generation

GenerationCensus::GenerationCensus(std::size_t n, std::uint32_t num_opinions)
    : n_(n), k_(num_opinions), opinion_totals_(num_opinions, 0) {
    PAPC_CHECK(num_opinions >= 1);
    ensure_generation(0);
}

void GenerationCensus::ensure_generation(Generation i) {
    if (i < gen_totals_.size()) return;
    // Grow by doubling so the row table is reallocated O(log G*) times no
    // matter how generations arrive. Fresh rows stay empty until first
    // touched.
    const std::size_t rows =
        std::max<std::size_t>(static_cast<std::size_t>(i) + 1,
                              2 * gen_totals_.size());
    rows_.resize(rows);
    gen_totals_.resize(rows, 0);
}

/// Re-derives the cached highest populated generation after rows up to
/// `candidate` may have gained or lost their last node.
void GenerationCensus::refresh_highest(Generation candidate) {
    Generation h = std::max(highest_populated_, candidate);
    if (h >= gen_totals_.size()) h = static_cast<Generation>(gen_totals_.size() - 1);
    while (h > 0 && gen_totals_[h] == 0) --h;
    highest_populated_ = h;
}

void GenerationCensus::row_add(Row& row, Opinion j, std::int64_t delta) {
    if (row.empty()) row.assign(k_, 0);
    const std::int64_t next = static_cast<std::int64_t>(row[j]) + delta;
    PAPC_CHECK(next >= 0);
    row[j] = static_cast<std::uint64_t>(next);
}

void GenerationCensus::reset(const std::vector<Opinion>& opinions) {
    PAPC_CHECK(opinions.size() == n_);
    rows_.clear();
    gen_totals_.clear();
    ensure_generation(0);
    for (auto& t : opinion_totals_) t = 0;
    Row& row0 = rows_[0];
    for (std::size_t v = 0; v < n_; ++v) {
        const Opinion op = opinions[v];
        PAPC_CHECK(op < k_);
        row_add(row0, op, 1);
        ++opinion_totals_[op];
    }
    gen_totals_[0] = n_;
    highest_populated_ = 0;
}

void GenerationCensus::rebuild(const std::vector<Generation>& generations,
                               const std::vector<Opinion>& opinions) {
    PAPC_CHECK(generations.size() == n_);
    PAPC_CHECK(opinions.size() == n_);
    rows_.clear();
    gen_totals_.clear();
    ensure_generation(0);
    for (auto& t : opinion_totals_) t = 0;
    highest_populated_ = 0;
    for (std::size_t v = 0; v < n_; ++v) {
        const Generation g = generations[v];
        const Opinion op = opinions[v];
        PAPC_CHECK(op < k_);
        ensure_generation(g);  // may reallocate rows_ — index after
        row_add(rows_[g], op, 1);
        ++gen_totals_[g];
        ++opinion_totals_[op];
        if (g > highest_populated_) highest_populated_ = g;
    }
}

void GenerationCensus::transition(Generation gen_from, Opinion op_from,
                                  Generation gen_to, Opinion op_to) {
    PAPC_CHECK(op_from < k_ && op_to < k_);
    ensure_generation(gen_to);
    PAPC_CHECK(gen_from < gen_totals_.size());
    row_add(rows_[gen_from], op_from, -1);
    --gen_totals_[gen_from];
    row_add(rows_[gen_to], op_to, +1);
    ++gen_totals_[gen_to];
    if (op_from != op_to) {
        PAPC_CHECK(opinion_totals_[op_from] > 0);
        --opinion_totals_[op_from];
        ++opinion_totals_[op_to];
    }
    refresh_highest(gen_to);
}

void GenerationCensus::apply_deltas(const std::vector<std::int64_t>& deltas,
                                    Generation rows) {
    PAPC_CHECK(deltas.size() >= static_cast<std::size_t>(rows) * k_);
    if (rows == 0) return;
    ensure_generation(rows - 1);
    for (Generation g = 0; g < rows; ++g) {
        Row& row = rows_[g];
        std::int64_t gen_delta = 0;
        for (Opinion j = 0; j < k_; ++j) {
            const std::int64_t d = deltas[static_cast<std::size_t>(g) * k_ + j];
            if (d == 0) continue;
            row_add(row, j, d);
            const std::int64_t op_next =
                static_cast<std::int64_t>(opinion_totals_[j]) + d;
            PAPC_CHECK(op_next >= 0);
            opinion_totals_[j] = static_cast<std::uint64_t>(op_next);
            gen_delta += d;
        }
        if (gen_delta != 0) {
            const std::int64_t gen_next =
                static_cast<std::int64_t>(gen_totals_[g]) + gen_delta;
            PAPC_CHECK(gen_next >= 0);
            gen_totals_[g] = static_cast<std::uint64_t>(gen_next);
        }
    }
    refresh_highest(rows - 1);
}

Generation GenerationCensus::highest_populated() const {
    return highest_populated_;
}

std::uint64_t GenerationCensus::generation_size(Generation i) const {
    if (i >= gen_totals_.size()) return 0;
    return gen_totals_[i];
}

double GenerationCensus::generation_fraction(Generation i) const {
    return static_cast<double>(generation_size(i)) / static_cast<double>(n_);
}

std::uint64_t GenerationCensus::count(Generation i, Opinion j) const {
    PAPC_CHECK(j < k_);
    if (i >= gen_totals_.size() || rows_[i].empty()) return 0;
    return rows_[i][j];
}

BiasStats GenerationCensus::stats(Generation i) const {
    if (i >= gen_totals_.size()) return BiasStats{};
    return stats_from_counts(rows_[i]);
}

BiasStats GenerationCensus::pooled_stats() const {
    return stats_from_counts(opinion_totals_);
}

std::uint64_t GenerationCensus::size_at_least(Generation i) const {
    std::uint64_t total = 0;
    for (std::size_t g = i; g < gen_totals_.size(); ++g) total += gen_totals_[g];
    return total;
}

bool GenerationCensus::converged() const {
    for (const auto t : opinion_totals_) {
        if (t == n_) return true;
    }
    return false;
}

double GenerationCensus::opinion_fraction(Opinion j) const {
    PAPC_CHECK(j < k_);
    return static_cast<double>(opinion_totals_[j]) / static_cast<double>(n_);
}

std::uint64_t GenerationCensus::opinion_total(Opinion j) const {
    PAPC_CHECK(j < k_);
    return opinion_totals_[j];
}

std::size_t GenerationCensus::memory_bytes() const {
    std::size_t bytes = rows_.capacity() * sizeof(Row) +
                        gen_totals_.capacity() * sizeof(std::uint64_t) +
                        opinion_totals_.capacity() * sizeof(std::uint64_t);
    for (const Row& row : rows_) bytes += row.capacity() * sizeof(std::uint64_t);
    return bytes;
}

}  // namespace papc
