#include "sync/algorithm1.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace papc::sync {

Algorithm1::Algorithm1(const Assignment& assignment, Schedule schedule,
                       std::size_t threads)
    : k_(assignment.num_opinions),
      schedule_(std::move(schedule)),
      state_(assignment.size()),
      next_state_(assignment.size()),
      driver_(assignment.size(), threads),
      census_(assignment.size(), assignment.num_opinions) {
    PAPC_CHECK(assignment.size() >= 2);
    for (std::size_t v = 0; v < assignment.size(); ++v) {
        state_[v] = pack_state(0, assignment.opinions[v]);
    }
    census_.reset(assignment.opinions);
    record_new_births();
}

void Algorithm1::step(Rng& rng) {
    ++round_;
    const bool two_choices = schedule_.is_two_choices_step(round_);
    if (fault_on_) begin_faulted_round();

    // A round can populate at most one generation above the current top
    // (two-choices promotes to gen(a) + 1 with gen(a) <= highest), so the
    // delta block covers exactly [0, highest + 2).
    const Generation rows = census_.highest_populated() + 2;
    const std::size_t delta_size = static_cast<std::size_t>(rows) * k_;

    const RawGather64 gather(
        byz_round_ ? reported_state_.data() : state_.data(), state_.size());
    const PackedState* state = state_.data();
    PackedState* next = next_state_.data();
    driver_.run_batched<2>(rng, round_,
                           [&](std::size_t, std::size_t base,
                               std::size_t count, const std::uint64_t* idx,
                               ShardedRoundDriver::Arena& arena) {
        arena.ensure_deltas(delta_size);
        std::int64_t* deltas = arena.deltas.data();
        gather_decide<2>(gather, idx, count,
                         [&](std::size_t i, const std::uint64_t* v) {
            const PackedState wa = v[0];
            const PackedState wb = v[1];
            // wlog gen(a) >= gen(b)  (Algorithm 1 line 2); branchless
            // select — the generation order of two random peers is the
            // least predictable branch of the round.
            const PackedState hi = (wa >> 32U) >= (wb >> 32U) ? wa : wb;
            const PackedState wv = state[base + i];

            PackedState wn = wv;
            if (two_choices && (wv >> 32U) <= (hi >> 32U) && wa == wb) {
                // Two-choices step (line 3-5): same generation AND same
                // color collapses to one 64-bit equality; promotion past
                // the samples is one add on the packed word.
                wn = hi + (1ULL << 32U);
            } else if ((hi >> 32U) > (wv >> 32U)) {
                // Propagation step (line 6-8): pull color and generation
                // from the higher-generation sample in one word copy.
                wn = hi;
            }
            next[base + i] = wn;
            if (wn != wv) {
                --deltas[(wv >> 32U) * k_ + packed_opinion(wv)];
                ++deltas[(wn >> 32U) * k_ + packed_opinion(wn)];
            }
        });
    });

    if (fault_on_) revert_frozen_round();
    state_.swap(next_state_);
    // Worker-order merge on the driving thread; integer deltas commute, so
    // any shard-to-worker assignment sums to the same census. Every
    // subset-of-shards' departures from a (gen, opinion) cell are bounded
    // by the cell's global count, so intermediate per-worker applications
    // never underflow. Arenas a worker never touched this round keep
    // their all-zero (possibly undersized) buffers and are skipped.
    for (std::size_t w = 0; w < driver_.threads(); ++w) {
        ShardedRoundDriver::Arena& arena = driver_.arena(w);
        if (arena.deltas.size() < delta_size) continue;
        census_.apply_deltas(arena.deltas, rows);
        std::fill(arena.deltas.begin(),
                  arena.deltas.begin() + static_cast<std::ptrdiff_t>(delta_size),
                  0);
    }
    // Undo the census effect of the reverted frozen-node updates before
    // birth recording sees the round's final census.
    for (const auto& [applied, restored] : reverts_) {
        census_.transition(packed_generation(applied), packed_opinion(applied),
                           packed_generation(restored),
                           packed_opinion(restored));
    }
    reverts_.clear();
    record_new_births();
}

void Algorithm1::set_fault_injector(const fault::Injector* injector) {
    injector_ = injector;
    fault_on_ = injector != nullptr &&
                (injector->crash_active() || injector->byzantine_active());
    byz_round_ = false;
}

void Algorithm1::begin_faulted_round() {
    byz_round_ = injector_->byzantine_active();
    if (!byz_round_) return;
    reported_state_ = state_;
    fault::ByzantineReports reports = injector_->byzantine_reports(
        round_, k_, [this](Opinion j) { return census_.opinion_total(j); });
    for (const NodeId v : injector_->byzantine_nodes()) {
        reported_state_[v] =
            (reported_state_[v] & ~0xFFFFFFFFULL) | reports.next();
    }
}

void Algorithm1::freeze_node(NodeId v) {
    const PackedState restored = state_[v];
    const PackedState applied = next_state_[v];
    if (applied != restored) {
        next_state_[v] = restored;
        reverts_.emplace_back(applied, restored);
    }
}

void Algorithm1::revert_frozen_round() {
    if (injector_->crash_active()) {
        const auto t = static_cast<double>(round_);
        const std::size_t n = state_.size();
        for (NodeId v = 0; v < n; ++v) {
            if (!injector_->is_down(v, t)) continue;
            ++crash_skips_;
            freeze_node(v);
        }
    }
    for (const NodeId v : injector_->byzantine_nodes()) freeze_node(v);
}

std::uint64_t Algorithm1::opinion_count(Opinion j) const {
    return census_.opinion_total(j);
}

std::size_t Algorithm1::memory_bytes() const {
    return (state_.capacity() + next_state_.capacity()) * sizeof(PackedState) +
           census_.memory_bytes() + driver_.arena_bytes();
}

void Algorithm1::record_new_births() {
    // Only generations first populated this round are summarized; the
    // cached highest_populated makes a quiet round O(1) here.
    const Generation highest = census_.highest_populated();
    while (births_.size() <= highest) {
        const auto g = static_cast<Generation>(births_.size());
        const BiasStats stats = census_.stats(g);
        GenerationBirth birth;
        birth.generation = g;
        birth.round = round_;
        birth.size = stats.total;
        birth.alpha = stats.alpha;
        birth.collision_probability = stats.collision_probability;
        births_.push_back(birth);
    }
}

}  // namespace papc::sync
