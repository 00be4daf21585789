#include "sync/baselines.hpp"

#include "support/check.hpp"

namespace papc::sync {

ColorVectorDynamics::ColorVectorDynamics(const Assignment& assignment,
                                         bool allow_undecided,
                                         std::size_t threads)
    : colors_(assignment.opinions, assignment.num_opinions),
      next_colors_(assignment.size(), assignment.num_opinions),
      census_(assignment.size(), assignment.num_opinions),
      driver_(assignment.size(), threads) {
    PAPC_CHECK(assignment.size() >= 2);
    if (!allow_undecided) {
        for (const Opinion c : assignment.opinions) PAPC_CHECK(c != kUndecided);
    }
    census_.reset(assignment.opinions);
    // Worker-arena delta buffers: exactly k entries each, zeroed — the
    // between-rounds invariant commit_round() re-establishes.
    for (std::size_t w = 0; w < driver_.threads(); ++w) {
        driver_.arena(w).deltas.assign(assignment.num_opinions, 0);
    }
}

void ColorVectorDynamics::commit_round() {
    if (fault_on_) revert_frozen_round();
    colors_.swap(next_colors_);
    // Worker order: deterministic regardless of which shards a worker ran
    // (integer deltas commute, so any partition of the shard set sums to
    // the same census).
    for (std::size_t w = 0; w < driver_.threads(); ++w) {
        ShardedRoundDriver::Arena& arena = driver_.arena(w);
        census_.apply_deltas(arena.deltas, arena.undecided);
        std::fill(arena.deltas.begin(), arena.deltas.end(), 0);
        arena.undecided = 0;
    }
    // Undo the census effect of the reverted frozen-node updates (their
    // transitions were noted in the arenas during the round).
    for (const auto& [applied, restored] : reverts_) {
        census_.transition(applied, restored);
    }
    reverts_.clear();
    ++round_;
}

void ColorVectorDynamics::set_fault_injector(const fault::Injector* injector) {
    injector_ = injector;
    fault_on_ = injector != nullptr &&
                (injector->crash_active() || injector->byzantine_active());
    byz_round_ = false;
}

void ColorVectorDynamics::begin_faulted_round() {
    byz_round_ = injector_->byzantine_active();
    if (!byz_round_) return;
    // Copy-on-round overlay: byzantine nodes lie to samplers; everything
    // else reports truthfully. O(n/lanes-per-word) words per round, paid
    // only while the byzantine layer is active.
    reported_ = colors_;
    fault::ByzantineReports reports = injector_->byzantine_reports(
        round_ + 1, census_.num_opinions(),
        [this](Opinion j) { return census_.count(j); });
    for (const NodeId v : injector_->byzantine_nodes()) {
        reported_.set(v, reports.next());
    }
}

void ColorVectorDynamics::freeze_node(NodeId v) {
    const Opinion restored = colors_.get(v);
    const Opinion applied = next_colors_.get(v);
    if (applied != restored) {
        next_colors_.set(v, restored);
        reverts_.emplace_back(applied, restored);
    }
}

void ColorVectorDynamics::revert_frozen_round() {
    if (injector_->crash_active()) {
        // Round-number time axis: the round just computed is round_ + 1.
        const auto t = static_cast<double>(round_ + 1);
        const std::size_t n = colors_.size();
        for (NodeId v = 0; v < n; ++v) {
            if (!injector_->is_down(v, t)) continue;
            ++crash_skips_;
            freeze_node(v);
        }
    }
    // Byzantine nodes keep their true state (their kernel draws are
    // discarded — idempotent with the crash freeze above).
    for (const NodeId v : injector_->byzantine_nodes()) freeze_node(v);
}

std::size_t ColorVectorDynamics::memory_bytes() const {
    return colors_.memory_bytes() + next_colors_.memory_bytes() +
           census_.num_opinions() * sizeof(std::uint64_t) +
           driver_.arena_bytes();
}

PullVoting::PullVoting(const Assignment& assignment, std::size_t threads)
    : ColorVectorDynamics(assignment, /*allow_undecided=*/false, threads) {}

void PullVoting::step(Rng& rng) {
    if (fault_on()) begin_faulted_round();
    const PackedGather gather(sample_source());
    run_shards<1>(rng, [&](std::size_t base, std::size_t count,
                           const std::uint64_t* idx, const Opinion* own,
                           OpinionDeltaAccumulator::View note) {
        PackedOpinionArray::Writer out(next_colors_, base);
        gather_decide<1>(gather, idx, count,
                         [&](std::size_t i, const Opinion* v) {
            const Opinion seen = v[0];
            note.note(own[i], seen);
            out.push(seen);
        });
        out.finish();
    });
    commit_round();
}

TwoChoices::TwoChoices(const Assignment& assignment, std::size_t threads)
    : ColorVectorDynamics(assignment, /*allow_undecided=*/false, threads) {}

void TwoChoices::step(Rng& rng) {
    if (fault_on()) begin_faulted_round();
    const PackedGather gather(sample_source());
    run_shards<2>(rng, [&](std::size_t base, std::size_t count,
                           const std::uint64_t* idx, const Opinion* own,
                           OpinionDeltaAccumulator::View note) {
        PackedOpinionArray::Writer out(next_colors_, base);
        gather_decide<2>(gather, idx, count,
                         [&](std::size_t i, const Opinion* v) {
            const Opinion a = v[0];
            const Opinion b = v[1];
            const Opinion mine = own[i];
            const Opinion next = (a == b) ? a : mine;
            note.note(mine, next);
            out.push(next);
        });
        out.finish();
    });
    commit_round();
}

ThreeMajority::ThreeMajority(const Assignment& assignment, std::size_t threads)
    : ColorVectorDynamics(assignment, /*allow_undecided=*/false, threads) {}

void ThreeMajority::step(Rng& rng) {
    if (fault_on()) begin_faulted_round();
    run_shards_inline(rng, [&](std::size_t base, std::size_t count, Rng& sub,
                               OpinionDeltaAccumulator::View note,
                               BufferedSampler& sampler) {
        run_shard(base, count, sub, note, sampler);
    });
    commit_round();
}

/// One shard's inline decide loop, a named function so the optimizer
/// treats it as a single unit (hoists, schedules) instead of a lambda
/// nest; the rejection thresholds are hoisted by hand.
void ThreeMajority::run_shard(std::size_t base, std::size_t count, Rng& sub,
                              OpinionDeltaAccumulator::View note,
                              BufferedSampler& sampler) {
    const auto n = static_cast<std::uint64_t>(colors_.size());
    const std::uint64_t threshold = lemire_threshold(n);
    const std::uint64_t tie_threshold = lemire_threshold(3);
    const PackedOpinionArray& src = sample_source();
    PackedOpinionArray::Writer out(next_colors_, base);
    sampler.reset();  // previous shard's substream words are dead
    // Predicts the gather target of the draw ~12 nodes ahead from the
    // sampler's buffered raw words (exact unless a rejection or tie-break
    // shifts the stream in between — then it is merely a wasted hint).
    const auto prefetch_future = [&](std::size_t ahead) {
        std::uint64_t target = 0;
        // threshold 0: never reject — a stale word only wastes the hint.
        (void)lemire_map(sampler.peek_raw(ahead), n, 0, target);
        src.prefetch(target);
    };
    for (std::size_t i = 0; i < count; ++i) {
        prefetch_future(3 * kPrefetchAhead);
        prefetch_future(3 * kPrefetchAhead + 1);
        prefetch_future(3 * kPrefetchAhead + 2);
        const Opinion a = src.get(sampler.uniform_index(sub, n, threshold));
        const Opinion b = src.get(sampler.uniform_index(sub, n, threshold));
        const Opinion c = src.get(sampler.uniform_index(sub, n, threshold));
        Opinion adopted;
        if (a == b || a == c) {
            adopted = a;
        } else if (b == c) {
            adopted = b;
        } else {
            // All three differ: adopt one of the samples u.a.r. [BCN+14].
            const std::uint64_t pick =
                sampler.uniform_index(sub, 3, tie_threshold);
            adopted = pick == 0 ? a : (pick == 1 ? b : c);
        }
        note.note(colors_.get(base + i), adopted);
        out.push(adopted);
    }
    out.finish();
}

UndecidedState::UndecidedState(const Assignment& assignment,
                               std::size_t threads)
    : ColorVectorDynamics(assignment, /*allow_undecided=*/true, threads) {}

void UndecidedState::step(Rng& rng) {
    if (fault_on()) begin_faulted_round();
    const PackedGather gather(sample_source());
    run_shards<1>(rng, [&](std::size_t base, std::size_t count,
                           const std::uint64_t* idx, const Opinion* own,
                           OpinionDeltaAccumulator::View note) {
        PackedOpinionArray::Writer out(next_colors_, base);
        gather_decide<1>(gather, idx, count,
                         [&](std::size_t i, const Opinion* v) {
            const Opinion mine = own[i];
            const Opinion seen = v[0];
            Opinion next = mine;
            if (mine == kUndecided) {
                next = seen;  // may remain undecided
            } else if (seen != kUndecided && seen != mine) {
                next = kUndecided;
            }
            note.note(mine, next);
            out.push(next);
        });
        out.finish();
    });
    commit_round();
}

}  // namespace papc::sync
