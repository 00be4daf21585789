#pragma once

/// \file baselines.hpp
/// Synchronous baseline dynamics the paper positions itself against (§1.1):
///   - pull voting           [HP01, NIY99]: adopt one random sample.
///   - two-choices voting    [CER14]: adopt iff two samples agree.
///   - 3-majority            [BCN+14]: adopt the majority of three samples,
///                           ties broken by adopting a random sample.
///   - undecided-state       [AAE08, BCN+15]: one sample; conflicting colors
///                           make a node undecided, undecided nodes adopt.
/// All run in the same synchronous double-buffered round model as
/// Algorithm 1 and satisfy the SyncDynamics interface. Since PR 4 the
/// rounds run through the batched block kernels of round_kernel.hpp
/// (index batch + strip gather + fused census deltas); 3-majority's
/// data-dependent tie-break keeps the scalar decide order and batches
/// only the raw RNG stream through a BufferedSampler. Since PR 5 the
/// blocks are shards of a ShardedRoundDriver: every shard draws from its
/// own Rng::substream(round, shard), so a `threads` constructor argument
/// > 1 parallelizes the round without changing any fixed-seed result
/// (bit-identical at every thread count).
///
/// Since PR 7 the color state is a PackedOpinionArray — ⌈log2(k+1)⌉-bit
/// lanes rounded to a power of two, so a k <= 15 run stores 4 bits per
/// node instead of 32 and the random-gather working set shrinks 8x (the
/// hot-path win at huge n; see opinion/packed_array.hpp). Samples are
/// gathered through the SIMD-dispatched PackedGather into strip buffers;
/// next-state writes stream through PackedOpinionArray::Writer (shards
/// never share a packed word). Census deltas accumulate per WORKER in the
/// driver's arenas and commit in worker order — integer deltas commute,
/// so results stay bit-identical to the per-shard scheme (unchanged
/// golden hashes in tests/sync/kernel_golden_test.cpp).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "opinion/assignment.hpp"
#include "opinion/census.hpp"
#include "opinion/packed_array.hpp"
#include "opinion/types.hpp"
#include "sync/engine.hpp"
#include "sync/round_kernel.hpp"

namespace papc::sync {

/// Shared state/bookkeeping for color-vector dynamics.
class ColorVectorDynamics : public SyncDynamics {
public:
    ColorVectorDynamics(const Assignment& assignment, bool allow_undecided,
                        std::size_t threads);

    [[nodiscard]] std::size_t population() const override { return colors_.size(); }
    [[nodiscard]] std::uint32_t num_opinions() const override {
        return census_.num_opinions();
    }
    [[nodiscard]] std::uint64_t opinion_count(Opinion j) const override {
        return census_.count(j);
    }
    [[nodiscard]] std::uint64_t undecided_count() const override {
        return census_.undecided_count();
    }
    [[nodiscard]] std::uint64_t rounds() const override { return round_; }
    [[nodiscard]] std::size_t memory_bytes() const override;

    [[nodiscard]] Opinion color(NodeId v) const { return colors_.get(v); }

    /// Bits per node of the packed color state (memory-anatomy counters).
    [[nodiscard]] unsigned lane_bits() const { return colors_.lane_bits(); }

    void set_fault_injector(const fault::Injector* injector) override;
    [[nodiscard]] std::uint64_t fault_crash_skips() const override {
        return crash_skips_;
    }

protected:
    /// Pre-round fault hook (call at step() start when fault_on_): builds
    /// the byzantine "reported" overlay for the round being computed.
    /// Byzantine nodes lie to samplers; their true colors_ state (and the
    /// own-color reads of the kernels) is untouched.
    void begin_faulted_round();

    /// Where samplers read from this round: the byzantine overlay when one
    /// is active, else the true colors. Kernels must gather through this.
    [[nodiscard]] const PackedOpinionArray& sample_source() const {
        return byz_round_ ? reported_ : colors_;
    }

    /// True when a crash or byzantine layer is attached (fast-path gate).
    [[nodiscard]] bool fault_on() const { return fault_on_; }
    /// Applies the buffered next_colors_ and commits every worker arena's
    /// fused census deltas in worker order (re-establishing the arenas'
    /// all-zero invariant).
    void commit_round();

    /// Runs the round being computed (round_ + 1) shard by shard with the
    /// per-shard index batch pre-drawn: block(base, count, idx, own, note)
    /// where own[i] is node base + i's current color and `note`
    /// accumulates census deltas into the running worker's arena. The
    /// shard's own colors are decoded word-wise into arena scratch up
    /// front (PackedOpinionArray::decode_range) — sequential decode is
    /// ~8 lanes per word load, where per-node colors_.get(base + i)
    /// inside the decide loop pays a load, a variable shift, and a
    /// sentinel compare every node.
    template <int kDraws, typename BlockFn>
    void run_shards(Rng& rng, BlockFn&& block) {
        driver_.run_batched<kDraws>(
            rng, round_ + 1,
            [&](std::size_t, std::size_t base, std::size_t count,
                const std::uint64_t* idx, ShardedRoundDriver::Arena& arena) {
                arena.ensure_lanes(count);
                colors_.decode_range(base, count, arena.lanes.data());
                block(base, count, idx,
                      static_cast<const Opinion*>(arena.lanes.data()),
                      OpinionDeltaAccumulator::View(arena.deltas.data(),
                                                    &arena.undecided));
            });
    }

    /// Same shard schedule without the index batch — the shard body draws
    /// inline from the substream: fn(base, count, sub, note, sampler)
    /// with `sampler` the worker arena's raw-stream sampler. Consuming
    /// the substream via sampler.uniform_index gives bit-identical
    /// results to the batched variant (the uniform_indices contract).
    template <typename ShardFn>
    void run_shards_inline(Rng& rng, ShardFn&& fn) {
        driver_.for_each_shard(
            rng, round_ + 1,
            [&](std::size_t, std::size_t base, std::size_t count,
                Rng& sub, std::size_t worker) {
                ShardedRoundDriver::Arena& arena = driver_.arena(worker);
                fn(base, count, sub,
                   OpinionDeltaAccumulator::View(arena.deltas.data(),
                                                 &arena.undecided),
                   arena.sampler);
            });
    }

    PackedOpinionArray colors_;
    PackedOpinionArray next_colors_;
    OpinionCensus census_;
    ShardedRoundDriver driver_;
    std::uint64_t round_ = 0;

private:
    /// Pre-swap revert of frozen (crashed or byzantine) nodes' updates in
    /// next_colors_, queueing census corrections for commit_round.
    void revert_frozen_round();
    void freeze_node(NodeId v);

    const fault::Injector* injector_ = nullptr;
    bool fault_on_ = false;   ///< crash or byzantine layer attached
    bool byz_round_ = false;  ///< reported_ overlay valid this round
    PackedOpinionArray reported_;
    /// (applied, restored) color pairs to undo in the census at commit.
    std::vector<std::pair<Opinion, Opinion>> reverts_;
    std::uint64_t crash_skips_ = 0;
};

/// Pull voting: adopt the opinion of one uniformly random node.
class PullVoting final : public ColorVectorDynamics {
public:
    explicit PullVoting(const Assignment& assignment, std::size_t threads = 1);
    void step(Rng& rng) override;
    [[nodiscard]] std::string name() const override { return "pull-voting"; }
};

/// Two-choices: sample two nodes, adopt their opinion iff they agree.
class TwoChoices final : public ColorVectorDynamics {
public:
    explicit TwoChoices(const Assignment& assignment, std::size_t threads = 1);
    void step(Rng& rng) override;
    [[nodiscard]] std::string name() const override { return "two-choices"; }
};

/// 3-majority: sample three nodes; adopt the majority color, or a uniformly
/// random sampled color when all three differ.
class ThreeMajority final : public ColorVectorDynamics {
public:
    explicit ThreeMajority(const Assignment& assignment,
                           std::size_t threads = 1);
    void step(Rng& rng) override;
    [[nodiscard]] std::string name() const override { return "3-majority"; }

private:
    /// Tie-breaks make the per-node draw count data-dependent, so this
    /// kernel batches the raw stream only (see round_kernel.hpp), through
    /// the worker arena's sampler (reset at every shard boundary).
    void run_shard(std::size_t base, std::size_t count, Rng& sub,
                   OpinionDeltaAccumulator::View note, BufferedSampler& sampler);
};

/// Undecided-state dynamics for k opinions (gossip/pull variant):
/// a decided node seeing a different decided color becomes undecided; an
/// undecided node adopts the sampled color (stays undecided when sampling
/// an undecided node).
class UndecidedState final : public ColorVectorDynamics {
public:
    explicit UndecidedState(const Assignment& assignment,
                            std::size_t threads = 1);
    void step(Rng& rng) override;
    [[nodiscard]] std::string name() const override { return "undecided-state"; }
};

}  // namespace papc::sync
