#pragma once

/// \file round_kernel.hpp
/// Shared building blocks of the batched synchronous round kernels (PR 4),
/// the sharded round executor on top of them (PR 5), and the SIMD gather +
/// arena layer (PR 7).
///
/// Every sync-family engine advances n independent nodes per round, each
/// node deciding from one to three uniform peer samples. The scalar loops
/// interleaved the (serially dependent) RNG state update, the random
/// gather, and the decide branch per node; the kernels here split a round
/// into blocks of kRoundBlock nodes and run three phases per block:
///
///   1. index batch — Rng::uniform_indices fills a block of peer indices
///      in one tight Lemire loop (bit-identical to scalar draw order);
///   2. gather + decide — a Gatherer fills a kGatherStrip-node strip
///      buffer with the sampled values (AVX2 `vpgatherqq` when the CPU
///      has it — see sync/simd_gather.hpp — with strip s + 1's lines
///      prefetched while strip s fills), then the decide loop reads the
///      strip sequentially;
///   3. fused census — count deltas accumulate inside the write loop and
///      are applied at commit, deleting the per-round census rescan.
///
/// Sharding (PR 5): the kRoundBlock block is also the parallel unit.
/// ShardedRoundDriver gives shard s of round r its own RNG substream
/// Rng::substream(r, s) — a pure function of the run generator's state
/// and the labels — and runs shards on a reusable support::ThreadPool.
///
/// Arenas (PR 7): all per-shard scratch — the index batch, the fused
/// census delta buffer, the raw-stream sampler — lives in one per-WORKER
/// Arena allocated once by the driver, not in per-shard buffers. At
/// n = 2^24 the old per-shard Algorithm 1 delta blocks alone were
/// shards × rows × k × 8 B of RSS (tens of MiB) re-zeroed every round;
/// per-worker arenas cap that at threads × rows × k and zero it once per
/// commit. Integer census deltas commute and every cell's total departures
/// are bounded by its count, so accumulating per worker (shard-to-worker
/// assignment is scheduling-dependent) and committing in worker order
/// yields bit-identical censuses — the PR 5 determinism contract below is
/// untouched (pinned by the unchanged golden hashes).
///
/// Determinism contract (since PR 5): a round's draw schedule is fixed by
/// (run seed, round, shard index) alone — never by the thread count, the
/// worker a shard lands on, or shard completion order — so fixed-seed
/// trajectories are bit-identical at every thread count (pinned by
/// tests/sync/thread_equivalence_test.cpp and the full-state goldens in
/// tests/sync/kernel_golden_test.cpp). Protocols whose draw count is
/// data-dependent (3-majority's tie-break) keep the scalar decide order
/// within a shard by drawing through BufferedSampler, which batches the
/// raw substream but decides inline.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "opinion/census.hpp"
#include "opinion/packed_array.hpp"
#include "opinion/types.hpp"
#include "support/check.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "sync/simd_gather.hpp"

namespace papc::sync {

/// Nodes per kernel block: 4096 nodes keep the index batch (32 KiB of
/// u64), the sampled colors and the per-block deltas inside L1/L2 while
/// amortizing the batched-RNG refills. Also the sharding unit: 4096 is a
/// multiple of the lanes-per-word of every PackedOpinionArray width, so
/// shards never share a packed word (see opinion/packed_array.hpp).
inline constexpr std::size_t kRoundBlock = 4096;
static_assert(kRoundBlock % 32 == 0,
              "shards must cover whole packed words at every lane width");

/// How many nodes ahead the inline-sampling kernels (BufferedSampler
/// consumers) prefetch speculative gather targets.
inline constexpr std::size_t kPrefetchAhead = 16;

/// Issues a read prefetch for every array[idx[i]] of one block — a pure
/// load/prefetch loop whose memory-level parallelism is bounded only by
/// the cache hierarchy (the serially dependent RNG already ran in the
/// index-batch phase). One kernel block's gather set (<= 2 * 4096 lines,
/// ~512 KiB worst case) fits L2, so the gather that follows hits L2
/// instead of paying DRAM/L3 latency per random load.
template <typename T>
inline void prefetch_gather(const T* array, const std::uint64_t* idx,
                            std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
#if defined(__GNUC__) || defined(__clang__)
        // locality 2: keep the block's gather set in L2 for the decide loop.
        __builtin_prefetch(array + idx[i], 0, 2);
#else
        (void)array;
        (void)idx;
#endif
    }
}

/// Strip size of the software-pipelined gather phase: prefetching one
/// strip ahead bounds the in-flight hints to what the line-fill buffers
/// can track, while one strip of gather + decide work gives every
/// prefetched line time to arrive before it is loaded. The strip value
/// buffer (kGatherStrip * draws elements) lives on the stack — at most
/// 4 KiB.
inline constexpr std::size_t kGatherStrip = 256;

/// Gatherer over a plain u64 array: out[i] = array[idx[i]] — Algorithm 1's
/// packed (generation << 32 | opinion) state words.
struct RawGather64 {
    using Value = std::uint64_t;

    const std::uint64_t* array;
    /// Whether the AVX2 path is worth taking for this array's size
    /// (simd::u64_gather_profitable; bit-identical either way).
    bool use_simd;

    RawGather64(const std::uint64_t* a, std::size_t size)
        : array(a), use_simd(simd::u64_gather_profitable(size * 8)) {}

    void prefetch(const std::uint64_t* idx, std::size_t count) const {
        prefetch_gather(array, idx, count);
    }
    void gather(const std::uint64_t* idx, std::size_t count,
                Value* out) const {
        if (use_simd) {
            simd::gather_u64(array, idx, count, out);
        } else {
            simd::gather_u64_scalar_path(array, idx, count, out);
        }
    }
};

/// Gatherer over a bit-packed opinion array: decodes each sampled node's
/// lane (undecided sentinel included) into a plain Opinion strip.
struct PackedGather {
    using Value = Opinion;

    /// Strip prefetch only pays once the packed words outgrow L2: below
    /// ~4 MiB the random loads hit L2/L3 anyway and the per-lane prefetch
    /// instruction (plus its address shift) is pure overhead on the
    /// 1-draw protocols' hot loop. Packing is what pulls most arrays
    /// under this line — n = 2^22 at k = 8 is 2 MiB packed vs 16 MiB raw.
    static constexpr std::size_t kPrefetchMinBytes = std::size_t{4} << 20U;

    explicit PackedGather(const PackedOpinionArray& array)
        : words_(array.words()),
          log2_lane_bits_(array.log2_lane_bits()),
          index_shift_(6U - array.log2_lane_bits()),
          prefetch_(array.memory_bytes() >= kPrefetchMinBytes) {}

    void prefetch(const std::uint64_t* idx, std::size_t count) const {
        if (!prefetch_) return;
        for (std::size_t i = 0; i < count; ++i) {
#if defined(__GNUC__) || defined(__clang__)
            __builtin_prefetch(words_ + (idx[i] >> index_shift_), 0, 2);
#endif
        }
    }
    void gather(const std::uint64_t* idx, std::size_t count,
                Value* out) const {
        simd::gather_packed(words_, idx, count, log2_lane_bits_, out);
    }

private:
    const std::uint64_t* words_;
    unsigned log2_lane_bits_;
    unsigned index_shift_;
    bool prefetch_;
};

/// Gather + decide phase of one kernel block: fills a strip buffer with
/// the kDraws sampled values per node (gatherer.gather — the SIMD hot
/// loop) and runs decide(i, values) for every i in [0, count) with
/// values[d] the node's d-th sample; strip s + 1's random lines are
/// prefetched while strip s gathers and decides. The strip buffer is
/// byte-identical whichever gather path filled it, so SIMD dispatch can
/// never change a decision.
template <int kDraws, typename Gatherer, typename DecideFn>
inline void gather_decide(const Gatherer& gatherer, const std::uint64_t* idx,
                          std::size_t count, DecideFn&& decide) {
    typename Gatherer::Value strip[kGatherStrip * static_cast<std::size_t>(kDraws)];
    gatherer.prefetch(idx, static_cast<std::size_t>(kDraws) *
                               std::min(kGatherStrip, count));
    for (std::size_t s = 0; s < count; s += kGatherStrip) {
        const std::size_t end = std::min(s + kGatherStrip, count);
        if (end < count) {
            const std::size_t next_end = std::min(end + kGatherStrip, count);
            gatherer.prefetch(idx + static_cast<std::size_t>(kDraws) * end,
                              static_cast<std::size_t>(kDraws) * (next_end - end));
        }
        gatherer.gather(idx + static_cast<std::size_t>(kDraws) * s,
                        static_cast<std::size_t>(kDraws) * (end - s), strip);
        for (std::size_t i = s; i < end; ++i) {
            decide(i, strip + static_cast<std::size_t>(kDraws) * (i - s));
        }
    }
}

/// Buffered view over an Rng's raw u64 stream for kernels whose number of
/// draws per node is data-dependent. Consumption order (and hence every
/// sampled value) is identical to calling rng.uniform_index directly; the
/// only difference is that the underlying generator runs ahead by up to
/// one buffer of raw words, which is invisible to any consumer that draws
/// exclusively through this sampler.
class BufferedSampler {
public:
    explicit BufferedSampler(std::size_t capacity = kRoundBlock)
        : buf_(capacity), cursor_(capacity) {
        PAPC_CHECK(capacity > 0);
    }

    /// Discards any buffered raw words, so the next draw refills from the
    /// generator. Sharded kernels reset the per-worker sampler at every
    /// shard boundary: the abandoned words belong to the previous shard's
    /// substream, which no one will draw from again.
    void reset() { cursor_ = buf_.size(); }

    /// Uniform index in [0, n); same lemire_map rejection behaviour (and
    /// hence the same raw-word consumption) as Rng::uniform_index.
    std::uint64_t uniform_index(Rng& rng, std::uint64_t n) {
        return uniform_index(rng, n, lemire_threshold(n));
    }

    /// Same with the caller-hoisted threshold (= lemire_threshold(n)) —
    /// the per-draw 64-bit division is the dominant cost of the inline
    /// sampling kernels when the optimizer cannot hoist it itself.
    std::uint64_t uniform_index(Rng& rng, std::uint64_t n,
                                std::uint64_t threshold) {
        std::uint64_t index;
        while (!lemire_map(next_raw(rng), n, threshold, index)) {
        }
        return index;
    }

    /// Speculative peek at the raw word `ahead` positions past the cursor
    /// (0 when past the buffered window). Kernels use it to prefetch the
    /// gather target a future draw will most likely hit — a rejection in
    /// between shifts the mapping by one word, which only costs one wasted
    /// prefetch hint, never correctness.
    [[nodiscard]] std::uint64_t peek_raw(std::size_t ahead) const {
        const std::size_t at = cursor_ + ahead;
        return at < buf_.size() ? buf_[at] : 0;
    }

private:
    std::uint64_t next_raw(Rng& rng) {
        if (cursor_ == buf_.size()) {
            rng.fill_u64(buf_.data(), buf_.size());
            cursor_ = 0;
        }
        return buf_[cursor_++];
    }

    std::vector<std::uint64_t> buf_;
    std::size_t cursor_;
};

/// Sharded round executor: partitions n nodes into kRoundBlock shards,
/// derives shard s of round r its private substream rng.substream(r, s),
/// and runs shards on a reusable worker pool. The shard-to-worker
/// assignment is scheduling-dependent; results are not, because every
/// per-shard output (next-state slice, arena delta accumulation) is
/// either owned by the shard or commutative-summed per worker and merged
/// in worker order by the caller. threads == 1 costs nothing: no pool is
/// created and shards run inline.
class ShardedRoundDriver {
public:
    /// Per-worker scratch arena, allocated once for the driver's lifetime
    /// (cache-line aligned so workers never false-share). Everything a
    /// shard needs beyond its next-state slice lives here: the index
    /// batch, the fused census delta accumulation (layout is the owning
    /// dynamics' business: flat k for the baselines, row-major
    /// generations × k for Algorithm 1), and the raw-stream sampler of
    /// the inline kernels. The deltas invariant between rounds is
    /// all-zero: writers size with ensure_deltas (zero-fills growth) and
    /// the committer re-zeroes exactly what a round used.
    struct alignas(64) Arena {
        std::vector<std::uint64_t> indices;
        std::vector<std::int64_t> deltas;
        /// Shard-local decode of the shard's own packed colors
        /// (PackedOpinionArray::decode_range) — at most kRoundBlock wide.
        std::vector<Opinion> lanes;
        std::int64_t undecided = 0;
        BufferedSampler sampler;

        void ensure_deltas(std::size_t size) {
            if (deltas.size() < size) deltas.resize(size, 0);
        }

        void ensure_lanes(std::size_t size) {
            if (lanes.size() < size) lanes.resize(size);
        }
    };

    ShardedRoundDriver(std::size_t n, std::size_t threads)
        : n_(n), threads_(std::max<std::size_t>(1, threads)) {
        if (threads_ > 1) {
            pool_ = std::make_unique<support::ThreadPool>(threads_);
        }
        arenas_.reserve(threads_);
        for (std::size_t w = 0; w < threads_; ++w) {
            arenas_.push_back(std::make_unique<Arena>());
        }
    }

    [[nodiscard]] std::size_t num_shards() const {
        return (n_ + kRoundBlock - 1) / kRoundBlock;
    }
    [[nodiscard]] std::size_t threads() const { return threads_; }

    [[nodiscard]] Arena& arena(std::size_t worker) { return *arenas_[worker]; }

    /// Heap bytes currently held by the worker arenas (RSS accounting).
    [[nodiscard]] std::size_t arena_bytes() const {
        std::size_t bytes = 0;
        for (const auto& arena : arenas_) {
            bytes += sizeof(Arena) +
                     arena->indices.capacity() * sizeof(std::uint64_t) +
                     arena->deltas.capacity() * sizeof(std::int64_t) +
                     arena->lanes.capacity() * sizeof(Opinion) +
                     kRoundBlock * sizeof(std::uint64_t);  // sampler buffer
        }
        return bytes;
    }

    /// Runs fn(shard, base, count, sub, worker) for every shard: nodes
    /// [base, base + count) with private substream `sub`; `worker` indexes
    /// arena(worker) in [0, threads()).
    ///
    /// The parent generator advances by ONE draw per round (on the
    /// driving thread, before any shard dispatches — thread-count
    /// invariance is untouched). Without it, two sequential runs driven
    /// through the same Rng object would derive identical (round, shard)
    /// substreams and replay word-for-word correlated trajectories; the
    /// per-round advance keeps a shared generator's runs independent,
    /// matching the pre-shard sequential-tape behaviour.
    template <typename ShardFn>
    void for_each_shard(Rng& rng, std::uint64_t round, ShardFn&& fn) {
        rng.next_u64();
        const Rng base_rng = rng;
        const std::size_t shards = num_shards();
        const auto body = [&](std::size_t shard, std::size_t worker) {
            const std::size_t base = shard * kRoundBlock;
            const std::size_t count = std::min(kRoundBlock, n_ - base);
            Rng sub = base_rng.substream(round, shard);
            fn(shard, base, count, sub, worker);
        };
        if (pool_ == nullptr) {
            for (std::size_t shard = 0; shard < shards; ++shard) {
                body(shard, 0);
            }
        } else {
            pool_->parallel_for(shards, body);
        }
    }

    /// Batched variant for fixed-draw-count kernels: fills the worker
    /// arena's index block with count * kDraws uniform draws from the
    /// shard substream (node base's draws first, then base+1's, ...) and
    /// calls block(shard, base, count, idx, arena) with
    /// idx[i * kDraws + d] the d-th sample of node base + i and `arena`
    /// the running worker's scratch arena.
    template <int kDraws, typename BlockFn>
    void run_batched(Rng& rng, std::uint64_t round, BlockFn&& block) {
        static_assert(kDraws >= 1);
        for_each_shard(rng, round,
                       [&](std::size_t shard, std::size_t base,
                           std::size_t count, Rng& sub, std::size_t worker) {
            Arena& arena = *arenas_[worker];
            std::vector<std::uint64_t>& idx = arena.indices;
            idx.resize(kRoundBlock * static_cast<std::size_t>(kDraws));
            sub.uniform_indices(static_cast<std::uint64_t>(n_), idx.data(),
                                count * static_cast<std::size_t>(kDraws));
            block(shard, base, count, idx.data(), arena);
        });
    }

private:
    std::size_t n_;
    std::size_t threads_;
    std::unique_ptr<support::ThreadPool> pool_;  ///< null when threads_ == 1
    std::vector<std::unique_ptr<Arena>> arenas_;  ///< one per worker
};

/// Fused-census accumulator for the flat (opinion-only) baselines: the
/// write loop notes each changed node and commit() applies the summed
/// per-opinion deltas in one pass — replacing the per-round
/// OpinionCensus::reset rescan of the whole color vector. The sharded
/// dynamics accumulate straight into their worker Arena through a View
/// over the arena's storage; the owning class remains for single-buffer
/// uses and the kernel unit tests.
class OpinionDeltaAccumulator {
public:
    explicit OpinionDeltaAccumulator(std::uint32_t num_opinions)
        : deltas_(num_opinions, 0) {}

    /// Raw-pointer view for the decide loops: note() through a View kept
    /// in locals costs no per-note reload of the accumulator's data
    /// pointer (reached through a reference, the optimizer must re-load
    /// it every bump — measurably slower on the cheapest kernels).
    /// Constructible over any external (deltas[k], undecided) pair — the
    /// worker arenas. Invalidated by commit() and by destroying or
    /// reallocating the underlying storage.
    class View {
    public:
        View(std::int64_t* deltas, std::int64_t* undecided)
            : deltas_(deltas), undecided_(undecided) {}

        void note(Opinion from, Opinion to) const {
            if (from == to) return;
            bump(from, -1);
            bump(to, +1);
        }

    private:
        void bump(Opinion op, std::int64_t d) const {
            if (op == kUndecided) {
                *undecided_ += d;
            } else {
                deltas_[op] += d;
            }
        }

        std::int64_t* deltas_;
        std::int64_t* undecided_;
    };

    [[nodiscard]] View view() { return View(deltas_.data(), &undecided_); }

    void note(Opinion from, Opinion to) { view().note(from, to); }

    /// Applies and clears the accumulated deltas.
    void commit(OpinionCensus& census) {
        census.apply_deltas(deltas_, undecided_);
        std::fill(deltas_.begin(), deltas_.end(), 0);
        undecided_ = 0;
    }

private:
    std::vector<std::int64_t> deltas_;
    std::int64_t undecided_ = 0;
};

/// Packed per-node Algorithm 1 state: generation in the high 32 bits,
/// opinion in the low 32. The wlog gen(a) >= gen(b) compare, the
/// two-choices match (same generation AND same color ⟺ equal words) and
/// the propagation pull each become one gather + one integer op.
using PackedState = std::uint64_t;

constexpr PackedState pack_state(Generation generation, Opinion opinion) {
    return (static_cast<std::uint64_t>(generation) << 32U) | opinion;
}

constexpr Generation packed_generation(PackedState word) {
    return static_cast<Generation>(word >> 32U);
}

constexpr Opinion packed_opinion(PackedState word) {
    return static_cast<Opinion>(word & 0xFFFFFFFFULL);
}

}  // namespace papc::sync
