#pragma once

/// \file scheduler_queue.hpp
/// Pluggable scheduler-queue subsystem for the discrete-event engines.
///
/// Every asynchronous engine (async single-leader, §5 validated, cluster
/// multi-leader, and the clustering/broadcast helpers) drives its loop by
/// popping the earliest pending event. The ordering contract is shared:
/// events are ordered by (time, sequence number) — ties in time are broken
/// by insertion order — which keeps runs deterministic for a fixed seed
/// *independently of the implementation behind the interface*. Three
/// implementations are provided:
///
///   - BinaryHeapQueue: an implicit 4-ary min-heap with hole sifts (the
///     name is historical). O(log n) push/pop with a small constant; the
///     cost per hold still grows with the pending count once the heap
///     outgrows the caches (perfbench's hold probe at 2^16 pending:
///     ~166 ns, against ~70 ns for the ladder, on a 4-vCPU host).
///   - CalendarQueue: a bucketed wheel with dynamic resize and bucket-width
///     estimation (Brown '88; the ns-3 CalendarScheduler family). O(1)
///     amortized push/pop, flat scaling into the n >> 2^20 regime.
///   - LadderQueue: a lazy multi-tier bucket ladder (Tang/Goh/Thng '05
///     family). O(1) amortized with sorting deferred to the imminent
///     events; shines on skewed schedules with a large far-future tail.
///
/// The CalendarQueue reproduces the heap's pop order *exactly* (pinned by
/// the cross-implementation property tests): entries carry an integer
/// virtual-bucket index (floor(time / width)), buckets keep their entries
/// sorted, and the pop cursor walks virtual buckets in increasing order, so
/// the global (time, seq) minimum is always popped next — no floating-point
/// window arithmetic is consulted twice.
///
/// Select an implementation with QueueKind (queue_kind.hpp) through
/// make_scheduler_queue(); the event engines' shared config
/// (sim::EventConfig in event_engine.hpp) threads the knob to them.
///
/// This header is the single home of the queue types: the legacy
/// sim/event_queue.hpp compatibility alias (EventQueue = BinaryHeapQueue)
/// was folded in here and then retired once its last consumer moved to
/// the interface.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/queue_kind.hpp"
#include "sim/time.hpp"
#include "support/check.hpp"

namespace papc::sim {

/// One scheduled event: when, arrival order, and the engine payload.
template <typename Payload>
struct SchedulerEntry {
    Time time;
    std::uint64_t seq;
    Payload payload;
};

/// Interface of a discrete-event scheduler queue. Implementations must pop
/// in strict (time, seq) order and assign seq in push order, so any two
/// implementations fed the same pushes yield byte-identical pop sequences.
template <typename Payload>
class SchedulerQueue {
public:
    using Entry = SchedulerEntry<Payload>;

    virtual ~SchedulerQueue() = default;

    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] virtual std::size_t size() const = 0;

    /// Time of the earliest event; queue must be non-empty.
    [[nodiscard]] virtual Time next_time() const = 0;

    virtual void push(Time time, Payload payload) = 0;

    /// Removes and returns the earliest event; queue must be non-empty.
    virtual Entry pop() = 0;

    /// Drops all pending events. The pushed() counter (and hence the seq
    /// tie-break stream) is *not* reset, so a reused queue stays
    /// deterministic relative to its full push history.
    virtual void clear() = 0;

    /// Total number of events ever pushed (diagnostics).
    [[nodiscard]] virtual std::uint64_t pushed() const = 0;

    /// Hint that ~n events will be pending at once; avoids early
    /// reallocation/resize churn. Never changes observable behaviour.
    virtual void reserve(std::size_t n) = 0;

    /// Which implementation this is (diagnostics / reports).
    [[nodiscard]] virtual QueueKind kind() const = 0;

protected:
    [[nodiscard]] static bool entry_less(const Entry& a, const Entry& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
    }
};

/// Implicit 4-ary min-heap keyed on (time, seq), the default kind. The
/// name is historical: the original EventQueue was a binary heap, and
/// QueueKind::kBinaryHeap / "heap" still name this class. Both sifts move
/// a hole instead of swapping: push moves parents down into the hole and
/// writes the new entry once; pop takes back() out, moves the smallest of
/// up to four children up into the hole and writes back() once where it
/// stops. Four children per node halve the depth of a binary heap, so a
/// pop from a heap that has outgrown the caches (the leader shard holds
/// tens of thousands of pending signals) visits half as many levels.
template <typename Payload>
class BinaryHeapQueue final : public SchedulerQueue<Payload> {
public:
    using Entry = SchedulerEntry<Payload>;

    [[nodiscard]] std::size_t size() const override { return heap_.size(); }

    [[nodiscard]] Time next_time() const override {
        PAPC_CHECK(!heap_.empty());
        return heap_.front().time;
    }

    void push(Time time, Payload payload) override {
        Entry entry{time, next_seq_++, std::move(payload)};
        std::size_t hole = heap_.size();
        // Most events are later than their parent: append in place.
        if (hole == 0 || !entry_less(entry, heap_[parent_of(hole)])) {
            heap_.push_back(std::move(entry));
            return;
        }
        // The new slot takes the first parent (through a local, since
        // push_back may reallocate under a reference into heap_); the rest
        // move down in place.
        std::size_t parent = parent_of(hole);
        Entry moved = std::move(heap_[parent]);
        heap_.push_back(std::move(moved));
        hole = parent;
        while (hole > 0) {
            parent = parent_of(hole);
            if (!entry_less(entry, heap_[parent])) break;
            heap_[hole] = std::move(heap_[parent]);
            hole = parent;
        }
        heap_[hole] = std::move(entry);
    }

    Entry pop() override {
        PAPC_CHECK(!heap_.empty());
        Entry last = std::move(heap_.back());
        heap_.pop_back();
        if (heap_.empty()) return last;
        Entry top = std::move(heap_.front());
        const std::size_t n = heap_.size();
        std::size_t hole = 0;
        for (;;) {
            const std::size_t first = kArity * hole + 1;
            if (first >= n) break;
            const std::size_t end = std::min(first + kArity, n);
            std::size_t least = first;
            for (std::size_t child = first + 1; child < end; ++child) {
                if (entry_less(heap_[child], heap_[least])) least = child;
            }
            if (!entry_less(heap_[least], last)) break;
            heap_[hole] = std::move(heap_[least]);
            hole = least;
        }
        heap_[hole] = std::move(last);
        return top;
    }

    void clear() override { heap_.clear(); }

    [[nodiscard]] std::uint64_t pushed() const override { return next_seq_; }

    void reserve(std::size_t n) override { heap_.reserve(n); }

    [[nodiscard]] QueueKind kind() const override {
        return QueueKind::kBinaryHeap;
    }

private:
    using SchedulerQueue<Payload>::entry_less;

    static constexpr std::size_t kArity = 4;

    [[nodiscard]] static std::size_t parent_of(std::size_t i) {
        return (i - 1) / kArity;
    }

    std::vector<Entry> heap_;
    std::uint64_t next_seq_ = 0;
};

/// Calendar queue (bucketed wheel). Each entry is assigned an integer
/// *virtual bucket* vb = floor(time / width); physical bucket = vb mod
/// bucket-count. Buckets hold their entries sorted (stored descending so
/// the minimum pops from the back in O(1)). A cursor walks virtual buckets
/// in increasing order; because vb is computed once per entry per width and
/// compared exactly, the pop order is the exact (time, seq) order — float
/// drift cannot reorder events. The wheel rebuilds (new bucket count and/or
/// re-estimated width) as the population grows, shrinks, or its density
/// changes, keeping O(1) entries per bucket over the dense head of the
/// schedule; far-future outliers simply park in high virtual buckets and
/// are reached via a direct minimum search when the wheel wraps empty.
///
/// Events that arrive *behind* the cursor (vb < cursor) do not reset it —
/// the classic calendar queue does, and then re-walks the same empty
/// stretch after every such reset, which degrades badly on skewed
/// schedules where fresh near-term events race far ahead of the parked
/// bulk. They go to a small auxiliary min-heap (the *front yard*) instead.
/// Every wheel entry has vb >= cursor and every front-yard entry has
/// vb < cursor, and vb is monotone in time, so whenever the front yard is
/// non-empty its top IS the global (time, seq) minimum — pops stay exact,
/// the cursor stays monotone, and in the worst case (everything behind the
/// cursor) the structure degrades gracefully into the binary heap. The
/// yard is folded back into the wheel at every rebuild.
template <typename Payload>
class CalendarQueue final : public SchedulerQueue<Payload> {
public:
    using Entry = SchedulerEntry<Payload>;

    CalendarQueue() : buckets_(kMinBuckets) {}

    [[nodiscard]] std::size_t size() const override { return size_; }

    /// Amortized-cheap in the common case: walks virtual buckets from the
    /// cursor (like pop(), but without advancing it) and returns the first
    /// hit; a wheel with nothing in the cursor's year degrades to a full
    /// scan, so avoid per-event peeks on very sparse schedules.
    [[nodiscard]] Time next_time() const override {
        PAPC_CHECK(size_ > 0);
        // Front-yard entries sit strictly before every wheel entry.
        if (!yard_.empty()) return yard_.front().time;
        const std::size_t n = buckets_.size();
        std::uint64_t vb = cursor_vb_;
        for (std::size_t scanned = 0; scanned < n; ++scanned, ++vb) {
            const auto& bucket = buckets_[static_cast<std::size_t>(vb % n)];
            if (!bucket.empty() && virtual_bucket(bucket.back().time) == vb) {
                return bucket.back().time;
            }
        }
        return buckets_[min_bucket_index()].back().time;
    }

    void push(Time time, Payload payload) override {
        const std::uint64_t vb = virtual_bucket(time);
        ++size_;
        if (vb < cursor_vb_) {
            // Behind the cursor: into the front yard (see file comment).
            yard_.push_back(Entry{time, next_seq_++, std::move(payload)});
            std::push_heap(yard_.begin(), yard_.end(), entry_greater);
        } else {
            Entry entry{time, next_seq_++, std::move(payload)};
            auto& bucket = bucket_for(vb);
            // Buckets are sorted descending by (time, seq); find the first
            // strictly-smaller entry and insert before it.
            const auto pos = std::upper_bound(
                bucket.begin(), bucket.end(), entry,
                [](const Entry& value, const Entry& element) {
                    return entry_less(element, value);
                });
            bucket.insert(pos, std::move(entry));
        }
        if (size_ > 2 * kOccupancy * buckets_.size()) {
            rebuild(bucket_count_for(size_));
        } else if (size_ >= kWidthSampleMin && size_ > 4 * rebuild_size_) {
            // The population grew a lot without outgrowing the wheel
            // (e.g. after reserve()): re-estimate the bucket width so it
            // tracks the denser schedule.
            rebuild(buckets_.size());
        }
    }

    Entry pop() override {
        PAPC_CHECK(size_ > 0);
        if (!yard_.empty()) {
            std::pop_heap(yard_.begin(), yard_.end(), entry_greater);
            Entry entry = std::move(yard_.back());
            yard_.pop_back();
            --size_;
            maybe_shrink();
            return entry;
        }
        const std::size_t n = buckets_.size();
        for (std::size_t scanned = 0; scanned < n; ++scanned) {
            auto& bucket = bucket_for(cursor_vb_);
            if (!bucket.empty() &&
                virtual_bucket(bucket.back().time) == cursor_vb_) {
                return take_back(bucket);
            }
            ++cursor_vb_;
        }
        // Wrapped a whole year without a hit (sparse schedule or
        // far-future outliers): jump to the globally earliest entry.
        auto& bucket = buckets_[min_bucket_index()];
        cursor_vb_ = virtual_bucket(bucket.back().time);
        return take_back(bucket);
    }

    void clear() override {
        for (auto& bucket : buckets_) bucket.clear();
        yard_.clear();
        size_ = 0;
        cursor_vb_ = 0;
        rebuild_size_ = 0;
        // width_, the bucket count, and pushed() survive, mirroring
        // BinaryHeapQueue::clear (which keeps its seq counter).
    }

    [[nodiscard]] std::uint64_t pushed() const override { return next_seq_; }

    void reserve(std::size_t n) override {
        // Pre-size the wheel only; the width is still estimated from live
        // entries at the staged rebuild points in push().
        if (size_ == 0) {
            const std::size_t target = bucket_count_for(n);
            if (target > buckets_.size()) {
                buckets_.assign(target, {});
            }
        }
    }

    [[nodiscard]] QueueKind kind() const override {
        return QueueKind::kCalendar;
    }

private:
    using SchedulerQueue<Payload>::entry_less;

    static constexpr std::size_t kMinBuckets = 4;
    static constexpr std::size_t kMaxBuckets = std::size_t{1} << 24;
    /// Target entries per bucket. A few entries per bucket beats one: the
    /// bucket-header array is 4x smaller (fewer cache/TLB misses per
    /// random push) while the in-bucket sorted insert still moves only a
    /// couple of entries.
    static constexpr std::size_t kOccupancy = 4;
    /// Population size below which width estimation is pointless.
    static constexpr std::size_t kWidthSampleMin = 32;
    /// Entries sampled (from the sorted head) for width estimation.
    static constexpr std::size_t kWidthSampleMax = 256;
    /// Virtual buckets are capped at 2^53 (exact in a double); everything
    /// further out shares the top bucket, which stays correct (same
    /// bucket + sorted) and only matters for pathological times.
    static constexpr std::uint64_t kMaxVb = std::uint64_t{1} << 53;

    /// floor(time / width), clamped to [0, kMaxVb]. Exact and monotone in
    /// `time` for a fixed width; width only changes at rebuild(), which
    /// redistributes every entry, so recomputing on demand (instead of
    /// storing per entry) always agrees with the push-time value.
    [[nodiscard]] std::uint64_t virtual_bucket(Time time) const {
        if (!(time > 0.0)) return 0;
        const double vb = time / width_;
        if (vb >= static_cast<double>(kMaxVb)) return kMaxVb;
        return static_cast<std::uint64_t>(vb);
    }

    [[nodiscard]] std::vector<Entry>& bucket_for(std::uint64_t vb) {
        return buckets_[static_cast<std::size_t>(vb % buckets_.size())];
    }

    [[nodiscard]] static std::size_t bucket_count_for(std::size_t n) {
        const std::size_t target = n / kOccupancy;
        std::size_t count = kMinBuckets;
        while (count < target && count < kMaxBuckets) count *= 2;
        return count;
    }

    /// Min-heap comparator for the front yard (std::*_heap are max-heaps).
    [[nodiscard]] static bool entry_greater(const Entry& a, const Entry& b) {
        return entry_less(b, a);
    }

    Entry take_back(std::vector<Entry>& bucket) {
        Entry entry = std::move(bucket.back());
        bucket.pop_back();
        --size_;
        maybe_shrink();
        return entry;
    }

    /// Shrinks only once the wheel is ~8x oversized (vs the 2x grow
    /// slack). The wide hysteresis keeps a reserve()-pre-sized wheel
    /// intact while the population ramps towards the hint — a 2x-tight
    /// threshold would throw the reservation away on the first pop — and
    /// oversized wheels only cost cheap empty-bucket scan steps.
    void maybe_shrink() {
        if (buckets_.size() > kMinBuckets &&
            size_ < kOccupancy * buckets_.size() / 8) {
            rebuild(bucket_count_for(size_));
        }
    }

    /// Index of the bucket holding the globally earliest entry; wheel must
    /// be non-empty.
    [[nodiscard]] std::size_t min_bucket_index() const {
        const std::vector<Entry>* best = nullptr;
        std::size_t best_index = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            const auto& bucket = buckets_[i];
            if (bucket.empty()) continue;
            if (best == nullptr || entry_less(bucket.back(), best->back())) {
                best = &bucket;
                best_index = i;
            }
        }
        PAPC_CHECK(best != nullptr);
        return best_index;
    }

    /// Bucket width from the average spacing of the sorted schedule head
    /// (robust against far-future outliers); Brown '88 recommends ~3x the
    /// mean gap, scaled by the occupancy target so a bucket holds
    /// ~kOccupancy events. Tie bursts carry no density signal and keep the
    /// current width.
    [[nodiscard]] double estimate_width(const std::vector<Entry>& sorted) const {
        if (sorted.size() < 2) return width_;
        const std::size_t sample = std::min(sorted.size(), kWidthSampleMax);
        const double span = sorted[sample - 1].time - sorted[0].time;
        if (!(span > 0.0)) return width_;
        return 3.0 * static_cast<double>(kOccupancy) * span /
               static_cast<double>(sample - 1);
    }

    void rebuild(std::size_t new_bucket_count) {
        std::vector<Entry> all;
        all.reserve(size_);
        for (auto& bucket : buckets_) {
            for (auto& entry : bucket) all.push_back(std::move(entry));
            bucket.clear();
        }
        // Fold the front yard back into the wheel (the rebuilt cursor
        // starts at the global minimum, so nothing stays behind it).
        for (auto& entry : yard_) all.push_back(std::move(entry));
        yard_.clear();
        std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
            return entry_less(a, b);
        });
        width_ = estimate_width(all);
        if (new_bucket_count != buckets_.size()) {
            buckets_.assign(new_bucket_count, {});
        }
        cursor_vb_ = all.empty() ? 0 : virtual_bucket(all.front().time);
        // Distribute largest-first so each (descending) bucket stays sorted
        // with plain push_back.
        for (auto it = all.rbegin(); it != all.rend(); ++it) {
            bucket_for(virtual_bucket(it->time)).push_back(std::move(*it));
        }
        rebuild_size_ = size_;
    }

    std::vector<std::vector<Entry>> buckets_;
    std::vector<Entry> yard_;       ///< min-heap of entries behind the cursor
    std::size_t size_ = 0;          ///< wheel + yard entries
    std::uint64_t next_seq_ = 0;
    double width_ = 1.0;
    std::uint64_t cursor_vb_ = 0;   ///< all wheel entries have vb >= this
    std::size_t rebuild_size_ = 0;  ///< size at the last width estimation
};

/// Ladder queue (Tang/Goh/Thng '05 family). Three tiers:
///
///   - Top: an unsorted overflow list for the far future — every entry with
///     time >= the top threshold parks here untouched; pushes are O(1).
///   - Rungs: when events are needed below the threshold, the relevant span
///     is split into equal-width buckets (unsorted). A bucket that is still
///     too big when its turn comes is *recursively* split into a finer rung,
///     so sorting effort concentrates on the imminent events only.
///   - Bottom: the current earliest bucket, sorted (descending, min pops
///     from the back in O(1)).
///
/// The pop order is the exact global (time, seq) order, pinned by the
/// tier invariants: bottom entries sort before every rung entry, rung i+1
/// refines the span of rung i below its cursor, and top entries lie at or
/// beyond the threshold — each transfer sorts with the same entry_less the
/// other implementations use, so ties still resolve by push order.
///
/// Degeneracy guards (the classic structure's failure modes):
///   - a tie burst (zero time span) cannot be subdivided — the bucket is
///     sorted straight into Bottom whatever its size;
///   - rung recursion is capped at kMaxRungs, after which buckets are
///     sorted directly (graceful degradation to an insertion-sorted list);
///   - a Bottom below kBottomMax entries skips rung spawning entirely, so
///     small schedules never pay the ladder machinery. The executor's
///     shard queues are not small: each of the 8 shards holds ~2n/8
///     pending ticks and exchanges, and the leader's shard ~n more
///     in-flight signals, so they do run the rungs.
template <typename Payload>
class LadderQueue final : public SchedulerQueue<Payload> {
public:
    using Entry = SchedulerEntry<Payload>;

    [[nodiscard]] std::size_t size() const override { return size_; }

    [[nodiscard]] Time next_time() const override {
        PAPC_CHECK(size_ > 0);
        // Lazily normalize so the minimum sits sorted in Bottom; pop order
        // is unaffected (the same refill would run on the next pop).
        const_cast<LadderQueue*>(this)->ensure_bottom();
        return bottom_.back().time;
    }

    void push(Time time, Payload payload) override {
        Entry entry{time, next_seq_++, std::move(payload)};
        ++size_;
        if (time >= top_threshold_) {
            if (top_.empty() || time < top_min_) top_min_ = time;
            if (top_.empty() || time > top_max_) top_max_ = time;
            top_.push_back(std::move(entry));
            return;
        }
        // Coarsest rung first: cursor starts strictly decrease down the
        // ladder, so the first rung whose cursor lies at or before `time`
        // is the one whose remaining span contains it. A fully drained
        // rung (cursor past the last bucket) has no capacity left and is
        // skipped: every entry still below it is earlier than its span
        // end, so falling through to a finer rung's clamped last bucket
        // or to the sorted Bottom keeps the exact pop order.
        for (auto& rung : rungs_) {
            if (rung.cur >= rung.buckets.size()) continue;
            if (time >= rung.cur_start()) {
                rung.insert(std::move(entry));
                return;
            }
        }
        insert_bottom(std::move(entry));
        if (bottom_.size() > kBottomMax && rungs_.size() < kMaxRungs &&
            bottom_.front().time > bottom_.back().time) {
            // Bottom overflow: push the sorted run back out into a fresh
            // (finest) rung; subsequent pops re-sort only the head bucket.
            std::vector<Entry> entries = std::move(bottom_);
            bottom_.clear();
            spawn_rung(std::move(entries));
        }
    }

    Entry pop() override {
        PAPC_CHECK(size_ > 0);
        ensure_bottom();
        Entry entry = std::move(bottom_.back());
        bottom_.pop_back();
        --size_;
        return entry;
    }

    void clear() override {
        top_.clear();
        rungs_.clear();
        bottom_.clear();
        size_ = 0;
        top_threshold_ = -std::numeric_limits<Time>::infinity();
        // pushed() survives, mirroring the other implementations.
    }

    [[nodiscard]] std::uint64_t pushed() const override { return next_seq_; }

    void reserve(std::size_t n) override { top_.reserve(n); }

    [[nodiscard]] QueueKind kind() const override { return QueueKind::kLadder; }

private:
    using SchedulerQueue<Payload>::entry_less;

    /// Bottom size beyond which an overflow spawns a rung instead of
    /// insertion-sorting further pushes.
    static constexpr std::size_t kBottomMax = 48;
    /// Rung recursion cap (tie-adjacent spans can resist subdivision).
    static constexpr std::size_t kMaxRungs = 8;
    /// Bucket-count cap per rung.
    static constexpr std::size_t kMaxRungBuckets = std::size_t{1} << 20;

    struct Rung {
        Time base = 0.0;      ///< start of bucket 0
        double width = 1.0;   ///< bucket span
        std::size_t cur = 0;  ///< buckets before this are drained
        std::size_t count = 0;
        std::vector<std::vector<Entry>> buckets;

        [[nodiscard]] Time cur_start() const {
            return base + static_cast<double>(cur) * width;
        }

        [[nodiscard]] std::size_t index_of(Time time) const {
            const double offset = (time - base) / width;
            std::size_t idx = 0;
            if (offset >= static_cast<double>(buckets.size())) {
                idx = buckets.size() - 1;
            } else if (offset > 0.0) {
                idx = static_cast<std::size_t>(offset);
            }
            // Float edges never send an entry behind the cursor.
            return idx < cur ? cur : idx;
        }

        void insert(Entry entry) {
            buckets[index_of(entry.time)].push_back(std::move(entry));
            ++count;
        }
    };

    void insert_bottom(Entry entry) {
        // Sorted descending by (time, seq): minimum pops from the back.
        const auto pos = std::upper_bound(
            bottom_.begin(), bottom_.end(), entry,
            [](const Entry& value, const Entry& element) {
                return entry_less(element, value);
            });
        bottom_.insert(pos, std::move(entry));
    }

    static void sort_descending(std::vector<Entry>& entries) {
        std::sort(entries.begin(), entries.end(),
                  [](const Entry& a, const Entry& b) {
                      return entry_less(b, a);
                  });
    }

    /// Appends a new finest rung holding `entries` (must be non-empty with
    /// a positive time span).
    void spawn_rung(std::vector<Entry> entries) {
        Time min_time = entries.front().time;
        Time max_time = entries.front().time;
        for (const Entry& entry : entries) {
            min_time = std::min(min_time, entry.time);
            max_time = std::max(max_time, entry.time);
        }
        Rung rung;
        rung.base = min_time;
        const std::size_t n_buckets =
            std::min(entries.size(), kMaxRungBuckets);
        // Strictly cover [min, max]: the +1 bucket absorbs the maximum
        // (and float round-up) instead of an index clamp funneling a pileup
        // into the last bucket.
        rung.width = (max_time - min_time) / static_cast<double>(n_buckets);
        rung.buckets.resize(n_buckets + 1);
        for (Entry& entry : entries) rung.insert(std::move(entry));
        rungs_.push_back(std::move(rung));
    }

    /// Moves the next batch of earliest events into Bottom (sorted).
    /// Requires size_ > 0; afterwards bottom_ is non-empty.
    void ensure_bottom() {
        while (bottom_.empty()) {
            if (rungs_.empty()) {
                // All near events drained: pull the Top overflow down.
                PAPC_CHECK(!top_.empty());
                std::vector<Entry> entries = std::move(top_);
                top_.clear();
                if (entries.size() > kBottomMax && rungs_.size() < kMaxRungs &&
                    top_max_ > top_min_) {
                    // New far-future pushes regenerate Top above the old
                    // maximum; everything below it rungs down. Equal-time
                    // entries split across the boundary still pop in seq
                    // order (the rung's copies were pushed earlier).
                    top_threshold_ = top_max_;
                    spawn_rung(std::move(entries));
                } else {
                    top_threshold_ = std::numeric_limits<Time>::infinity();
                    sort_descending(entries);
                    bottom_ = std::move(entries);
                }
                continue;
            }
            Rung& rung = rungs_.back();
            if (rung.count == 0) {
                rungs_.pop_back();
                continue;
            }
            while (rung.buckets[rung.cur].empty()) ++rung.cur;
            std::vector<Entry>& bucket = rung.buckets[rung.cur];
            rung.count -= bucket.size();
            std::vector<Entry> entries = std::move(bucket);
            bucket.clear();
            ++rung.cur;
            Time bucket_min = entries.front().time;
            Time bucket_max = entries.front().time;
            for (const Entry& entry : entries) {
                bucket_min = std::min(bucket_min, entry.time);
                bucket_max = std::max(bucket_max, entry.time);
            }
            if (entries.size() > kBottomMax && rungs_.size() < kMaxRungs &&
                bucket_max > bucket_min) {
                // Still too coarse: recurse into a finer rung. (Note
                // `rung` may dangle after push_back — loop re-reads.)
                spawn_rung(std::move(entries));
            } else {
                sort_descending(entries);
                bottom_ = std::move(entries);
            }
        }
    }

    std::vector<Entry> top_;     ///< unsorted, time >= top_threshold_
    std::vector<Rung> rungs_;    ///< coarsest first; back() drains first
    std::vector<Entry> bottom_;  ///< sorted descending; min at back()
    Time top_min_ = 0.0;
    Time top_max_ = 0.0;
    /// Starts at -inf: every push parks in Top until the first drain
    /// observes the schedule and picks a real threshold.
    Time top_threshold_ = -std::numeric_limits<Time>::infinity();
    std::size_t size_ = 0;
    std::uint64_t next_seq_ = 0;
};

/// Builds the queue selected by `kind`, pre-sized for ~`reserve_hint`
/// concurrently pending events (0 = no hint).
template <typename Payload>
[[nodiscard]] std::unique_ptr<SchedulerQueue<Payload>> make_scheduler_queue(
    QueueKind kind, std::size_t reserve_hint = 0) {
    std::unique_ptr<SchedulerQueue<Payload>> queue;
    switch (kind) {
        case QueueKind::kBinaryHeap:
            queue = std::make_unique<BinaryHeapQueue<Payload>>();
            break;
        case QueueKind::kCalendar:
            queue = std::make_unique<CalendarQueue<Payload>>();
            break;
        case QueueKind::kLadder:
            queue = std::make_unique<LadderQueue<Payload>>();
            break;
    }
    PAPC_CHECK(queue != nullptr);
    if (reserve_hint > 0) queue->reserve(reserve_hint);
    return queue;
}

}  // namespace papc::sim
