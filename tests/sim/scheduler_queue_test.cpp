#include "sim/scheduler_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "support/random.hpp"

namespace papc::sim {
namespace {

using IntQueue = SchedulerQueue<int>;

std::vector<QueueKind> all_kinds() {
    return {QueueKind::kBinaryHeap, QueueKind::kCalendar, QueueKind::kLadder};
}

/// The non-reference implementations, each checked against the heap.
std::vector<QueueKind> other_kinds() {
    return {QueueKind::kCalendar, QueueKind::kLadder};
}

// ------------------------------------------------------------ kind plumbing

TEST(SchedulerQueue, FactoryBuildsRequestedKind) {
    for (const QueueKind kind : all_kinds()) {
        const auto queue = make_scheduler_queue<int>(kind);
        EXPECT_EQ(queue->kind(), kind);
        EXPECT_TRUE(queue->empty());
    }
}

TEST(SchedulerQueue, ConcreteTypesUsableWithoutFactory) {
    // The legacy sim/event_queue.hpp alias was folded into this header;
    // callers that want a concrete queue (no QueueKind dispatch) use the
    // implementation types directly.
    BinaryHeapQueue<int> heap;
    heap.push(2.0, 2);
    heap.push(1.0, 1);
    EXPECT_EQ(heap.pop().payload, 1);
    EXPECT_EQ(heap.kind(), QueueKind::kBinaryHeap);
    CalendarQueue<int> calendar;
    calendar.push(2.0, 2);
    calendar.push(1.0, 1);
    EXPECT_EQ(calendar.pop().payload, 1);
    EXPECT_EQ(calendar.kind(), QueueKind::kCalendar);
    LadderQueue<int> ladder;
    ladder.push(2.0, 2);
    ladder.push(1.0, 1);
    EXPECT_EQ(ladder.pop().payload, 1);
    EXPECT_EQ(ladder.kind(), QueueKind::kLadder);
}

TEST(SchedulerQueue, KindNamesRoundTrip) {
    for (const QueueKind kind : all_kinds()) {
        EXPECT_EQ(try_parse_queue_kind(to_string(kind)), kind);
    }
    EXPECT_EQ(try_parse_queue_kind("binary-heap"), QueueKind::kBinaryHeap);
    EXPECT_EQ(try_parse_queue_kind("fifo"), std::nullopt);
}

// ------------------------------------------------------- ordering contract

TEST(SchedulerQueue, PopsInTimeOrder) {
    for (const QueueKind kind : all_kinds()) {
        const auto q = make_scheduler_queue<int>(kind);
        q->push(3.0, 3);
        q->push(1.0, 1);
        q->push(2.0, 2);
        EXPECT_EQ(q->pop().payload, 1);
        EXPECT_EQ(q->pop().payload, 2);
        EXPECT_EQ(q->pop().payload, 3);
        EXPECT_TRUE(q->empty());
    }
}

TEST(SchedulerQueue, MassiveSameTimeBurstKeepsSeqOrder) {
    // A burst of identical times exercises the seq tie-break under heap
    // sifts and under calendar rebuilds (ties carry no width signal).
    for (const QueueKind kind : all_kinds()) {
        const auto q = make_scheduler_queue<int>(kind);
        constexpr int kBurst = 20000;
        for (int i = 0; i < kBurst; ++i) q->push(7.25, i);
        for (int i = 0; i < kBurst; ++i) {
            const auto e = q->pop();
            ASSERT_EQ(e.payload, i) << to_string(kind);
            ASSERT_DOUBLE_EQ(e.time, 7.25);
        }
        EXPECT_TRUE(q->empty());
    }
}

TEST(SchedulerQueue, TieBurstInterleavedWithOtherTimes) {
    for (const QueueKind kind : all_kinds()) {
        const auto q = make_scheduler_queue<int>(kind);
        Rng rng(11);
        // Ties at 5.0 interleaved among uniform times on both sides.
        for (int i = 0; i < 500; ++i) {
            q->push(5.0, 100000 + i);
            q->push(rng.uniform(0.0, 10.0), i);
        }
        double prev_time = -1.0;
        std::uint64_t prev_seq = 0;
        bool first = true;
        int tie_cursor = 100000;
        while (!q->empty()) {
            const auto e = q->pop();
            if (!first) {
                ASSERT_TRUE(e.time > prev_time ||
                            (e.time == prev_time && e.seq > prev_seq));
            }
            if (e.time == 5.0 && e.payload >= 100000) {
                ASSERT_EQ(e.payload, tie_cursor++);
            }
            prev_time = e.time;
            prev_seq = e.seq;
            first = false;
        }
        EXPECT_EQ(tie_cursor, 100500);
    }
}

TEST(SchedulerQueue, FarFutureOutliersDoNotDisturbOrder) {
    // Outliers several "years" beyond the dense head exercise the calendar
    // wrap + direct-search path; order must stay exact for both kinds.
    for (const QueueKind kind : all_kinds()) {
        const auto q = make_scheduler_queue<int>(kind);
        Rng rng(13);
        for (int i = 0; i < 2000; ++i) q->push(rng.uniform(), i);
        q->push(1e9, -1);
        q->push(1e12, -2);
        q->push(5e8, -3);
        double prev = -1.0;
        std::size_t popped = 0;
        while (!q->empty()) {
            const auto e = q->pop();
            ASSERT_GE(e.time, prev);
            prev = e.time;
            ++popped;
            // Refill mid-drain with near-term events: they must still come
            // out before the parked outliers.
            if (popped == 1000) {
                for (int i = 0; i < 100; ++i) {
                    q->push(1.0 + rng.uniform(), 10000 + i);
                }
            }
        }
        EXPECT_EQ(popped, 2103U);
        EXPECT_DOUBLE_EQ(prev, 1e12);
    }
}

TEST(SchedulerQueue, PushBehindTheCursorIsPoppedFirst) {
    for (const QueueKind kind : all_kinds()) {
        const auto q = make_scheduler_queue<int>(kind);
        q->push(10.0, 10);
        q->push(1.0, 1);
        EXPECT_EQ(q->pop().payload, 1);
        q->push(5.0, 5);
        q->push(0.5, 0);  // earlier than everything already popped past
        EXPECT_EQ(q->pop().payload, 0);
        EXPECT_EQ(q->pop().payload, 5);
        EXPECT_EQ(q->pop().payload, 10);
    }
}

TEST(SchedulerQueue, NextTimePeeksEarliestWithoutPopping) {
    for (const QueueKind kind : all_kinds()) {
        const auto q = make_scheduler_queue<int>(kind);
        q->push(5.0, 0);
        q->push(2.0, 0);
        EXPECT_DOUBLE_EQ(q->next_time(), 2.0);
        EXPECT_EQ(q->size(), 2U);
        q->pop();
        EXPECT_DOUBLE_EQ(q->next_time(), 5.0);
    }
}

// ------------------------------------------------------------- empty edges

using SchedulerQueueDeathTest = ::testing::Test;

TEST(SchedulerQueueDeathTest, PopOnEmptyAborts) {
    for (const QueueKind kind : all_kinds()) {
        const auto q = make_scheduler_queue<int>(kind);
        EXPECT_DEATH(q->pop(), "PAPC_CHECK failed");
    }
}

TEST(SchedulerQueueDeathTest, NextTimeOnEmptyAborts) {
    for (const QueueKind kind : all_kinds()) {
        const auto q = make_scheduler_queue<int>(kind);
        q->push(1.0, 1);
        q->pop();
        EXPECT_DEATH(q->next_time(), "PAPC_CHECK failed");
    }
}

// -------------------------------------------------------- clear-then-reuse

TEST(SchedulerQueue, ClearThenReuseStaysOrderedAndKeepsPushedCount) {
    for (const QueueKind kind : all_kinds()) {
        const auto q = make_scheduler_queue<int>(kind);
        Rng rng(17);
        for (int i = 0; i < 5000; ++i) q->push(rng.uniform(0.0, 100.0), i);
        for (int i = 0; i < 100; ++i) q->pop();
        q->clear();
        EXPECT_TRUE(q->empty());
        EXPECT_EQ(q->size(), 0U);
        // pushed() (and hence the seq stream) survives a clear.
        EXPECT_EQ(q->pushed(), 5000U);
        for (int i = 0; i < 1000; ++i) q->push(rng.uniform(0.0, 1.0), i);
        EXPECT_EQ(q->pushed(), 6000U);
        double prev = -1.0;
        while (!q->empty()) {
            const auto e = q->pop();
            ASSERT_GE(e.time, prev);
            prev = e.time;
        }
    }
}

// ------------------------------------------------------------- reserve hint

TEST(SchedulerQueue, ReserveDoesNotChangeBehaviour) {
    for (const QueueKind kind : all_kinds()) {
        const auto plain = make_scheduler_queue<int>(kind);
        const auto hinted = make_scheduler_queue<int>(kind, 1 << 14);
        Rng rng_a(23);
        Rng rng_b(23);
        for (int i = 0; i < 3000; ++i) {
            plain->push(rng_a.uniform(), i);
            hinted->push(rng_b.uniform(), i);
        }
        while (!plain->empty()) {
            const auto a = plain->pop();
            const auto b = hinted->pop();
            ASSERT_DOUBLE_EQ(a.time, b.time);
            ASSERT_EQ(a.seq, b.seq);
            ASSERT_EQ(a.payload, b.payload);
        }
        EXPECT_TRUE(hinted->empty());
    }
}

// -------------------------------------- cross-implementation equivalence

/// Drives all implementations through the same operation tape and demands
/// byte-identical pop sequences — the contract the engine equivalence
/// (identical RunResults for a fixed seed) rests on.
void expect_identical_pop_order(std::uint64_t seed, int ops, double time_lo,
                                double time_hi, bool quantize) {
    for (const QueueKind other_kind : other_kinds()) {
        const auto heap = make_scheduler_queue<int>(QueueKind::kBinaryHeap);
        const auto other = make_scheduler_queue<int>(other_kind);
        Rng rng(seed);
        double now = 0.0;
        for (int op = 0; op < ops; ++op) {
            const bool push = heap->empty() || rng.uniform() < 0.55;
            if (push) {
                double t = now + rng.uniform(time_lo, time_hi);
                // Quantized times manufacture cross-push ties.
                if (quantize) t = std::floor(t * 8.0) / 8.0;
                heap->push(t, op);
                other->push(t, op);
            } else {
                const auto a = heap->pop();
                const auto b = other->pop();
                ASSERT_DOUBLE_EQ(a.time, b.time)
                    << "op " << op << " " << to_string(other_kind);
                ASSERT_EQ(a.seq, b.seq)
                    << "op " << op << " " << to_string(other_kind);
                ASSERT_EQ(a.payload, b.payload)
                    << "op " << op << " " << to_string(other_kind);
                now = a.time;  // advancing front, like a real simulation
            }
        }
        while (!heap->empty()) {
            const auto a = heap->pop();
            const auto b = other->pop();
            ASSERT_DOUBLE_EQ(a.time, b.time) << to_string(other_kind);
            ASSERT_EQ(a.seq, b.seq) << to_string(other_kind);
            ASSERT_EQ(a.payload, b.payload) << to_string(other_kind);
        }
        EXPECT_TRUE(other->empty());
        EXPECT_EQ(heap->pushed(), other->pushed());
    }
}

TEST(SchedulerQueueEquivalence, UniformSchedule) {
    expect_identical_pop_order(101, 20000, 0.0, 1.0, false);
}

TEST(SchedulerQueueEquivalence, QuantizedScheduleWithTies) {
    expect_identical_pop_order(102, 20000, 0.0, 0.5, true);
}

TEST(SchedulerQueueEquivalence, WideScheduleSparseBuckets) {
    expect_identical_pop_order(103, 8000, 0.0, 1000.0, false);
}

TEST(SchedulerQueueEquivalence, NarrowScheduleDenseBuckets) {
    expect_identical_pop_order(104, 20000, 0.0, 1e-4, false);
}

TEST(SchedulerQueueEquivalence, MixedScaleWithOutliers) {
    for (const QueueKind other_kind : other_kinds()) {
        const auto heap = make_scheduler_queue<int>(QueueKind::kBinaryHeap);
        const auto other = make_scheduler_queue<int>(other_kind);
        Rng rng(105);
        for (int op = 0; op < 30000; ++op) {
            const double roll = rng.uniform();
            double t;
            if (roll < 0.90) {
                t = rng.uniform(0.0, 1.0);  // dense head
            } else if (roll < 0.99) {
                t = rng.uniform(0.0, 100.0);  // mid-range
            } else {
                t = rng.uniform(1e6, 1e9);  // far-future outlier
            }
            heap->push(t, op);
            other->push(t, op);
            if (op % 3 == 0) {
                const auto a = heap->pop();
                const auto b = other->pop();
                ASSERT_DOUBLE_EQ(a.time, b.time)
                    << "op " << op << " " << to_string(other_kind);
                ASSERT_EQ(a.seq, b.seq)
                    << "op " << op << " " << to_string(other_kind);
            }
        }
        while (!heap->empty()) {
            const auto a = heap->pop();
            const auto b = other->pop();
            ASSERT_DOUBLE_EQ(a.time, b.time) << to_string(other_kind);
            ASSERT_EQ(a.seq, b.seq) << to_string(other_kind);
        }
        EXPECT_TRUE(other->empty());
    }
}

TEST(SchedulerQueueEquivalence, DrainAndRefillCycles) {
    // Repeated full drains force the calendar through shrink rebuilds and
    // cursor resets (and the ladder through top-threshold regeneration);
    // order must stay identical throughout.
    for (const QueueKind other_kind : other_kinds()) {
        const auto heap = make_scheduler_queue<int>(QueueKind::kBinaryHeap);
        const auto other = make_scheduler_queue<int>(other_kind);
        Rng rng(106);
        double base = 0.0;
        for (int cycle = 0; cycle < 6; ++cycle) {
            const int fill = 1 << (6 + cycle);  // 64 .. 2048
            for (int i = 0; i < fill; ++i) {
                const double t = base + rng.uniform(0.0, 2.0);
                heap->push(t, i);
                other->push(t, i);
            }
            while (!heap->empty()) {
                const auto a = heap->pop();
                const auto b = other->pop();
                ASSERT_DOUBLE_EQ(a.time, b.time) << to_string(other_kind);
                ASSERT_EQ(a.seq, b.seq) << to_string(other_kind);
                base = a.time;
            }
            EXPECT_TRUE(other->empty());
        }
    }
}

// ---------------------------------------------------- independent oracle

/// Naive reference queue: a flat vector whose minimum is found with
/// std::min_element under the (time, seq) order. It shares no code with
/// any implementation, so it checks the heap as well as the other kinds
/// (the equivalence tests above only compare the others with the heap).
class OracleQueue {
public:
    using Entry = SchedulerEntry<int>;

    void push(Time time, int payload) {
        pending_.push_back(Entry{time, next_seq_++, payload});
    }

    Entry pop() {
        const auto least = std::min_element(pending_.begin(), pending_.end(), earlier);
        const Entry entry = *least;
        *least = pending_.back();
        pending_.pop_back();
        return entry;
    }

    /// Like SchedulerQueue::clear: the seq stream is not reset.
    void clear() { pending_.clear(); }

    [[nodiscard]] std::size_t size() const { return pending_.size(); }
    [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

private:
    static bool earlier(const Entry& a, const Entry& b) {
        return a.time < b.time || (a.time == b.time && a.seq < b.seq);
    }

    std::vector<Entry> pending_;
    std::uint64_t next_seq_ = 0;
};

/// Pops one entry from both and demands the same (time, seq, payload);
/// also checks next_time() against the popped time and the sizes after.
void expect_same_pop(IntQueue& queue, OracleQueue& oracle, const std::string& context) {
    ASSERT_EQ(queue.size(), oracle.size()) << context;
    ASSERT_FALSE(queue.empty()) << context;
    const Time peek = queue.next_time();
    const auto want = oracle.pop();
    const auto got = queue.pop();
    ASSERT_EQ(got.time, want.time) << context;
    ASSERT_EQ(peek, want.time) << context;
    ASSERT_EQ(got.seq, want.seq) << context;
    ASSERT_EQ(got.payload, want.payload) << context;
    ASSERT_EQ(queue.size(), oracle.size()) << context;
}

/// Times on a grid of `1 / grid` over [now, now + span): coarse grids make
/// exact ties between separate pushes common.
double grid_time(Rng& rng, double now, double span, double grid) {
    return now + std::floor(rng.uniform(0.0, span) * grid) / grid;
}

TEST(SchedulerQueueOracle, RandomInterleavingsWithExactTies) {
    for (const QueueKind kind : all_kinds()) {
        for (const std::uint64_t seed : {201U, 202U, 203U}) {
            const auto queue = make_scheduler_queue<int>(kind);
            OracleQueue oracle;
            Rng rng(seed);
            const std::string context =
                std::string(to_string(kind)) + " seed " + std::to_string(seed);
            // Push bias moves from growth (0.7) to shrinkage (0.4) so the
            // size sweeps up and back down through many heap depths.
            double now = 0.0;
            for (int op = 0; op < 20000; ++op) {
                const double push_bias = op < 10000 ? 0.7 : 0.4;
                if (oracle.size() == 0 || rng.uniform() < push_bias) {
                    const double t = grid_time(rng, now, 2.0, 4.0);
                    queue->push(t, op);
                    oracle.push(t, op);
                } else {
                    now = queue->next_time();
                    ASSERT_NO_FATAL_FAILURE(expect_same_pop(*queue, oracle, context))
                        << "op " << op;
                }
            }
            while (oracle.size() > 0) {
                ASSERT_NO_FATAL_FAILURE(expect_same_pop(*queue, oracle, context));
            }
            EXPECT_TRUE(queue->empty());
            EXPECT_EQ(queue->pushed(), oracle.pushed());
        }
    }
}

TEST(SchedulerQueueOracle, EveryPartialLastChildGroup) {
    // Sizes 1..40 and 1021..1028 leave the last child group of a 4-ary
    // heap with 0, 1, 2 and 3 missing members; each is filled, drained
    // half-way with a push after every pop, then drained to empty.
    std::vector<int> sizes;
    for (int size = 1; size <= 40; ++size) sizes.push_back(size);
    for (int size = 1021; size <= 1028; ++size) sizes.push_back(size);
    for (const QueueKind kind : all_kinds()) {
        for (const int size : sizes) {
            const auto queue = make_scheduler_queue<int>(kind);
            OracleQueue oracle;
            Rng rng(300 + static_cast<std::uint64_t>(size));
            for (int i = 0; i < size; ++i) {
                const double t = grid_time(rng, 0.0, 4.0, 2.0);
                queue->push(t, i);
                oracle.push(t, i);
            }
            const std::string context =
                std::string(to_string(kind)) + " size " + std::to_string(size);
            for (int i = 0; i < size / 2; ++i) {
                const double now = queue->next_time();
                ASSERT_NO_FATAL_FAILURE(expect_same_pop(*queue, oracle, context));
                const double t = grid_time(rng, now, 4.0, 2.0);
                queue->push(t, size + i);
                oracle.push(t, size + i);
            }
            while (oracle.size() > 0) {
                ASSERT_NO_FATAL_FAILURE(expect_same_pop(*queue, oracle, context));
            }
            EXPECT_TRUE(queue->empty()) << context;
        }
    }
}

TEST(SchedulerQueueOracle, DrainToEmptyAndClearThenReuse) {
    for (const QueueKind kind : all_kinds()) {
        const auto queue = make_scheduler_queue<int>(kind);
        OracleQueue oracle;
        Rng rng(401);
        int payload = 0;
        double now = 0.0;
        for (int cycle = 0; cycle < 12; ++cycle) {
            const int fill = 5 + 37 * cycle;
            for (int i = 0; i < fill; ++i) {
                const double t = grid_time(rng, now, 3.0, 4.0);
                queue->push(t, payload);
                oracle.push(t, payload);
                ++payload;
            }
            const std::string context =
                std::string(to_string(kind)) + " cycle " + std::to_string(cycle);
            if (cycle % 2 == 0) {
                // Drain to empty; the next fill starts behind the front.
                while (oracle.size() > 0) {
                    now = queue->next_time();
                    ASSERT_NO_FATAL_FAILURE(expect_same_pop(*queue, oracle, context));
                }
                now = std::max(0.0, now - 1.0);
            } else {
                // Pop a few, then clear: the seq stream carries on.
                for (int i = 0; i < fill / 3; ++i) {
                    ASSERT_NO_FATAL_FAILURE(expect_same_pop(*queue, oracle, context));
                }
                queue->clear();
                oracle.clear();
            }
            ASSERT_TRUE(queue->empty()) << context;
            ASSERT_EQ(queue->pushed(), oracle.pushed()) << context;
        }
    }
}

TEST(SchedulerQueueOracle, HeapMoveOnlyPayloadsSurviveHoldAndRefill) {
    // Each payload owns an int equal to its seq; a pop that returned a
    // moved-from entry would hand back a null pointer (and under ASan, any
    // double ownership would be reported).
    BinaryHeapQueue<std::unique_ptr<int>> heap;
    Rng rng(501);
    Time prev_time = -1.0;
    std::uint64_t prev_seq = 0;
    const auto push = [&heap](Time time) {
        heap.push(time, std::make_unique<int>(static_cast<int>(heap.pushed())));
    };
    const auto pop_checked = [&] {
        const auto entry = heap.pop();
        ASSERT_NE(entry.payload, nullptr) << "seq " << entry.seq;
        ASSERT_EQ(*entry.payload, static_cast<int>(entry.seq));
        ASSERT_TRUE(entry.time > prev_time ||
                    (entry.time == prev_time && entry.seq > prev_seq));
        prev_time = entry.time;
        prev_seq = entry.seq;
    };
    // Hold: a steady population where every pop schedules one new event.
    for (int i = 0; i < 1000; ++i) push(grid_time(rng, 0.0, 10.0, 4.0));
    for (int i = 0; i < 20000; ++i) {
        ASSERT_NO_FATAL_FAILURE(pop_checked());
        push(grid_time(rng, prev_time, 10.0, 4.0));
    }
    // Drain and refill through sizes with every residue mod 4.
    for (int fill = 1; fill <= 67; fill += 3) {
        while (!heap.empty()) ASSERT_NO_FATAL_FAILURE(pop_checked());
        for (int i = 0; i < fill; ++i) push(grid_time(rng, prev_time, 2.0, 4.0));
    }
    while (!heap.empty()) ASSERT_NO_FATAL_FAILURE(pop_checked());
}

}  // namespace
}  // namespace papc::sim
