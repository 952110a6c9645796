/**
 * @file
 * EventQueue unit tests: ordering, cancellation, time limits, plus the
 * intrusive-kernel semantics -- generation-counted handles across slab
 * reuse, member-bound events rescheduling themselves from their own
 * callbacks, pool growth, and the zero-allocation steady-state
 * invariant (verified by a test-binary-wide operator new counter).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "testing_alloc_counter.hh"

/** Allocation counter: this replaces the global allocator for the whole
 *  test binary, so tests can assert that a code region allocates
 *  nothing (other suites read it through testing_alloc_counter.hh).
 *  Single-threaded counting is fine for this binary. */
std::atomic<std::uint64_t> leaky_test_heap_allocs{0};

// GCC pairs the replacement operator new with the library operator
// delete and (wrongly) flags the malloc/free routing below.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    leaky_test_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The nothrow forms must be replaced too: std::stable_sort's temporary
// buffer allocates through them and frees through the sized delete
// below, so the library's own nothrow new would pair with free().
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    leaky_test_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using leaky::sim::Event;
using leaky::sim::EventQueue;
using leaky::sim::kNoEvent;
using leaky::sim::kTickMax;
using leaky::sim::memberEvent;
using leaky::sim::SmallFn;
using leaky::sim::Tick;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.nextEventTick(), kTickMax);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    int fired = 0;
    const auto handle = eq.schedule(10, [&] { fired += 1; });
    eq.schedule(20, [&] { fired += 10; });
    EXPECT_TRUE(eq.cancel(handle));
    EXPECT_FALSE(eq.cancel(handle)); // Second cancel is a no-op.
    eq.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, RunUntilStopsAtLimitAndAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { fired += 1; });
    eq.schedule(100, [&] { fired += 1; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.runUntil(100);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        depth += 1;
        if (depth < 5)
            eq.scheduleAfter(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(7, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 107u);
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue eq;
    const auto h1 = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.size(), 2u);
    eq.cancel(h1);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduling into the past");
}

// ---------------------------------------------------------------------
// Intrusive-kernel semantics.

TEST(EventQueue, StaleHandleAfterExecutionCannotCancel)
{
    EventQueue eq;
    int fired = 0;
    const auto h1 = eq.schedule(10, [&] { fired += 1; });
    eq.run();
    EXPECT_EQ(fired, 1);
    // h1's slot is free now; its generation is stale.
    EXPECT_FALSE(eq.cancel(h1));

    // The freed slot is reused (LIFO free list) for the next event; the
    // stale handle must neither cancel it nor alias it.
    const auto h2 = eq.schedule(20, [&] { fired += 10; });
    EXPECT_NE(h1, h2);
    EXPECT_FALSE(eq.cancel(h1));
    eq.run();
    EXPECT_EQ(fired, 11);
}

TEST(EventQueue, StaleHandleAfterCancelDoesNotAliasReusedSlot)
{
    EventQueue eq;
    int fired = 0;
    const auto h1 = eq.schedule(10, [&] { fired += 1; });
    EXPECT_TRUE(eq.cancel(h1));
    const auto h2 = eq.schedule(10, [&] { fired += 10; });
    EXPECT_FALSE(eq.cancel(h1)); // Stale generation on a reused slot.
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_FALSE(eq.cancel(h2)); // Executed handles are stale too.
}

TEST(EventQueue, SameTickFifoOrderSurvivesSlabReuse)
{
    EventQueue eq;
    // Churn the free list so the same-tick events below land in
    // shuffled slab slots: slot order must not leak into run order.
    std::vector<leaky::sim::EventHandle> churn;
    for (int i = 0; i < 40; ++i)
        churn.push_back(eq.schedule(5, [] {}));
    for (int i = 0; i < 40; i += 2)
        eq.cancel(churn[static_cast<std::size_t>(i)]);

    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PoolGrowsPastInitialCapacity)
{
    EventQueue eq;
    EXPECT_EQ(eq.poolCapacity(), 0u);
    std::uint64_t fired = 0;
    constexpr int kEvents = 3000; // > several growth chunks
    for (int i = 0; i < kEvents; ++i)
        eq.schedule(static_cast<Tick>(i), [&fired] { fired += 1; });
    EXPECT_GE(eq.poolCapacity(), static_cast<std::size_t>(kEvents));
    EXPECT_EQ(eq.size(), static_cast<std::size_t>(kEvents));
    eq.run();
    EXPECT_EQ(fired, static_cast<std::uint64_t>(kEvents));
    EXPECT_GE(eq.kernelStats().pool_chunks, 2u);
}

struct SelfTicker {
    explicit SelfTicker(EventQueue &q)
        : eq(q), ev(memberEvent<&SelfTicker::tick>(this))
    {
    }

    void
    tick()
    {
        ticks += 1;
        last_at = eq.now();
        if (ticks < limit)
            eq.scheduleAfter(ev, 10);
    }

    EventQueue &eq;
    Event ev;
    int ticks = 0;
    int limit = 0;
    Tick last_at = 0;
};

TEST(EventQueue, BoundEventReschedulesItselfFromCallback)
{
    EventQueue eq;
    SelfTicker ticker(eq);
    ticker.limit = 5;
    eq.schedule(ticker.ev, 0);
    EXPECT_TRUE(ticker.ev.scheduled());
    eq.run();
    EXPECT_EQ(ticker.ticks, 5);
    EXPECT_EQ(ticker.last_at, 40u);
    EXPECT_FALSE(ticker.ev.scheduled());
}

TEST(EventQueue, RescheduleMovesAPendingBoundEvent)
{
    EventQueue eq;
    SelfTicker ticker(eq);
    ticker.limit = 1;
    eq.schedule(ticker.ev, 100);
    eq.reschedule(ticker.ev, 30);
    EXPECT_EQ(ticker.ev.when(), 30u);
    eq.run();
    EXPECT_EQ(ticker.ticks, 1);
    EXPECT_EQ(ticker.last_at, 30u);
    EXPECT_EQ(eq.now(), 30u); // The stale 100-tick entry is skipped.
}

TEST(EventQueue, DescheduledBoundEventDoesNotFire)
{
    EventQueue eq;
    SelfTicker ticker(eq);
    ticker.limit = 1;
    eq.schedule(ticker.ev, 10);
    EXPECT_TRUE(eq.deschedule(ticker.ev));
    EXPECT_FALSE(eq.deschedule(ticker.ev)); // Second is a no-op.
    eq.run();
    EXPECT_EQ(ticker.ticks, 0);
}

TEST(EventQueue, BoundEventDestructorDeschedules)
{
    EventQueue eq;
    int fired = 0;
    {
        SelfTicker ticker(eq);
        ticker.limit = 1;
        eq.schedule(ticker.ev, 10);
        eq.schedule(20, [&fired] { fired += 1; });
    }
    eq.run(); // The destroyed ticker's occurrence must not run.
    EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------
// Zero-allocation steady state.

TEST(EventQueue, SteadyStateSchedulingDoesNotAllocate)
{
    EventQueue eq;
    SelfTicker ticker(eq);
    std::uint64_t counter = 0;

    // Warm-up: grow the slab and the heap past the steady-state
    // high-water mark (1001 simultaneously live events below).
    for (int i = 0; i < 1200; ++i)
        eq.scheduleAfter(static_cast<Tick>(i % 31), [&counter] {
            counter += 1;
        });
    eq.run();

    // Steady state: a self-rescheduling bound event plus one-shot
    // lambdas with small captures, mirroring the controller's tick /
    // completion pattern. None of this may touch the heap.
    ticker.limit = 1000;
    const std::uint64_t allocs_before = leaky_test_heap_allocs.load();
    eq.schedule(ticker.ev, eq.now());
    for (int i = 0; i < 1000; ++i)
        eq.scheduleAfter(static_cast<Tick>(i % 31), [&counter] {
            counter += 1;
        });
    eq.run();
    const std::uint64_t allocs_after = leaky_test_heap_allocs.load();

    EXPECT_EQ(allocs_after, allocs_before);
    EXPECT_EQ(ticker.ticks, 1000);
    EXPECT_EQ(counter, 2200u);
    EXPECT_EQ(eq.kernelStats().one_shot_spills, 0u);
}

// ---------------------------------------------------------------------
// Property-based differential test: the production kernel (timing wheel
// + heap fallback) against a naive reference model that simply sorts
// pending events by (tick, schedule-seq). Random schedules spanning
// every wheel level (including the beyond-horizon heap route), random
// cancellations, and partial runUntil() slices must all reproduce the
// reference fire order exactly — same-tick ties included.

TEST(EventQueueProperty, WheelMatchesReferenceHeapOrder)
{
    leaky::sim::Rng rng(0xC0FFEE);
    const auto rnd = [&rng](std::uint64_t bound) {
        return rng.below(bound);
    };
    // Delta magnitudes chosen to hit wheel levels 0..5 and the heap
    // fallback (one full horizon past wheel_now_).
    static constexpr Tick kSpans[] = {
        1, 7, 60, 250, 3000, 70'000, Tick{1} << 20, Tick{1} << 49,
    };

    std::uint64_t wheel_total = 0;
    std::uint64_t heap_total = 0;
    for (int round = 0; round < 10; ++round) {
        EventQueue eq;
        struct Pending {
            Tick when;
            std::uint64_t seq; ///< Global schedule order (tie-break).
            int id;
            leaky::sim::EventHandle handle;
        };
        std::vector<Pending> model;
        std::vector<int> fired;
        std::vector<int> expected;
        std::uint64_t seq = 0;
        int next_id = 0;

        const auto byOrder = [](const Pending &a, const Pending &b) {
            return a.when != b.when ? a.when < b.when : a.seq < b.seq;
        };
        const auto drainModel = [&](Tick limit) {
            std::vector<Pending> due;
            for (std::size_t i = 0; i < model.size();) {
                if (model[i].when <= limit) {
                    due.push_back(model[i]);
                    model.erase(model.begin() +
                                static_cast<std::ptrdiff_t>(i));
                } else {
                    ++i;
                }
            }
            std::sort(due.begin(), due.end(), byOrder);
            for (const Pending &p : due)
                expected.push_back(p.id);
        };

        for (int step = 0; step < 300; ++step) {
            const std::uint64_t op = rnd(100);
            if (op < 60 || model.empty()) {
                // Burst of one-shots; small spans collide on one tick
                // often, exercising the same-tick seq order.
                const int burst = 1 + static_cast<int>(rnd(8));
                for (int b = 0; b < burst; ++b) {
                    const Tick span = kSpans[rnd(std::size(kSpans))];
                    const Tick when = eq.now() + rnd(span + 1);
                    const int id = next_id++;
                    const auto h = eq.schedule(
                        when, [&fired, id] { fired.push_back(id); });
                    model.push_back({when, seq++, id, h});
                }
            } else if (op < 80) {
                const std::size_t k = rnd(model.size());
                EXPECT_TRUE(eq.cancel(model[k].handle));
                model.erase(model.begin() +
                            static_cast<std::ptrdiff_t>(k));
            } else {
                // Run a slice ending at a pending deadline plus random
                // slack, so limits land both on and between events.
                const std::size_t k = rnd(model.size());
                const Tick limit = model[k].when + rnd(64);
                eq.runUntil(limit);
                drainModel(limit);
                ASSERT_EQ(fired, expected) << "round " << round
                                           << " step " << step;
            }
        }
        eq.run();
        drainModel(kTickMax);
        ASSERT_EQ(fired, expected) << "round " << round;
        EXPECT_TRUE(eq.empty());
        wheel_total += eq.kernelStats().wheel_events;
        heap_total += eq.kernelStats().heap_events;
    }
    // The generator must have exercised both routing paths.
    EXPECT_GT(wheel_total, 0u);
    EXPECT_GT(heap_total, 0u);
}

TEST(EventQueue, OversizedCapturesSpillAndAreCounted)
{
    EventQueue eq;
    // A capture bigger than SmallFn's inline buffer must still work --
    // it spills to the heap and is counted.
    struct Big {
        unsigned char payload[SmallFn::kInlineBytes + 16] = {};
    } big;
    big.payload[0] = 7;
    int seen = 0;
    eq.schedule(5, [big, &seen] { seen = big.payload[0]; });
    EXPECT_EQ(eq.kernelStats().one_shot_spills, 1u);
    eq.run();
    EXPECT_EQ(seen, 7);
}

} // namespace
