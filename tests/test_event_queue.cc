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
#include <array>
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
    EXPECT_EQ(eq.now(), 30u); // Nothing is left at tick 100.
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
    SelfTicker mover(eq);
    std::uint64_t counter = 0;
    const auto bump = [&counter] { counter += 1; };

    // Warm-up: grow the slab, the run pool and the heap past the
    // steady-state high-water mark (about 1000 live events below).
    for (int i = 0; i < 1200; ++i)
        eq.scheduleAfter(static_cast<Tick>(i % 31), bump);
    eq.run();

    // Two ticks past the one-shots below that share a tick->run index
    // slot (pure arithmetic, outside the measured region).
    const Tick a = eq.now() + 40;
    Tick b = a + 1;
    while (EventQueue::runIndexSlot(b) != EventQueue::runIndexSlot(a))
        ++b;
    std::array<leaky::sim::EventHandle, 1000> handles{};

    // Steady state: a self-rescheduling bound event plus one-shot
    // lambdas with small captures, mirroring the controller's tick /
    // completion pattern. None of this may touch the heap.
    ticker.limit = 1000;
    mover.limit = 1;
    const std::uint64_t allocs_before = leaky_test_heap_allocs.load();
    eq.schedule(ticker.ev, eq.now());
    // Runs of about 32 events per tick.
    for (std::size_t i = 0; i < handles.size(); ++i)
        handles[i] = eq.scheduleAfter(static_cast<Tick>(i % 31), bump);
    // Mid-run cancels: every other event of one run, its head (i = 5)
    // and its tail (i = 997) included.
    int cancelled = 0;
    for (std::size_t i = 5; i < handles.size(); i += 62)
        cancelled += eq.cancel(handles[i]) ? 1 : 0;
    // Index-slot collision: b displaces a's run from the index, so the
    // second schedule at a starts a second run of that tick.
    eq.schedule(a, bump);
    eq.schedule(b, bump);
    eq.schedule(a, bump);
    // A bound event moved alone (in place), then out of a shared run.
    eq.schedule(mover.ev, a + 100);
    eq.reschedule(mover.ev, a + 50);
    eq.reschedule(mover.ev, a);
    eq.schedule(a, bump);
    eq.reschedule(mover.ev, a + 7);
    eq.run();
    const std::uint64_t allocs_after = leaky_test_heap_allocs.load();

    EXPECT_EQ(allocs_after, allocs_before);
    EXPECT_EQ(cancelled, 17);
    EXPECT_EQ(ticker.ticks, 1000);
    EXPECT_EQ(mover.ticks, 1);
    EXPECT_EQ(mover.last_at, a + 7);
    EXPECT_EQ(counter, 1200u + 1000u - 17u + 4u);
    EXPECT_EQ(eq.kernelStats().one_shot_spills, 0u);
}

// ---------------------------------------------------------------------
// Property-based differential test: the production kernel (a heap of
// same-tick runs) against a naive reference model that simply sorts
// pending events by (tick, schedule-seq). Random one-shot schedules
// from 1 tick to 2^49 ticks out, bound-event reschedules, random
// cancellations, and partial runUntil() slices must all reproduce the
// reference fire order exactly -- same-tick ties included. The
// generator aims some schedules at pending ticks (appends to a run)
// and at ticks sharing a pending tick's index slot, and the test
// checks that every run path was taken.

/** A bound event that records its id when it fires. */
struct Probe {
    void fire() { fired->push_back(id); }

    Event ev;
    std::vector<int> *fired = nullptr;
    int id = 0;
};

TEST(EventQueueProperty, MatchesReferenceOrder)
{
    leaky::sim::Rng rng(0xC0FFEE);
    const auto rnd = [&rng](std::uint64_t bound) {
        return rng.below(bound);
    };
    static constexpr Tick kSpans[] = {
        1, 7, 60, 250, 3000, 70'000, Tick{1} << 20, Tick{1} << 49,
    };

    struct Coverage {
        std::uint64_t same_tick = 0;   ///< Scheduled onto a pending tick.
        std::uint64_t shared_slot = 0; ///< Another pending tick's slot.
        std::uint64_t cancel_head = 0;
        std::uint64_t cancel_middle = 0;
        std::uint64_t cancel_tail = 0;
        std::uint64_t move_alone = 0;  ///< Reschedule of a lone event.
        std::uint64_t move_shared = 0; ///< Reschedule out of a run.
    } cov;

    for (int round = 0; round < 10; ++round) {
        EventQueue eq;
        std::vector<int> fired;
        std::array<Probe, 3> probes;
        for (std::size_t k = 0; k < probes.size(); ++k) {
            probes[k].ev.bind(&probes[k], [](void *ctx) {
                static_cast<Probe *>(ctx)->fire();
            });
            probes[k].fired = &fired;
            probes[k].id = -1 - static_cast<int>(k);
        }
        struct Pending {
            Tick when;
            std::uint64_t seq; ///< Global schedule order (tie-break).
            int id;            ///< Negative for probes: -1 - index.
            leaky::sim::EventHandle handle;
        };
        std::vector<Pending> model;
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
        const auto erasePending = [&model](std::size_t k) {
            model.erase(model.begin() + static_cast<std::ptrdiff_t>(k));
        };
        // Pick a deadline and note which run paths it aims at.
        const auto pickWhen = [&]() {
            const std::uint64_t kind = rnd(8);
            Tick when = eq.now() + rnd(kSpans[rnd(std::size(kSpans))] + 1);
            if (!model.empty() && kind == 0) {
                when = model[rnd(model.size())].when;
            } else if (!model.empty() && kind == 1) {
                // The nearest later tick sharing a pending tick's slot.
                const Tick other = model[rnd(model.size())].when;
                when = eq.now();
                while (when == other ||
                       EventQueue::runIndexSlot(when) !=
                           EventQueue::runIndexSlot(other))
                    ++when;
            }
            for (const Pending &p : model) {
                if (p.when == when)
                    cov.same_tick += 1;
                else if (EventQueue::runIndexSlot(p.when) ==
                         EventQueue::runIndexSlot(when))
                    cov.shared_slot += 1;
            }
            return when;
        };
        const auto findProbe = [&model](int id) {
            for (std::size_t i = 0; i < model.size(); ++i)
                if (model[i].id == id)
                    return i;
            return model.size();
        };

        for (int step = 0; step < 300; ++step) {
            const std::uint64_t op = rnd(100);
            if (op < 50 || model.empty()) {
                // Burst of one-shots; small spans collide on one tick
                // often, exercising the same-tick seq order.
                const int burst = 1 + static_cast<int>(rnd(8));
                for (int b = 0; b < burst; ++b) {
                    const Tick when = pickWhen();
                    const int id = next_id++;
                    const auto h = eq.schedule(
                        when, [&fired, id] { fired.push_back(id); });
                    model.push_back({when, seq++, id, h});
                }
            } else if (op < 60) {
                Probe &probe = probes[rnd(probes.size())];
                const std::size_t k = findProbe(probe.id);
                if (k < model.size()) {
                    std::size_t peers = 0;
                    for (const Pending &p : model)
                        peers += p.when == model[k].when ? 1 : 0;
                    (peers == 1 ? cov.move_alone : cov.move_shared) += 1;
                    erasePending(k);
                }
                const Tick when = pickWhen();
                eq.reschedule(probe.ev, when);
                EXPECT_EQ(probe.ev.when(), when);
                model.push_back({when, seq++, probe.id, kNoEvent});
                if (rnd(2) == 0) {
                    // A later schedule on the same tick must fire after
                    // the moved event.
                    const int id = next_id++;
                    const auto h = eq.schedule(
                        when, [&fired, id] { fired.push_back(id); });
                    model.push_back({when, seq++, id, h});
                }
            } else if (op < 80) {
                // Classify the victim by its place among the pending
                // events of its tick: the kernel's run order.
                const std::size_t k = rnd(model.size());
                bool earlier = false;
                bool later = false;
                for (const Pending &p : model) {
                    if (p.when == model[k].when) {
                        earlier = earlier || p.seq < model[k].seq;
                        later = later || p.seq > model[k].seq;
                    }
                }
                if (earlier && later)
                    cov.cancel_middle += 1;
                else if (later)
                    cov.cancel_head += 1;
                else if (earlier)
                    cov.cancel_tail += 1;
                if (model[k].id < 0) {
                    Probe &probe =
                        probes[static_cast<std::size_t>(-1 - model[k].id)];
                    EXPECT_TRUE(eq.deschedule(probe.ev));
                } else {
                    EXPECT_TRUE(eq.cancel(model[k].handle));
                }
                erasePending(k);
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
            ASSERT_EQ(eq.size(), model.size());
            ASSERT_EQ(eq.nextEventTick(),
                      model.empty()
                          ? kTickMax
                          : std::min_element(model.begin(), model.end(),
                                             byOrder)
                                ->when);
        }
        eq.run();
        drainModel(kTickMax);
        ASSERT_EQ(fired, expected) << "round " << round;
        EXPECT_TRUE(eq.empty());
    }
    // The generator must have exercised every run path.
    EXPECT_GT(cov.same_tick, 0u);
    EXPECT_GT(cov.shared_slot, 0u);
    EXPECT_GT(cov.cancel_head, 0u);
    EXPECT_GT(cov.cancel_middle, 0u);
    EXPECT_GT(cov.cancel_tail, 0u);
    EXPECT_GT(cov.move_alone, 0u);
    EXPECT_GT(cov.move_shared, 0u);
}

TEST(EventQueue, MovedBoundEventFiresBeforeLaterSameTickSchedules)
{
    EventQueue eq;
    std::vector<int> fired;
    Probe probe;
    probe.ev.bind(&probe, [](void *ctx) {
        static_cast<Probe *>(ctx)->fire();
    });
    probe.fired = &fired;
    probe.id = 2;
    eq.schedule(50, [&fired] { fired.push_back(1); });
    eq.schedule(probe.ev, 100);
    eq.reschedule(probe.ev, 50); // Moved alone, behind the tick's run.
    eq.schedule(50, [&fired] { fired.push_back(3); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
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
