/** @file MemoryController integration tests: latencies, refresh
 *  postponing, ABO back-off protocol, RFM tasks, write draining. */

#include <gtest/gtest.h>

#include <optional>

#include "ctrl/controller.hh"
#include "defense/prac.hh"
#include "defense/prfm.hh"
#include "sim/event_queue.hh"
#include "testing_alloc_counter.hh"

namespace {

using leaky::ctrl::CtrlConfig;
using leaky::ctrl::MemoryController;
using leaky::ctrl::PreventiveEvent;
using leaky::ctrl::Request;
using leaky::defense::PracConfig;
using leaky::defense::PracDefense;
using leaky::defense::PrfmConfig;
using leaky::defense::PrfmDefense;
using leaky::dram::Address;
using leaky::sim::EventQueue;
using leaky::sim::Tick;

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest() : ctrl_(eq_, CtrlConfig{}) {}

    Address
    addr(std::uint32_t bg, std::uint32_t bank, std::uint32_t row,
         std::uint32_t col = 0) const
    {
        Address a;
        a.bankgroup = bg;
        a.bank = bank;
        a.row = row;
        a.column = col;
        return a;
    }

    /** Enqueue a read and return its completion tick when served.
     *  Steps in small increments so consecutive reads stay close
     *  together in time (no intervening refresh). */
    std::optional<Tick>
    readAndWait(const Address &a, Tick run_for = 2'000'000)
    {
        std::optional<Tick> done;
        Request req;
        req.type = Request::Type::kRead;
        req.addr = a;
        req.on_complete = [this, &done] { done = eq_.now(); };
        EXPECT_TRUE(ctrl_.enqueue(std::move(req)));
        const Tick deadline = eq_.now() + run_for;
        while (!done && eq_.now() < deadline)
            eq_.runUntil(eq_.now() + 1'000);
        return done;
    }

    EventQueue eq_;
    MemoryController ctrl_;
};

TEST_F(ControllerTest, ColdReadTakesActPlusClPlusBurst)
{
    const Tick start = eq_.now();
    const auto done = readAndWait(addr(0, 0, 10));
    ASSERT_TRUE(done.has_value());
    const auto &t = ctrl_.config().dram.timing;
    // ACT + tRCD + tCL + tBURST (plus the command-gap slack).
    EXPECT_GE(*done - start, t.tRCD + t.tCL + t.tBURST);
    EXPECT_LE(*done - start, t.tRCD + t.tCL + t.tBURST + 10'000);
    EXPECT_EQ(ctrl_.stats().reads_served, 1u);
    EXPECT_EQ(ctrl_.stats().row_misses, 1u);
}

TEST_F(ControllerTest, RowHitIsFasterThanConflict)
{
    const auto first = readAndWait(addr(0, 0, 10));
    ASSERT_TRUE(first.has_value());
    const Tick hit_start = eq_.now();
    const auto hit = readAndWait(addr(0, 0, 10, 1));
    ASSERT_TRUE(hit.has_value());
    const Tick hit_latency = *hit - hit_start;

    const Tick conflict_start = eq_.now();
    const auto conflict = readAndWait(addr(0, 0, 99));
    ASSERT_TRUE(conflict.has_value());
    const Tick conflict_latency = *conflict - conflict_start;

    EXPECT_LT(hit_latency, conflict_latency);
    EXPECT_EQ(ctrl_.stats().row_hits, 1u);
    EXPECT_EQ(ctrl_.stats().row_conflicts, 1u);
}

TEST_F(ControllerTest, WritesCompleteOnAcceptance)
{
    bool completed = false;
    Request req;
    req.type = Request::Type::kWrite;
    req.addr = addr(0, 0, 10);
    req.on_complete = [&completed] {
        completed = true;
    };
    ASSERT_TRUE(ctrl_.enqueue(std::move(req)));
    eq_.runUntil(eq_.now() + 1000);
    EXPECT_TRUE(completed);
}

TEST_F(ControllerTest, QueueFullRejectsRequest)
{
    for (std::uint32_t i = 0; i < ctrl_.config().read_queue_depth; ++i) {
        Request req;
        req.type = Request::Type::kRead;
        req.addr = addr(i % 8, i % 4, i);
        EXPECT_TRUE(ctrl_.enqueue(std::move(req)));
    }
    Request extra;
    extra.type = Request::Type::kRead;
    extra.addr = addr(0, 0, 12345);
    EXPECT_FALSE(ctrl_.enqueue(std::move(extra)));
}

TEST_F(ControllerTest, IdleSystemRefreshesEveryTrefi)
{
    eq_.runUntil(20 * ctrl_.config().dram.timing.tREFI);
    // ~20 intervals elapsed; allow slack for drain timing.
    EXPECT_GE(ctrl_.stats().refreshes, 18u);
    EXPECT_LE(ctrl_.stats().refreshes, 21u);
}

TEST_F(ControllerTest, BusyTrafficPostponesThenDoublesRefresh)
{
    // Dependent-load loop that keeps the controller busy: reissue on
    // completion, alternating rows.
    std::uint64_t served = 0;
    std::function<void()> next = [&] {
        Request req;
        req.type = Request::Type::kRead;
        req.addr = addr(0, 0, served % 2 ? 10 : 20);
        req.on_complete = [&] {
            served += 1;
            eq_.scheduleAfter(15'000, next);
        };
        ctrl_.enqueue(std::move(req));
    };

    std::vector<std::pair<Tick, Tick>> refreshes;
    ctrl_.setListener([&](PreventiveEvent ev, Tick start, Tick end,
                          const Address &) {
        if (ev == PreventiveEvent::kRefresh)
            refreshes.emplace_back(start, end);
    });

    next();
    const auto trefi = ctrl_.config().dram.timing.tREFI;
    eq_.runUntil(8 * trefi);

    // Refreshes come in back-to-back pairs roughly every 2 x tREFI.
    ASSERT_GE(refreshes.size(), 2u);
    bool found_pair = false;
    for (std::size_t i = 1; i < refreshes.size(); ++i) {
        if (refreshes[i].first - refreshes[i - 1].first <
            ctrl_.config().dram.timing.tRFC + 50'000) {
            found_pair = true;
        }
    }
    EXPECT_TRUE(found_pair) << "no back-to-back refresh pair observed";
}

class ControllerPracTest : public ControllerTest
{
  protected:
    ControllerPracTest()
    {
        PracConfig cfg;
        cfg.nbo = 16; // Small threshold: back-offs come quickly.
        cfg.rfms_per_backoff = 4;
        prac_ = std::make_unique<PracDefense>(ctrl_.config().dram, cfg,
                                              &ctrl_);
        ctrl_.setDeviceHooks(prac_.get());
    }

    std::unique_ptr<PracDefense> prac_;
};

TEST_F(ControllerPracTest, HammeringTriggersBackoffProtocol)
{
    std::vector<std::pair<Tick, Tick>> backoffs;
    ctrl_.setListener([&](PreventiveEvent ev, Tick start, Tick end,
                          const Address &) {
        if (ev == PreventiveEvent::kBackoff)
            backoffs.emplace_back(start, end);
    });

    // Alternate two rows: every access precharges the other row.
    std::uint64_t served = 0;
    std::function<void()> next = [&] {
        Request req;
        req.type = Request::Type::kRead;
        req.addr = addr(0, 0, served % 2 ? 100 : 200);
        req.on_complete = [&] {
            served += 1;
            if (served < 200)
                eq_.scheduleAfter(15'000, next);
        };
        ctrl_.enqueue(std::move(req));
    };
    next();
    eq_.runUntil(100 * leaky::sim::kUs);

    ASSERT_GE(backoffs.size(), 1u);
    EXPECT_EQ(ctrl_.stats().backoffs, backoffs.size());

    // The back-off window spans tABOACT plus 4 recovery RFM windows.
    const auto &t = ctrl_.config().dram.timing;
    const Tick span = backoffs[0].second - backoffs[0].first;
    EXPECT_GE(span, t.tABOACT + 4 * t.tRFM_backoff);
    EXPECT_LE(span, t.tABOACT + 4 * t.tRFM_backoff + 200'000);

    // Alert count matches controller back-off count.
    EXPECT_EQ(prac_->alertCount(), ctrl_.stats().backoffs);
}

TEST_F(ControllerPracTest, BackoffBlocksRequestsDuringRecovery)
{
    // Trigger a back-off, then measure a request issued mid-recovery.
    std::uint64_t served = 0;
    Tick backoff_start = 0;
    ctrl_.setListener([&](PreventiveEvent ev, Tick start, Tick,
                          const Address &) {
        if (ev == PreventiveEvent::kBackoff && backoff_start == 0)
            backoff_start = start;
    });
    std::function<void()> next = [&] {
        Request req;
        req.type = Request::Type::kRead;
        req.addr = addr(0, 0, served % 2 ? 100 : 200);
        req.on_complete = [&] {
            served += 1;
            if (backoff_start == 0)
                eq_.scheduleAfter(15'000, next);
        };
        ctrl_.enqueue(std::move(req));
    };
    next();
    eq_.runUntil(100 * leaky::sim::kUs);
    ASSERT_GT(backoff_start, 0u);

    // A fresh request right after the alert waits out the recovery.
    const Tick start = eq_.now();
    const auto done = readAndWait(addr(7, 3, 5));
    ASSERT_TRUE(done.has_value());
    EXPECT_GT(*done, start);
}

TEST_F(ControllerTest, PrfmIssuesRfmEveryTrfmActivations)
{
    PrfmConfig cfg;
    cfg.trfm = 8;
    PrfmDefense prfm(ctrl_.config().dram, cfg);
    ctrl_.setControllerDefense(&prfm);

    std::uint64_t rfms_seen = 0;
    ctrl_.setListener([&](PreventiveEvent ev, Tick, Tick,
                          const Address &) {
        if (ev == PreventiveEvent::kRfm)
            rfms_seen += 1;
    });

    std::uint64_t served = 0;
    std::function<void()> next = [&] {
        Request req;
        req.type = Request::Type::kRead;
        req.addr = addr(0, 0, served % 2 ? 100 : 200);
        req.on_complete = [&] {
            served += 1;
            if (served < 64)
                eq_.scheduleAfter(15'000, next);
        };
        ctrl_.enqueue(std::move(req));
    };
    next();
    eq_.runUntil(50 * leaky::sim::kUs);

    // 64 activations at TRFM=8 -> ~8 RFMs (the last may be pending).
    EXPECT_GE(rfms_seen, 6u);
    EXPECT_LE(rfms_seen, 9u);
    EXPECT_EQ(ctrl_.stats().rfms, rfms_seen);
}

TEST_F(ControllerTest, WriteDrainingServesWriteBurst)
{
    for (std::uint32_t i = 0; i < ctrl_.config().wq_drain_high; ++i) {
        Request req;
        req.type = Request::Type::kWrite;
        req.addr = addr(i % 8, i % 4, i % 32);
        ASSERT_TRUE(ctrl_.enqueue(std::move(req)));
    }
    eq_.runUntil(eq_.now() + 20 * leaky::sim::kUs);
    EXPECT_GE(ctrl_.stats().writes_served,
              ctrl_.config().wq_drain_high -
                  ctrl_.config().wq_drain_low);
}

// ---------------------------------------------------------------------
// Livelock detector vs the batched-issue path. A wake-up that issues
// nothing must still count as a stall (the batching loop must not mask
// it), while legitimate same-tick batches (cmd_gap == 0) and long
// filter-blocked waits with forward-moving wake-ups must not trip.

/** A buggy defense that demands a same-tick wake-up forever without
 *  ever having work: the classic livelock the detector exists for. */
class SameTickDefense final : public leaky::ctrl::ControllerDefense
{
  public:
    void onActivate(const Address &, Tick) override {}
    std::optional<leaky::ctrl::RfmRequest> pendingRfm(Tick) override
    {
        return std::nullopt;
    }
    void onRfmIssued(const leaky::ctrl::RfmRequest &, Tick, Tick) override
    {
    }
    Tick nextEventTick(Tick now) const override { return now; }
};

TEST_F(ControllerTest, LivelockDetectorTripsOnZeroProgressSpin)
{
    // A queued request whose bank a back-off task's filter blocks, plus
    // a defense pinning the wake-up to the current tick: once nothing
    // is issuable, the controller re-wakes at one tick forever and the
    // detector must panic rather than spin silently.
    SameTickDefense defense;
    ctrl_.setControllerDefense(&defense);
    Request req;
    req.type = Request::Type::kRead;
    req.addr = addr(0, 0, 10);
    ASSERT_TRUE(ctrl_.enqueue(std::move(req)));
    leaky::dram::AlertInfo info;
    info.bank_scoped = true;
    info.bank = addr(0, 0, 0);
    ctrl_.raiseAlert(info);
    EXPECT_DEATH(eq_.runUntil(10 * leaky::sim::kUs), "livelocked");
}

TEST_F(ControllerTest, SameTickBatchWithZeroGapDoesNotTrip)
{
    // cmd_gap == 0 makes a whole row-hit burst issuable at one tick;
    // the batched loop drains it in a single wake-up. Progress at an
    // unchanged tick must reset the stall counter, not trip it.
    CtrlConfig cfg;
    cfg.cmd_gap = 0;
    MemoryController ctrl(eq_, cfg);
    std::uint64_t completions = 0;
    for (int i = 0; i < 8; ++i) {
        Request req;
        req.type = Request::Type::kRead;
        req.addr = addr(0, 0, 10, static_cast<std::uint32_t>(i));
        req.on_complete = [&completions] { completions += 1; };
        ASSERT_TRUE(ctrl.enqueue(std::move(req)));
    }
    eq_.runUntil(eq_.now() + 2 * leaky::sim::kUs);
    EXPECT_EQ(completions, 8u);
    EXPECT_EQ(ctrl.stats().reads_served, 8u);
}

TEST_F(ControllerTest, FilterBlockedRequestWaitsWithoutTripping)
{
    // A bank back-off blocks the only queued request's bank for the
    // whole recovery burst; the wake-ups keep moving forward, so the
    // wait is legitimate and the request completes afterwards.
    leaky::dram::AlertInfo info;
    info.bank_scoped = true;
    info.bank = addr(0, 0, 0);
    ctrl_.raiseAlert(info);
    // Enter the post-window phase first: the filter only blocks new
    // activations once tAlert + tABOACT have elapsed and the recovery
    // RFMs are being slotted in.
    const auto &t = ctrl_.config().dram.timing;
    eq_.runUntil(eq_.now() + t.tAlert + t.tABOACT + 1);
    const auto done = readAndWait(addr(0, 0, 10), 20'000'000);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(ctrl_.stats().bank_backoffs, 1u);
    EXPECT_EQ(ctrl_.stats().reads_served, 1u);
}

// ---------------------------------------------------------------------
// Zero-allocation steady state: controller tick(), the scheduler scan
// and request completion must not touch the heap once every pool and
// queue has grown to its high-water mark (see testing_alloc_counter.hh).

TEST_F(ControllerTest, SteadyStateServiceDoesNotAllocate)
{
    std::uint64_t completions = 0;
    const auto read = [&](int i) {
        Request req;
        req.type = Request::Type::kRead;
        req.addr = addr(static_cast<std::uint32_t>(i) % 8,
                        (static_cast<std::uint32_t>(i) / 8) % 4,
                        static_cast<std::uint32_t>(i) % 64);
        req.on_complete = [&completions] { completions += 1; };
        return ctrl_.enqueue(std::move(req));
    };

    // Warm-up: grow the event slab, the request queues' packed mirrors
    // and the scheduler's status scratch past their high-water marks,
    // and cross at least one refresh drain. Retry rejected enqueues so
    // every request eventually lands (the queue saturates at depth).
    for (int i = 0; i < 200; ++i) {
        while (!read(i))
            eq_.runUntil(eq_.now() + 5'000);
        eq_.runUntil(eq_.now() + 5'000);
    }
    eq_.runUntil(eq_.now() + 5'000'000);
    const std::uint64_t warmed = completions;

    // Steady state: the enqueue -> scan -> issue -> complete cycle,
    // including periodic refreshes, with the heap untouched.
    const std::uint64_t before = leaky_test_heap_allocs.load();
    for (int i = 0; i < 500; ++i) {
        while (!read(i))
            eq_.runUntil(eq_.now() + 5'000);
        eq_.runUntil(eq_.now() + 5'000);
    }
    eq_.runUntil(eq_.now() + 5'000'000);
    const std::uint64_t after = leaky_test_heap_allocs.load();

    EXPECT_EQ(after, before);
    EXPECT_EQ(completions, warmed + 500);
}

} // namespace
