/** @file FR-FCFS scheduler tests: hit priority, FCFS, column cap. */

#include <gtest/gtest.h>

#include "ctrl/scheduler.hh"

namespace {

using leaky::ctrl::BankFilter;
using leaky::ctrl::FrFcfsScheduler;
using leaky::ctrl::QueueEntry;
using leaky::ctrl::Request;
using leaky::ctrl::RequestQueue;
using leaky::dram::Address;
using leaky::dram::Command;
using leaky::dram::DramChannel;
using leaky::dram::DramConfig;

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
        : cfg_(DramConfig::ddr5Paper()), chan_(cfg_),
          sched_(cfg_.org, 16)
    {
    }

    QueueEntry
    entry(std::uint32_t bg, std::uint32_t bank, std::uint32_t row,
          std::uint64_t order)
    {
        QueueEntry e;
        e.req.type = Request::Type::kRead;
        e.req.addr.bankgroup = bg;
        e.req.addr.bank = bank;
        e.req.addr.row = row;
        e.order = order;
        return e;
    }

    /** Build a RequestQueue from entries (push annotates addresses). */
    template <typename... Es>
    RequestQueue
    queue(Es... es)
    {
        RequestQueue q(cfg_.org);
        (q.push(std::move(es)), ...);
        return q;
    }

    /** BankFilter that blocks nothing. */
    static constexpr BankFilter noneBlocked{};

    DramConfig cfg_;
    DramChannel chan_;
    FrFcfsScheduler sched_;
};

TEST_F(SchedulerTest, EmptyQueueYieldsNothing)
{
    RequestQueue q(cfg_.org);
    EXPECT_FALSE(sched_.pick(q, chan_, noneBlocked, 0).has_value());
}

TEST_F(SchedulerTest, ClosedBankGetsActivate)
{
    auto q = queue(entry(0, 0, 5, 0));
    const auto d = sched_.pick(q, chan_, noneBlocked, 0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->cmd, Command::kAct);
    EXPECT_EQ(d->index, 0u);
}

TEST_F(SchedulerTest, RowHitBeatsOlderConflict)
{
    chan_.issue(Command::kAct, entry(0, 0, 5, 0).req.addr, 0);
    // Older request conflicts (row 9), newer request hits (row 5).
    auto q = queue(entry(0, 0, 9, 0), entry(0, 0, 5, 1));
    const auto d = sched_.pick(q, chan_, noneBlocked,
                               cfg_.timing.tRCD);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->index, 1u);
    EXPECT_EQ(d->cmd, Command::kRd);
}

TEST_F(SchedulerTest, ConflictGetsPrecharge)
{
    chan_.issue(Command::kAct, entry(0, 0, 5, 0).req.addr, 0);
    auto q = queue(entry(0, 0, 9, 0));
    const auto d = sched_.pick(q, chan_, noneBlocked, 0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->cmd, Command::kPre);
}

TEST_F(SchedulerTest, FcfsAmongEqualCandidates)
{
    auto q = queue(entry(0, 0, 5, 3), entry(1, 0, 6, 1),
                             entry(2, 0, 7, 2));
    const auto d = sched_.pick(q, chan_, noneBlocked, 0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->index, 1u); // order 1 is oldest.
}

TEST_F(SchedulerTest, ColumnCapYieldsToOlderConflict)
{
    const auto hit_addr = entry(0, 0, 5, 0).req.addr;
    chan_.issue(Command::kAct, hit_addr, 0);
    // Saturate the hit streak for that bank.
    for (int i = 0; i < 16; ++i)
        sched_.onIssue(hit_addr, Command::kRd, true);

    // Older conflict (order 0) + newer hit (order 1): the cap forces
    // the conflict now.
    auto q = queue(entry(0, 0, 9, 0), entry(0, 0, 5, 1));
    const auto d = sched_.pick(q, chan_, noneBlocked, cfg_.timing.tRCD);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->index, 0u);
    EXPECT_EQ(d->cmd, Command::kPre);
}

TEST_F(SchedulerTest, CapIgnoredWithoutOlderConflict)
{
    const auto hit_addr = entry(0, 0, 5, 0).req.addr;
    chan_.issue(Command::kAct, hit_addr, 0);
    for (int i = 0; i < 20; ++i)
        sched_.onIssue(hit_addr, Command::kRd, true);
    // Only hits (no older non-hit): keep streaming.
    auto q = queue(entry(0, 0, 5, 0));
    const auto d = sched_.pick(q, chan_, noneBlocked, cfg_.timing.tRCD);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->cmd, Command::kRd);
}

TEST_F(SchedulerTest, ActivateResetsStreak)
{
    const auto hit_addr = entry(0, 0, 5, 0).req.addr;
    chan_.issue(Command::kAct, hit_addr, 0);
    for (int i = 0; i < 16; ++i)
        sched_.onIssue(hit_addr, Command::kRd, true);
    sched_.onIssue(hit_addr, Command::kAct, false);

    auto q = queue(entry(0, 0, 9, 0), entry(0, 0, 5, 1));
    const auto d = sched_.pick(q, chan_, noneBlocked, cfg_.timing.tRCD);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->index, 1u); // Hit priority restored.
}

TEST_F(SchedulerTest, BlockedBanksAreSkipped)
{
    auto q = queue(entry(0, 0, 5, 0), entry(1, 1, 6, 1));
    const BankFilter blocked{[](const void *, const Address &a) {
        return a.bankgroup == 0 && a.bank == 0;
    }, nullptr};
    const auto d = sched_.pick(q, chan_, blocked, 0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->index, 1u);
}

TEST_F(SchedulerTest, AllBlockedYieldsNothing)
{
    auto q = queue(entry(0, 0, 5, 0));
    const BankFilter blocked{
        [](const void *, const Address &) { return true; }, nullptr};
    EXPECT_FALSE(sched_.pick(q, chan_, blocked, 0).has_value());
}

TEST_F(SchedulerTest, WriteHitPicksWriteCommand)
{
    const auto a = entry(0, 0, 5, 0).req.addr;
    chan_.issue(Command::kAct, a, 0);
    QueueEntry e = entry(0, 0, 5, 0);
    e.req.type = Request::Type::kWrite;
    auto q = queue(std::move(e));
    const auto d = sched_.pick(q, chan_, noneBlocked, cfg_.timing.tRCD);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->cmd, Command::kWr);
}

} // namespace
