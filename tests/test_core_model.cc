/** @file TraceCore tests: IPC behaviour, MSHR limits, budgets. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "defense/factory.hh"
#include "sys/core.hh"
#include "sys/system.hh"

namespace {

using leaky::defense::DefenseKind;
using leaky::sim::Tick;
using leaky::sys::CoreConfig;
using leaky::sys::System;
using leaky::sys::SystemConfig;
using leaky::sys::TraceCore;
using leaky::sys::TraceEntry;

std::vector<TraceEntry>
computeTrace(std::uint32_t non_mem, std::size_t records)
{
    // Loads are spaced by `non_mem` instructions; addresses walk rows
    // so they miss the caches.
    std::vector<TraceEntry> trace;
    for (std::size_t i = 0; i < records; ++i) {
        TraceEntry e;
        e.non_mem_insts = non_mem;
        e.addr = (i * 8192 + 64) % (1ull << 32);
        trace.push_back(e);
    }
    return trace;
}

class TraceCoreTest : public ::testing::Test
{
  protected:
    TraceCoreTest()
        : system_(SystemConfig::paper(DefenseKind::kNone))
    {
    }

    System system_;
};

TEST_F(TraceCoreTest, ComputeBoundRunsNearPeakIpc)
{
    CoreConfig cfg;
    cfg.inst_budget = 100'000;
    // Very sparse memory accesses: IPC should approach the 4-wide peak.
    TraceCore core(system_, cfg, computeTrace(10'000, 64));
    core.start();
    system_.run(2 * leaky::sim::kMs);
    ASSERT_TRUE(core.budgetDone());
    EXPECT_GT(core.measuredIpc(), 3.0);
    EXPECT_LE(core.measuredIpc(), 4.1);
}

TEST_F(TraceCoreTest, MemoryBoundIpcIsMuchLower)
{
    CoreConfig cfg;
    cfg.inst_budget = 20'000;
    cfg.mshrs = 1; // Fully serialised misses.
    TraceCore core(system_, cfg, computeTrace(2, 4096));
    core.start();
    system_.run(20 * leaky::sim::kMs);
    ASSERT_TRUE(core.budgetDone());
    EXPECT_LT(core.measuredIpc(), 0.3);
}

TEST_F(TraceCoreTest, MoreMlpImprovesMemoryBoundIpc)
{
    const auto run_with_mshrs = [this](std::uint32_t mshrs) {
        System system(SystemConfig::paper(DefenseKind::kNone));
        CoreConfig cfg;
        cfg.inst_budget = 20'000;
        cfg.mshrs = mshrs;
        TraceCore core(system, cfg, computeTrace(2, 4096));
        core.start();
        system.run(20 * leaky::sim::kMs);
        EXPECT_TRUE(core.budgetDone());
        return core.measuredIpc();
    };
    const double ipc1 = run_with_mshrs(1);
    const double ipc8 = run_with_mshrs(8);
    EXPECT_GT(ipc8, ipc1 * 2.0);
}

TEST_F(TraceCoreTest, CacheHitsAvoidMemory)
{
    CoreConfig cfg;
    cfg.inst_budget = 50'000;
    // Tiny working set: one line accessed repeatedly.
    std::vector<TraceEntry> trace(16);
    for (auto &e : trace) {
        e.non_mem_insts = 50;
        e.addr = 0x4000;
    }
    TraceCore core(system_, cfg, trace);
    core.start();
    system_.run(2 * leaky::sim::kMs);
    ASSERT_TRUE(core.budgetDone());
    EXPECT_LE(core.memReads(), 2u); // Only the initial fill.
    EXPECT_GT(core.measuredIpc(), 2.0);
}

TEST_F(TraceCoreTest, TraceLoopsForever)
{
    CoreConfig cfg;
    cfg.inst_budget = 1'000'000; // Much larger than one trace pass.
    TraceCore core(system_, cfg, computeTrace(100, 32));
    core.start();
    system_.run(leaky::sim::kMs);
    EXPECT_GT(core.instsRetired(), 32u * 101);
}

TEST_F(TraceCoreTest, IpcAtTracksPartialProgress)
{
    CoreConfig cfg;
    cfg.inst_budget = ~std::uint64_t{0} >> 1;
    TraceCore core(system_, cfg, computeTrace(100, 256));
    core.start();
    system_.run(200 * leaky::sim::kUs);
    EXPECT_FALSE(core.budgetDone());
    EXPECT_GT(core.ipcAt(system_.now()), 0.0);
}

TEST_F(TraceCoreTest, SharedTraceReplaysLikeAnOwnedCopy)
{
    // A 256 KiB working set with every fifth record a store: cold
    // misses, writebacks and LLC hits on later passes.
    std::vector<TraceEntry> trace;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        TraceEntry e;
        e.non_mem_insts = 20;
        e.addr = (i * 8192 + 64) % (1u << 18);
        e.is_write = i % 5 == 0;
        trace.push_back(e);
    }
    struct Outcome {
        std::uint64_t retired, reads, writes;
        Tick finish;
        std::vector<std::uint64_t> misses;
    };
    const auto replay = [](auto core_trace) {
        System system(SystemConfig::paper(DefenseKind::kNone));
        CoreConfig cfg;
        cfg.inst_budget = 100'000;
        TraceCore core(system, cfg, std::move(core_trace));
        core.start();
        system.run(3 * leaky::sim::kMs);
        Outcome out{core.instsRetired(), core.memReads(), core.memWrites(),
                    core.finishTick(), {}};
        for (std::size_t l = 0; l < core.caches().numLevels(); ++l)
            out.misses.push_back(core.caches().level(l).misses());
        return out;
    };
    const Outcome owned = replay(trace);
    const auto shared =
        std::make_shared<const std::vector<TraceEntry>>(trace);
    const Outcome replayed = replay(shared);
    EXPECT_EQ(replayed.retired, owned.retired);
    EXPECT_EQ(replayed.reads, owned.reads);
    EXPECT_EQ(replayed.writes, owned.writes);
    EXPECT_EQ(replayed.finish, owned.finish);
    EXPECT_EQ(replayed.misses, owned.misses);
    EXPECT_GT(owned.finish, 0u);
    EXPECT_GT(owned.writes, 0u);
    EXPECT_EQ(shared.use_count(), 1); // The core kept no reference.
}

TEST_F(TraceCoreTest, WritesArePosted)
{
    CoreConfig cfg;
    cfg.inst_budget = 10'000;
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 128; ++i) {
        TraceEntry e;
        e.non_mem_insts = 75;
        e.addr = static_cast<std::uint64_t>(i) * 8192;
        e.is_write = true;
        trace.push_back(e);
    }
    TraceCore core(system_, cfg, trace);
    core.start();
    system_.run(2 * leaky::sim::kMs);
    ASSERT_TRUE(core.budgetDone());
    // Stores never block: near-peak IPC despite missing every access.
    EXPECT_GT(core.measuredIpc(), 3.0);
}

} // namespace
