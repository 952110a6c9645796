/** @file System-level tests: the read/write path, routing, retries,
 *  and the multi-channel topology (per-channel stats views, defense
 *  isolation, and the scaling figure family's determinism). */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "attack/covert.hh"
#include "attack/dram_addr.hh"
#include "attack/probe.hh"
#include "core/experiments.hh"
#include "defense/factory.hh"
#include "runner/figures.hh"
#include "runner/runner.hh"
#include "sys/core.hh"
#include "sys/system.hh"
#include "testing_alloc_counter.hh"
#include "workload/synthetic.hh"

namespace {

using leaky::defense::DefenseKind;
using leaky::sim::Tick;
using leaky::sys::System;
using leaky::sys::SystemConfig;

TEST(System, ReadCompletesWithFrontendLatency)
{
    System system(SystemConfig::paper(DefenseKind::kNone));
    const auto addr =
        leaky::attack::rowAddress(system.mapper(), 0, 0, 0, 0, 10);
    Tick done = 0;
    system.issueRead(addr, [&] { done = system.now(); });
    system.run(leaky::sim::kUs);
    ASSERT_GT(done, 0u);
    const auto &t = system.controller(0).config().dram.timing;
    // Two frontend hops + ACT + RCD + CL + burst.
    const Tick floor = 2 * system.config().frontend_latency + t.tRCD +
                       t.tCL + t.tBURST;
    EXPECT_GE(done, floor);
    EXPECT_LE(done, floor + 20'000);
}

TEST(System, WritesAreFireAndForget)
{
    System system(SystemConfig::paper(DefenseKind::kNone));
    const auto addr =
        leaky::attack::rowAddress(system.mapper(), 0, 0, 0, 0, 10);
    system.issueWrite(addr);
    system.run(leaky::sim::kUs);
    EXPECT_EQ(system.controller(0).stats().writes_served, 1u);
}

TEST(System, FullQueueRetriesUntilServed)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kNone);
    cfg.ctrl.read_queue_depth = 4;
    System system(cfg);
    int completions = 0;
    // Far more requests than queue slots, all to one bank (slow).
    for (int i = 0; i < 32; ++i) {
        const auto addr = leaky::attack::rowAddress(
            system.mapper(), 0, 0, 0, 0,
            static_cast<std::uint32_t>(i % 2 ? 100 : 200));
        system.issueRead(addr, [&completions] {
            completions += 1;
        });
    }
    system.run(100 * leaky::sim::kUs);
    EXPECT_EQ(completions, 32);
}

TEST(System, MultiChannelRoutesByAddress)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kNone);
    cfg.channels = 2;
    System system(cfg);
    const auto ch0 =
        leaky::attack::rowAddress(system.mapper(), 0, 0, 0, 0, 10);
    const auto ch1 =
        leaky::attack::rowAddress(system.mapper(), 1, 0, 0, 0, 10);
    int done = 0;
    system.issueRead(ch0, [&done] { done += 1; });
    system.issueRead(ch1, [&done] { done += 1; });
    system.run(leaky::sim::kUs);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(system.controller(0).stats().reads_served, 1u);
    EXPECT_EQ(system.controller(1).stats().reads_served, 1u);
}

TEST(System, PaperPresetMatchesTable1)
{
    const auto cfg = SystemConfig::paper(DefenseKind::kPrac);
    EXPECT_EQ(cfg.ctrl.dram.org.ranks, 2u);
    EXPECT_EQ(cfg.ctrl.dram.org.bankgroups, 8u);
    EXPECT_EQ(cfg.ctrl.dram.org.banks_per_group, 4u);
    EXPECT_EQ(cfg.ctrl.dram.org.rows, 128u * 1024);
    EXPECT_EQ(cfg.ctrl.read_queue_depth, 64u);
    EXPECT_EQ(cfg.ctrl.column_cap, 16u);
}

TEST(System, PerChannelStatsSumToAggregate)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kNone);
    cfg.channels = 2;
    System system(cfg);
    // Unbalanced traffic so the per-channel views must differ.
    for (int i = 0; i < 6; ++i) {
        const auto addr = leaky::attack::rowAddress(
            system.mapper(), i < 4 ? 0 : 1, 0, 0, 0,
            static_cast<std::uint32_t>(10 + i));
        system.issueRead(addr, [] {});
    }
    system.issueWrite(
        leaky::attack::rowAddress(system.mapper(), 1, 0, 0, 0, 99));
    system.run(50 * leaky::sim::kUs);

    const auto &ch0 = system.stats(0);
    const auto &ch1 = system.stats(1);
    const auto total = system.aggregateStats();
    EXPECT_EQ(ch0.reads_served, 4u);
    EXPECT_EQ(ch1.reads_served, 2u);
    EXPECT_EQ(total.reads_served, ch0.reads_served + ch1.reads_served);
    EXPECT_EQ(total.writes_served,
              ch0.writes_served + ch1.writes_served);
    EXPECT_EQ(total.row_misses, ch0.row_misses + ch1.row_misses);
    EXPECT_EQ(total.refreshes, ch0.refreshes + ch1.refreshes);
    EXPECT_EQ(total.read_latency_sum,
              ch0.read_latency_sum + ch1.read_latency_sum);
    // Full-field check: the aggregate must equal the fold of the
    // public per-channel views (catches a channel skipped in
    // aggregateStats(), which the spot checks above could miss).
    leaky::ctrl::CtrlStats manual = ch0;
    manual += ch1;
    EXPECT_TRUE(total == manual);
}

// The paper's preventive actions are per-channel: continuously
// hammering channel 0 must not trigger a single action on channel 1
// (the isolation the cross-channel figure quantifies as capacity).
TEST(System, HammeringChannel0LeavesChannel1Untouched)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kPrac, 160);
    cfg.channels = 2;
    System system(cfg);

    leaky::attack::ProbeConfig probe_cfg;
    probe_cfg.channel = 0;
    probe_cfg.addrs = {
        leaky::attack::rowAddress(system.mapper(), probe_cfg.channel,
                                  0, 0, 0, 1000),
        leaky::attack::rowAddress(system.mapper(), probe_cfg.channel,
                                  0, 0, 0, 2000)};
    probe_cfg.iterations = 600; // > 2 x NBO alternating activations.
    leaky::attack::LatencyProbe probe(system, probe_cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    // Bounded wait: a probe that stalls should fail the test, not
    // hang the binary until the ctest timeout.
    const Tick deadline = system.now() + 500 * leaky::sim::kMs;
    while (!done && system.now() < deadline)
        system.run(leaky::sim::kMs);
    ASSERT_TRUE(done) << "probe did not finish before the deadline";

    EXPECT_GT(system.stats(0).preventiveActions(), 0u);
    const auto &idle = system.stats(1);
    EXPECT_EQ(idle.preventiveActions(), 0u);
    EXPECT_EQ(idle.backoffs, 0u);
    EXPECT_EQ(idle.rfms, 0u);
    EXPECT_EQ(idle.reads_served, 0u);
    // And the aggregate view attributes everything to channel 0.
    EXPECT_EQ(system.aggregateStats().preventiveActions(),
              system.stats(0).preventiveActions());
}

// The scaling family rides the same determinism contract CI enforces
// for the whole registry: bit-identical CSV on 1 vs 4 threads.
TEST(System, ScalingFiguresAreThreadCountInvariant)
{
    namespace runner = leaky::runner;
    runner::RunOptions opts;
    opts.smoke = true;
    for (const char *name :
         {"cross-channel", "channel-scaling", "mapping-order",
          "mapping-recovery"}) {
        const auto *figure = runner::findFigure(name);
        ASSERT_NE(figure, nullptr) << name;
        const auto spec = figure->make(opts);
        const auto serial = runner::runSweep(spec, 1);
        const auto parallel = runner::runSweep(spec, 4);
        ASSERT_FALSE(serial.rows.empty()) << name;
        for (const auto &row : serial.rows)
            EXPECT_EQ(row.size(), spec.columns.size()) << name;
        EXPECT_EQ(serial.rows, parallel.rows) << name;
        EXPECT_EQ(runner::toCsv(serial), runner::toCsv(parallel))
            << name;
    }
}

TEST(System, MappingPresetReachesTheMapper)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kNone);
    cfg.mapping = leaky::dram::MappingPreset::kBankFirst;
    System system(cfg);
    const auto a0 = system.mapper().decode(0);
    const auto a1 = system.mapper().decode(64);
    EXPECT_FALSE(a0.sameBank(a1)); // Bank bits at the LSB end.
}

TEST(System, DefenseBundleAttachedPerChannel)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kPrac, 160);
    cfg.channels = 2;
    System system(cfg);
    EXPECT_NE(system.defenseBundle(0).device, nullptr);
    EXPECT_NE(system.defenseBundle(1).device, nullptr);
    EXPECT_NE(system.defenseBundle(0).device.get(),
              system.defenseBundle(1).device.get());
}

// ---------------------------------------------------------------------
// Zero-allocation pins for whole systems: once warm, the path from a
// requestor through the controller and back (schedule, issueRead, the
// two completion hops, MSHR bookkeeping, cache fills and writebacks)
// never touches the heap, and no one-shot payload spills.

TEST(SystemAllocation, TraceCoreSystemSteadyStateDoesNotAllocate)
{
    // Fig. 13's shape: mix 0's four cores on FR-RFM, NRH = 64, warm
    // counters, each core with its app's memory-level parallelism.
    const auto mixes = leaky::workload::makeMixes(3, 4, 42);
    auto cfg = SystemConfig::paper(DefenseKind::kFrRfm, 64);
    cfg.defense.warm_counters = true;
    System system(cfg);
    std::vector<std::unique_ptr<leaky::sys::TraceCore>> cores;
    for (const auto &app : mixes[0].apps) {
        leaky::sys::CoreConfig core_cfg;
        core_cfg.inst_budget = ~std::uint64_t{0} >> 1;
        core_cfg.mshrs = app.mlp;
        cores.push_back(std::make_unique<leaky::sys::TraceCore>(
            system, core_cfg,
            leaky::workload::generateTrace(app, system.mapper(), 40'000)));
        cores.back()->start();
    }
    system.run(2 * leaky::sim::kMs);
    const auto reads_before = system.stats(0).reads_served;

    const std::uint64_t before = leaky_test_heap_allocs.load();
    system.run(3 * leaky::sim::kMs);
    const std::uint64_t after = leaky_test_heap_allocs.load();

    EXPECT_EQ(after, before);
    EXPECT_GT(system.stats(0).reads_served, reads_before + 1000);
    EXPECT_EQ(system.eventQueue().kernelStats().one_shot_spills, 0u);
}

TEST(SystemAllocation, LatencyProbeSteadyStateDoesNotAllocate)
{
    // Fig. 2's probe: Listing 1 alternating two rows of one bank under
    // PRAC, so the measured stretch crosses back-offs and refreshes.
    System system(leaky::core::attackSystem(DefenseKind::kPrac));
    leaky::attack::ProbeConfig probe_cfg;
    probe_cfg.addrs = {
        leaky::attack::rowAddress(system.mapper(), 0, 0, 0, 0, 1000),
        leaky::attack::rowAddress(system.mapper(), 0, 0, 0, 0, 2000)};
    probe_cfg.iterations = 4000;
    leaky::attack::LatencyProbe probe(system, probe_cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    system.run(100 * leaky::sim::kUs);
    ASSERT_FALSE(done);
    const auto reads_before = system.stats(0).reads_served;

    const std::uint64_t before = leaky_test_heap_allocs.load();
    while (!done)
        system.run(100 * leaky::sim::kUs);
    const std::uint64_t after = leaky_test_heap_allocs.load();

    EXPECT_EQ(after, before);
    EXPECT_EQ(probe.samples().size(), probe_cfg.iterations);
    EXPECT_GT(system.stats(0).reads_served, reads_before + 1000);
    EXPECT_GT(system.stats(0).backoffs, 0u);
    EXPECT_EQ(system.eventQueue().kernelStats().one_shot_spills, 0u);
}

TEST(SystemAllocation, CovertPairSteadyStateDoesNotAllocate)
{
    // The capacity figure's agents: a PRAC sender and receiver over a
    // multi-window transmission that mixes back-off windows (logic-1)
    // with idle ones (logic-0), so the measured stretch covers window
    // turnovers, early sleeps and stale in-flight loads.
    System system(leaky::core::attackSystem(DefenseKind::kPrac));
    const auto cfg = leaky::attack::makeChannelConfig(
        system, leaky::attack::ChannelKind::kPrac);
    leaky::attack::CovertSender sender(system, cfg);
    leaky::attack::CovertReceiver receiver(system, cfg);
    std::vector<std::uint8_t> symbols(40);
    for (std::size_t i = 0; i < symbols.size(); ++i)
        symbols[i] = i % 3 != 0 ? 1 : 0;
    const Tick epoch = system.now() + 2 * leaky::sim::kUs;
    sender.transmit(symbols, epoch);
    bool done = false;
    receiver.listen(symbols.size(), epoch, [&done] { done = true; });
    system.run(epoch - system.now() + 4 * cfg.window);
    ASSERT_FALSE(done);
    const auto backoffs_before = system.stats(0).backoffs;

    const std::uint64_t before = leaky_test_heap_allocs.load();
    while (!done)
        system.run(cfg.window);
    const std::uint64_t after = leaky_test_heap_allocs.load();

    EXPECT_EQ(after, before);
    EXPECT_EQ(receiver.decoded(), symbols);
    EXPECT_GT(system.stats(0).backoffs, backoffs_before + 20);
    EXPECT_EQ(system.eventQueue().kernelStats().one_shot_spills, 0u);
}

} // namespace

