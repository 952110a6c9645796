/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate itself:
 * event-queue throughput (one-shot and member-bound reusable events),
 * schedule/cancel churn, DRAM command issue, controller request
 * service, cache-hierarchy lookups, and end-to-end covert-channel
 * window simulation speed.
 *
 * A run prints to the console only. Pass --benchmark_out=<path> for a
 * JSON report (items/sec per bench) that tools/check_bench.py can
 * compare against the tracked BENCH_kernel.json; that file changes only
 * when a baseline is re-recorded on purpose. Smoke mode for CI:
 *
 *   micro_simulator_throughput --benchmark_min_time=0.01
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/leakyhammer.hh"

namespace {

using namespace leaky;

void
BM_EventQueue(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t counter = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleAfter(static_cast<sim::Tick>(i % 97),
                             [&counter] { counter += 1; });
        eq.run();
    }
    benchmark::DoNotOptimize(counter);
    state.SetItemsProcessed(static_cast<std::int64_t>(counter));
}
BENCHMARK(BM_EventQueue);

/** A component self-clocking off one reusable member-bound event --
 *  the controller's steady-state pattern (zero allocations). */
struct Ticker {
    explicit Ticker(sim::EventQueue &q)
        : eq(q), ev(sim::memberEvent<&Ticker::tick>(this))
    {
    }

    void
    tick()
    {
        fired += 1;
        if (fired < target)
            eq.schedule(ev, eq.now() + 10);
    }

    sim::EventQueue &eq;
    sim::Event ev;
    std::uint64_t fired = 0;
    std::uint64_t target = 0;
};

void
BM_EventQueueBound(benchmark::State &state)
{
    sim::EventQueue eq;
    Ticker ticker(eq);
    for (auto _ : state) {
        ticker.target += 1000;
        eq.schedule(ticker.ev, eq.now());
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ticker.fired));
}
BENCHMARK(BM_EventQueueBound);

/** Wake-timer churn: move a pending event, as the controller does
 *  whenever a nearer wake-up appears. */
void
BM_EventQueueCancelReschedule(benchmark::State &state)
{
    sim::EventQueue eq;
    Ticker ticker(eq);
    std::uint64_t moves = 0;
    for (auto _ : state) {
        ticker.target = ~std::uint64_t{0};
        eq.schedule(ticker.ev, eq.now() + 1'000'000);
        for (int i = 0; i < 1000; ++i) {
            eq.reschedule(ticker.ev, eq.now() + 1'000'000 -
                                         static_cast<sim::Tick>(i));
            moves += 1;
        }
        eq.deschedule(ticker.ev);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(moves));
}
BENCHMARK(BM_EventQueueCancelReschedule);

/** The kernel traffic the figures make: few live events (at most 8 in
 *  the capacity figure, 15 in Fig. 13) and almost no two on one tick.
 *  Eight cores' requests hop every 10 ns, staggered; each pulls a
 *  sleeping controller's self-clock earlier, to the next tCK (416 ps)
 *  edge; the clock ticks twice per request, then sleeps until the next
 *  refresh. Nine events are live at a time. */
struct SparseTraffic {
    static constexpr sim::Tick kTck = 416;
    static constexpr sim::Tick kHop = 10 * sim::kNs;
    static constexpr sim::Tick kSleep = 9'360 * kTck; ///< About tREFI.
    static constexpr int kCores = 8;

    explicit SparseTraffic(sim::EventQueue &q)
        : eq(q), clock(sim::memberEvent<&SparseTraffic::tick>(this))
    {
        eq.schedule(clock, kSleep);
        for (int c = 0; c < kCores; ++c)
            eq.schedule(c * kHop / kCores, [this] { request(); });
    }

    void
    request()
    {
        work += 2;
        const sim::Tick edge = (eq.now() / kTck + 1) * kTck;
        if (clock.when() > edge)
            eq.reschedule(clock, edge);
        eq.scheduleAfter(kHop, [this] { request(); });
    }

    void
    tick()
    {
        if (work > 0)
            work -= 1;
        eq.scheduleAfter(clock, work > 0 ? kTck : kSleep);
    }

    sim::EventQueue &eq;
    sim::Event clock;
    int work = 0;
};

void
BM_EventQueueSparse(benchmark::State &state)
{
    sim::EventQueue eq;
    SparseTraffic traffic(eq);
    for (auto _ : state)
        eq.runUntil(eq.now() + sim::kUs);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(eq.kernelStats().events_run));
}
BENCHMARK(BM_EventQueueSparse);

void
BM_DramCommandIssue(benchmark::State &state)
{
    dram::DramChannel chan(dram::DramConfig::ddr5Paper());
    dram::Address a;
    // The controller annotates every queued address once at enqueue;
    // issue against the same pre-flattened form here.
    chan.config().org.annotate(a);
    sim::Tick now = 0;
    std::uint64_t commands = 0;
    for (auto _ : state) {
        for (int i = 0; i < 100; ++i) {
            a.row = static_cast<std::uint32_t>(i % 64);
            now = std::max(now, chan.earliestIssue(dram::Command::kAct,
                                                   a));
            chan.issue(dram::Command::kAct, a, now);
            now = std::max(now + 1,
                           chan.earliestIssue(dram::Command::kRd, a));
            chan.issue(dram::Command::kRd, a, now);
            now = std::max(now + 1,
                           chan.earliestIssue(dram::Command::kPre, a));
            chan.issue(dram::Command::kPre, a, now);
            commands += 3;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(commands));
}
BENCHMARK(BM_DramCommandIssue);

void
BM_ControllerRequests(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        sys::SystemConfig cfg =
            sys::SystemConfig::paper(defense::DefenseKind::kPrac);
        sys::System system(cfg);
        state.ResumeTiming();

        std::uint64_t served = 0;
        for (int i = 0; i < 2000; ++i) {
            const auto addr = attack::rowAddress(
                system.mapper(), 0, 0,
                static_cast<std::uint32_t>(i % 8),
                static_cast<std::uint32_t>(i % 4),
                static_cast<std::uint32_t>(i % 1024));
            system.issueRead(addr, [&served] {
                served += 1;
            });
        }
        system.run(sim::kMs);
        benchmark::DoNotOptimize(served);
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.items_processed() + served));
    }
}
BENCHMARK(BM_ControllerRequests)->Unit(benchmark::kMillisecond);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    // A fixed seeded stream over 8 MiB of lines (twice the Table 1
    // LLC), one store in five, replayed as sys::TraceCore drives its
    // private hierarchy: probe every access, fill every miss.
    struct Access {
        std::uint64_t addr;
        bool is_write;
    };
    sim::Rng rng(13);
    std::vector<Access> stream(1 << 16);
    for (auto &a : stream)
        a = {rng.below(std::uint64_t{1} << 17) * 64, rng.chance(0.2)};
    sys::CacheHierarchy caches(sys::CacheHierarchyConfig::paperDefault());
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        for (const auto &a : stream) {
            auto result = caches.access(a.addr, a.is_write);
            if (!result.hit)
                caches.fill(a.addr, a.is_write, result);
        }
        accesses += stream.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_CovertWindow(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        sys::SystemConfig sys_cfg =
            core::attackSystem(defense::DefenseKind::kPrac);
        sys::System system(sys_cfg);
        auto cfg = attack::makeChannelConfig(
            system, attack::ChannelKind::kPrac);
        state.ResumeTiming();

        std::vector<std::uint8_t> symbols = {1, 0, 1, 0};
        attack::runCovertChannel(system, {cfg}, symbols);
    }
    state.SetLabel("4 windows of 25 us each");
}
BENCHMARK(BM_CovertWindow)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
