#include "layers.hh"

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "attack/dram_addr.hh"
#include "attack/fingerprint.hh"
#include "core/experiments.hh"
#include "defense/policy.hh"
#include "dram/address_mapper.hh"
#include "runner/sweep.hh"
#include "stats/channel_metrics.hh"
#include "sys/cache.hh"
#include "sys/core.hh"
#include "sys/system.hh"
#include "workload/synthetic.hh"
#include "workload/website.hh"

namespace figbench {

namespace {

using namespace leaky;
using Clock = std::chrono::steady_clock;
using Trace = std::vector<sys::TraceEntry>;

/** Timing repetitions per probe; every probe reports the median. */
constexpr int kProbeReps = 9;
/** Repetitions of the representative cell (each about 10-200 ms). */
constexpr int kCellReps = 5;

// The figures' default seeds and default-scale sizes: the probes feed
// each layer what the registry's default-scale sweep feeds it.
constexpr std::uint64_t kCapacitySeed = 1;
constexpr std::uint64_t kMitigationSeed = 42;
constexpr std::uint64_t kFingerprintSeed = 2025;
constexpr std::uint32_t kMixes = 3;
constexpr std::uint32_t kTraceRecords = 40'000;
constexpr std::uint64_t kPerfInsts = 100'000;
constexpr std::uint32_t kSites = 8;
constexpr sim::Tick kWebDuration = 2 * sim::kMs;

double
elapsedNs(const std::function<void()> &work)
{
    const auto start = Clock::now();
    work();
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/** Median over kProbeReps runs of @p work, in ns. */
double
medianNs(const std::function<void()> &work)
{
    std::vector<double> samples;
    for (int r = 0; r < kProbeReps; ++r)
        samples.push_back(elapsedNs(work));
    return median(samples);
}

/** The mitigation figure's mixes, one trace per app, through the paper
 *  mapping (timed as workload.trace_ns_per_record). */
std::vector<Trace>
mitigationTraces(const dram::AddressMapper &mapper, LayerReport &report)
{
    const auto mixes = workload::makeMixes(kMixes, 4, kMitigationSeed);
    std::vector<Trace> traces;
    std::size_t records = 0;
    const double ns = medianNs([&] {
        traces.clear();
        records = 0;
        for (const auto &mix : mixes)
            for (const auto &app : mix.apps) {
                traces.push_back(
                    workload::generateTrace(app, mapper, kTraceRecords));
                records += traces.back().size();
            }
    });
    report.metrics.push_back(
        {"workload.trace_ns_per_record", ns / records, "ns"});
    return traces;
}

void
probeWebsiteTraces(const dram::AddressMapper &mapper, LayerReport &report)
{
    std::size_t records = 0;
    const double ns = medianNs([&] {
        records = 0;
        for (std::uint32_t site = 0; site < kSites; ++site) {
            workload::WebsiteTraceConfig cfg;
            cfg.site = site;
            cfg.base_seed = kFingerprintSeed;
            cfg.duration = kWebDuration;
            records += workload::generateWebsiteTrace(cfg, mapper).size();
        }
    });
    report.metrics.push_back(
        {"workload.web_trace_ns_per_record", ns / records, "ns"});
}

void
probeMapping(const dram::MappingFunction &fn,
             const std::vector<Trace> &traces, LayerReport &report)
{
    std::vector<std::uint64_t> lines;
    for (const auto &trace : traces)
        for (const auto &entry : trace)
            lines.push_back((entry.addr % fn.capacityBytes()) /
                            dram::MappingFunction::kLineBytes);
    std::vector<dram::Address> coords(lines.size());
    const double decode_ns = medianNs([&] {
        for (std::size_t i = 0; i < lines.size(); ++i)
            coords[i] = fn.decodeLine(lines[i]);
    });
    std::size_t mismatches = 0;
    const double compose_ns = medianNs([&] {
        mismatches = 0;
        for (std::size_t i = 0; i < lines.size(); ++i)
            mismatches += fn.composeLine(coords[i]) != lines[i];
    });
    if (mismatches)
        report.problems.push_back(
            std::to_string(mismatches) +
            " trace lines do not survive decodeLine -> composeLine");
    const double n = static_cast<double>(lines.size());
    report.metrics.push_back({"dram.compose_ns", compose_ns / n, "ns"});
    report.metrics.push_back({"dram.decode_ns", decode_ns / n, "ns"});
}

/** Each app's trace through its own paper-default hierarchy, loads
 *  and write-allocating stores as sys::TraceCore issues them. */
void
probeCaches(const std::vector<Trace> &traces, LayerReport &report)
{
    std::size_t accesses = 0;
    std::uint64_t llc_hits = 0, llc_lookups = 0;
    const double ns = medianNs([&] {
        accesses = llc_hits = llc_lookups = 0;
        for (const auto &trace : traces) {
            sys::CacheHierarchy caches(
                sys::CacheHierarchyConfig::paperDefault());
            for (const auto &entry : trace) {
                auto result = caches.access(entry.addr, entry.is_write);
                if (!result.hit)
                    caches.fill(entry.addr, entry.is_write, result);
            }
            accesses += trace.size();
            const auto &llc = caches.level(caches.numLevels() - 1);
            llc_hits += llc.hits();
            llc_lookups += llc.hits() + llc.misses();
        }
    });
    const double llc_hit_rate =
        static_cast<double>(llc_hits) / static_cast<double>(llc_lookups);
    report.metrics.push_back(
        {"sys.cache_ns_per_access", ns / accesses, "ns"});
    report.metrics.push_back({"sys.llc_hit_rate", llc_hit_rate, "ratio"});
    report.sentinels["sys.llc_hit_rate"] = llc_hit_rate;
}

/** What a representative cell's system counted. */
struct CellStats {
    std::uint64_t events = 0;
    std::uint64_t wheel_cascades = 0;
    std::uint64_t heap_events = 0;
    ctrl::CtrlStats ctrl;
    std::vector<sim::Tick> backoff_times; ///< Fingerprint cell only.
};

CellStats
statsOf(sys::System &system)
{
    const auto &kernel = system.eventQueue().kernelStats();
    return {kernel.events_run, kernel.wheel_cascades, kernel.heap_events,
            system.aggregateStats(), {}};
}

/** Job 0 of the default capacity sweep: the PRAC channel, pattern 0,
 *  1 % Eq.-2 noise, 20-byte message. */
CellStats
capacityCell()
{
    core::ChannelRunSpec spec;
    spec.kind = attack::ChannelKind::kPrac;
    spec.pattern = static_cast<attack::MessagePattern>(0);
    spec.message_bytes = 20;
    spec.seed = runner::jobSeed(kCapacitySeed, 0);
    spec.noise_sleep = stats::sleepForIntensity(1, 200'000, 2'000'000);
    sys::System system(core::channelSystemConfig(spec));
    core::runChannelOn(system, spec);
    return statsOf(system);
}

/** The defended shared-system run of Fig. 13's headline cell (FR-RFM,
 *  NRH = 64, mix 0), built as core::runPerfCell builds it: warm counters, one
 *  sys::TraceCore per app of the mix, run until every core retired
 *  its budget or 80 ms elapsed. */
CellStats
mitigationCell()
{
    const auto mixes = workload::makeMixes(kMixes, 4, kMitigationSeed);
    auto cfg = sys::SystemConfig::paper(defense::DefenseKind::kFrRfm, 64);
    cfg.defense.warm_counters = true;
    sys::System system(cfg);
    std::vector<std::unique_ptr<sys::TraceCore>> cores;
    std::int32_t source = 0;
    for (const auto &app : mixes[0].apps) {
        sys::CoreConfig core_cfg;
        core_cfg.inst_budget = kPerfInsts;
        core_cfg.mshrs = app.mlp;
        cores.push_back(std::make_unique<sys::TraceCore>(
            system, core_cfg,
            workload::generateTrace(app, system.mapper(), kTraceRecords),
            source++));
        cores.back()->start();
    }
    const sim::Tick start = system.now();
    while (system.now() - start < 80 * sim::kMs) {
        bool all_done = true;
        for (const auto &core : cores)
            all_done = all_done && core->budgetDone();
        if (all_done)
            break;
        system.run(500 * sim::kUs);
    }
    return statsOf(system);
}

core::FingerprintSpec
fingerprintSpec()
{
    core::FingerprintSpec spec;
    spec.sites = kSites;
    spec.loads_per_site = 10;
    spec.duration = kWebDuration;
    spec.seed = kFingerprintSeed;
    return spec;
}

/** (site 0, load 0) of the default fingerprint sweep, built as
 *  core::collectOneFingerprint builds it but on a system this probe
 *  owns, so its statistics can be read afterwards. */
CellStats
fingerprintCell()
{
    const auto spec = fingerprintSpec();
    const auto sys_cfg =
        sys::SystemConfig::paper(defense::DefenseKind::kPrac, spec.nrh);
    sys::System system(sys_cfg);
    workload::WebsiteTraceConfig web_cfg;
    web_cfg.base_seed = spec.seed;
    web_cfg.duration = spec.duration;
    sys::CoreConfig core_cfg;
    core_cfg.inst_budget = ~std::uint64_t{0} >> 1;
    sys::TraceCore browser(
        system, core_cfg,
        workload::generateWebsiteTrace(web_cfg, system.mapper()), 1);
    browser.start();

    const auto &org = system.mapper().org();
    attack::FingerprintConfig probe_cfg;
    probe_cfg.rows = attack::rowsInBank(
        system.mapper(), probe_cfg.channel, org.ranks - 1,
        org.bankgroups - 1, org.banks_per_group - 1, 500, 8, 64);
    const auto nbo = defense::nboFor(spec.nrh);
    probe_cfg.t_accesses = nbo > 1 ? nbo - 1 : 1;
    probe_cfg.duration = spec.duration;
    probe_cfg.classifier =
        attack::LatencyClassifier::forTiming(sys_cfg.ctrl.dram.timing);
    attack::FingerprintProbe probe(system, probe_cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    while (!done)
        system.run(sim::kMs);

    CellStats stats = statsOf(system);
    stats.backoff_times = probe.backoffTimes();
    return stats;
}

void
probeCell(const std::string &workload, LayerReport &report)
{
    const auto cell = workload == "capacity"      ? capacityCell
                      : workload == "mitigation" ? mitigationCell
                                                  : fingerprintCell;
    // The fingerprint cell is timed as core::collectOneFingerprint; the
    // probe-owned mirror above supplies its statistics and must detect
    // exactly the back-offs the library's cell detects.
    const bool mirrored = workload == "fingerprint";
    std::vector<CellStats> runs;
    std::vector<sim::Tick> library_backoffs;
    std::vector<double> cell_ns;
    for (int r = 0; r < kCellReps; ++r)
        cell_ns.push_back(elapsedNs([&] {
            if (mirrored)
                library_backoffs =
                    core::collectOneFingerprint(fingerprintSpec(), 0, 0)
                        .backoff_times;
            else
                runs.push_back(cell());
        }));
    const double ns = median(cell_ns);
    if (mirrored) {
        runs = {cell(), cell()};
        if (runs.front().backoff_times != library_backoffs)
            report.problems.push_back(
                "fingerprint cell mirror disagrees with "
                "core::collectOneFingerprint");
    }
    const CellStats &stats = runs.front();
    for (const auto &run : runs)
        if (!(run.ctrl == stats.ctrl) || run.events != stats.events) {
            report.problems.push_back(workload +
                                      " cell statistics differ between runs");
            break;
        }

    const auto add = [&](const char *name, double value, const char *unit,
                         bool sentinel) {
        report.metrics.push_back({name, value, unit});
        if (sentinel)
            report.sentinels[name] = value;
    };
    const auto count = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    const auto &c = stats.ctrl;
    const double requests = count(c.reads_served + c.writes_served);
    const auto acts = c.row_misses + c.row_conflicts;
    add("core.cell_ms", ns / 1e6, "ms", false);
    add("sim.events", count(stats.events), "count", false);
    add("sim.wheel_cascades", count(stats.wheel_cascades), "count", false);
    add("sim.heap_events", count(stats.heap_events), "count", false);
    add("sim.ns_per_event", ns / count(stats.events), "ns", false);
    add("ctrl.requests", requests, "count", true);
    add("ctrl.ns_per_request", ns / requests, "ns", false);
    add("ctrl.row_hit_rate", count(c.row_hits) / count(c.row_hits + acts),
        "ratio", true);
    add("ctrl.read_latency_ns",
        count(c.read_latency_sum) / count(c.reads_served) / sim::kNs, "ns",
        true);
    add("dram.acts", count(acts), "count", true);
    add("dram.refreshes", count(c.refreshes), "count", true);
    add("defense.preventive_actions", count(c.preventiveActions()), "count",
        true);
    add("defense.backoffs", count(c.backoffs + c.bank_backoffs), "count",
        true);
    add("defense.rfms", count(c.rfms), "count", true);
}

} // namespace

LayerReport
probeLayers(const std::string &workload)
{
    LayerReport report;
    const auto paper = sys::SystemConfig::paper(defense::DefenseKind::kNone);
    const dram::AddressMapper mapper(paper.ctrl.dram.org, paper.channels,
                                     paper.mapping);
    const auto traces = mitigationTraces(mapper, report);
    probeWebsiteTraces(mapper, report);
    probeMapping(mapper.fn(), traces, report);
    probeCaches(traces, report);
    probeCell(workload, report);
    return report;
}

} // namespace figbench
