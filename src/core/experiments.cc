#include "core/experiments.hh"

#include <algorithm>
#include <memory>

#include "attack/counter_leak.hh"
#include "attack/dram_addr.hh"
#include "attack/noise.hh"
#include "sim/logging.hh"
#include "stats/channel_metrics.hh"
#include "workload/website.hh"

namespace leaky::core {

using attack::ChannelKind;
using defense::DefenseKind;

sys::SystemConfig
attackSystem(DefenseKind kind)
{
    // NRH = 160 matches the PRAC attack studies' threat level; for the
    // trackers the policy derives a targeted-refresh threshold of 80.
    if (channelKindFor(kind) == ChannelKind::kRfm &&
        kind != DefenseKind::kPrfm)
        return sys::SystemConfig::paper(kind, 160);
    sys::SystemConfig cfg = sys::SystemConfig::paper(kind);
    if (kind == DefenseKind::kPrfm) {
        cfg.defense.trfm_override = 40; // Paper §7.1 assumption.
    } else {
        cfg.defense.nbo_override = 128; // Paper §6.1 assumption.
        cfg.defense.rfms_per_backoff = 4;
    }
    return cfg;
}

ChannelKind
channelKindFor(DefenseKind kind)
{
    const bool prac_family = kind == DefenseKind::kPrac ||
                             kind == DefenseKind::kPracRiac ||
                             kind == DefenseKind::kPracBank;
    return prac_family ? ChannelKind::kPrac : ChannelKind::kRfm;
}

namespace {

/**
 * Run @p system in 1 ms slices until @p done is set. A generous
 * simulated-time ceiling turns a wedged agent into a loud failure
 * instead of an endless loop: every runner here finishes in well
 * under a simulated second.
 */
void
runUntilDone(sys::System &system, const bool &done, const char *what)
{
    const Tick deadline = system.now() + 60'000 * sim::kMs;
    while (!done && system.now() < deadline)
        system.run(sim::kMs);
    LEAKY_ASSERT(done, "%s did not terminate", what);
}

/** Records per generated app trace; cores loop it. */
constexpr std::uint32_t kTraceRecords = 40'000;

/** One trace per app of @p apps, composed through @p mapper. */
std::vector<sys::SharedTrace>
appTraces(const std::vector<workload::AppSpec> &apps,
          const dram::AddressMapper &mapper)
{
    std::vector<sys::SharedTrace> traces;
    for (const auto &app : apps)
        traces.push_back(std::make_shared<const std::vector<sys::TraceEntry>>(
            workload::generateTrace(app, mapper, kTraceRecords)));
    return traces;
}

/**
 * Build and start one TraceCore per app, replaying @p traces (one per
 * app). @p inst_budget
 * caps each core's retired instructions; @p large_caches swaps in the
 * §10.3 hierarchy and prefetcher. The caller keeps the cores alive
 * while the system runs.
 */
std::vector<std::unique_ptr<sys::TraceCore>>
startCores(sys::System &system, const std::vector<workload::AppSpec> &apps,
           const std::vector<sys::SharedTrace> &traces,
           std::uint64_t inst_budget, bool large_caches = false)
{
    LEAKY_ASSERT(traces.size() == apps.size(), "%zu traces for %zu apps",
                 traces.size(), apps.size());
    std::vector<std::unique_ptr<sys::TraceCore>> cores;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        sys::CoreConfig core_cfg;
        core_cfg.inst_budget = inst_budget;
        core_cfg.mshrs = apps[i].mlp;
        if (large_caches) {
            core_cfg.caches = sys::CacheHierarchyConfig::largeHierarchy();
            core_cfg.enable_prefetcher = true;
        }
        cores.push_back(std::make_unique<sys::TraceCore>(
            system, core_cfg, traces[i]));
        cores.back()->start();
    }
    return cores;
}

/** Budget of background cores that run for the whole experiment. */
constexpr std::uint64_t kRunForever = ~std::uint64_t{0} >> 1;

} // namespace

// ------------------------------------------------------------- Fig. 2

LatencyTraceResult
runLatencyTrace(std::uint32_t iterations, std::uint32_t rfms_per_backoff)
{
    sys::SystemConfig cfg = attackSystem(DefenseKind::kPrac);
    cfg.defense.rfms_per_backoff = rfms_per_backoff;
    sys::System system(cfg);

    attack::ProbeConfig probe_cfg;
    probe_cfg.channel = 0; // Single-channel system; keep it explicit.
    probe_cfg.addrs = {
        attack::rowAddress(system.mapper(), probe_cfg.channel, 0, 0, 0,
                           1000),
        attack::rowAddress(system.mapper(), probe_cfg.channel, 0, 0, 0,
                           2000)};
    probe_cfg.iterations = iterations;
    attack::LatencyProbe probe(system, probe_cfg);

    bool done = false;
    probe.start([&done] { done = true; });
    runUntilDone(system, done, "latency probe");

    LatencyTraceResult result;
    result.samples = probe.samples();
    result.classifier = attack::LatencyClassifier::forTiming(
        cfg.ctrl.dram.timing, rfms_per_backoff);
    result.backoffs = system.stats(probe_cfg.channel).backoffs;
    result.refreshes = system.stats(probe_cfg.channel).refreshes;
    result.reads_served = system.stats(probe_cfg.channel).reads_served;

    double sums[3] = {0, 0, 0};
    std::uint64_t counts[3] = {0, 0, 0};
    for (const auto &sample : result.samples) {
        switch (result.classifier.classify(sample.latency)) {
          case attack::LatencyClass::kConflict:
            sums[0] += static_cast<double>(sample.latency);
            counts[0] += 1;
            break;
          case attack::LatencyClass::kRfm:
          case attack::LatencyClass::kRefresh:
            sums[1] += static_cast<double>(sample.latency);
            counts[1] += 1;
            break;
          case attack::LatencyClass::kBackoff:
            sums[2] += static_cast<double>(sample.latency);
            counts[2] += 1;
            break;
          default:
            break;
        }
    }
    result.mean_conflict_latency_ns =
        counts[0] ? sums[0] / static_cast<double>(counts[0]) / 1e3 : 0.0;
    result.mean_refresh_latency_ns =
        counts[1] ? sums[1] / static_cast<double>(counts[1]) / 1e3 : 0.0;
    result.mean_backoff_latency_ns =
        counts[2] ? sums[2] / static_cast<double>(counts[2]) / 1e3 : 0.0;
    return result;
}

// -------------------------------------------------- Figs. 3-8 (covert)

sys::SystemConfig
channelSystemConfig(const ChannelRunSpec &spec)
{
    sys::SystemConfig cfg = attackSystem(
        spec.kind == ChannelKind::kPrac ? DefenseKind::kPrac
                                        : DefenseKind::kPrfm);
    if (spec.defense)
        cfg.defense = *spec.defense;
    cfg.defense.seed = spec.seed;
    cfg.channels = spec.channels;
    cfg.mapping = spec.mapping;
    cfg.ctrl.deterministic_refresh = spec.filter_refresh;
    return cfg;
}

attack::CovertConfig
channelConfig(sys::System &system, const ChannelRunSpec &spec)
{
    attack::CovertConfig cfg = attack::makeChannelConfig(
        system, spec.kind, spec.levels, spec.sender_channel);
    const bool colocated = spec.receiver_channel == spec.sender_channel &&
                           spec.receiver_bankgroup == 0 &&
                           spec.receiver_bank == 0;
    if (spec.assumed_mapping) {
        LEAKY_ASSERT(colocated,
                     "assumed_mapping places both endpoints itself");
        // The attacker massages its pages through the mapping it
        // reverse engineered (§5.2): compose through the ASSUMED
        // function, decode through the actual one (the same
        // composition path the mapping-recovery attacker feeds its
        // learned function into).
        const sys::SystemConfig &sys_cfg = system.config();
        const dram::MappingFunction assumed(
            sys_cfg.ctrl.dram.org, sys_cfg.channels, *spec.assumed_mapping);
        cfg.sender_addr = attack::rowAddress(
            assumed, spec.sender_channel, 0, 2, 1, 1000);
        cfg.receiver_addr = attack::rowAddress(
            assumed, spec.sender_channel, 0, 2, 1, 2000);
    } else if (!colocated) {
        // §9.1 non-colocated receiver: it listens in its own bank (or
        // on its own channel's defense); the sender alternates two of
        // its own rows so every access conflicts and, under PRAC,
        // charges the counters alone over a doubled window.
        cfg.receiver_channel = spec.receiver_channel;
        cfg.receiver_addr = attack::rowAddress(
            system.mapper(), spec.receiver_channel, 0,
            spec.receiver_bankgroup, spec.receiver_bank, 2000);
        cfg.sender_addr2 = attack::rowAddress(
            system.mapper(), spec.sender_channel, 0, 0, 0, 1064);
        if (spec.kind == ChannelKind::kPrac)
            cfg.window = 50 * sim::kUs;
    }
    if (spec.window)
        cfg.window = spec.window;
    const DefenseKind defense = system.config().defense.kind;
    if (defense == DefenseKind::kGraphene ||
        defense == DefenseKind::kHydra) {
        // Tracker receiver: two slow events per window, with the
        // slow-event threshold calibrated to the VRR window (shorter
        // than a full RFM), keeping Hydra's sub-band counter fetches
        // out of the detection class.
        cfg.trecv = 2;
        cfg.classifier.rfm_min = 200'000;
    }
    if (spec.filter_refresh) {
        const auto &timing =
            system.controller(spec.sender_channel).config().dram.timing;
        cfg.refresh_blackout = true;
        cfg.refi = timing.tREFI;
        cfg.blackout_post = timing.tRFC + 300'000;
    }
    if (spec.backoff_min_override)
        cfg.classifier.backoff_min = spec.backoff_min_override;
    return cfg;
}

attack::ChannelResult
runChannelOn(sys::System &system, const ChannelRunSpec &spec)
{
    // The caller owns the system; it must be the one the spec
    // describes, or the returned rows are labeled with topology /
    // defense parameters that were never simulated — a wrong mapping
    // preset or defense override trips no downstream assert, since
    // the classifier and calibration derive from the live system.
    const sys::SystemConfig want = channelSystemConfig(spec);
    const sys::SystemConfig &have = system.config();
    LEAKY_ASSERT(have.channels == want.channels &&
                     have.mapping == want.mapping &&
                     have.defense == want.defense &&
                     have.ctrl.deterministic_refresh ==
                         want.ctrl.deterministic_refresh,
                 "system config does not match the channel spec");
    attack::CovertConfig cfg = channelConfig(system, spec);
    if (spec.levels > 2) {
        // Calibrate on the LIVE system's config, not the spec-implied
        // one: a caller-owned system with, say, tweaked DRAM timing
        // would otherwise train cut points on the wrong machine.
        cfg.count_cuts = attack::calibrateCuts(system.config(), cfg);
    }

    // Noise microbenchmark targeting the covert channel's bank (§6.3).
    std::unique_ptr<attack::NoiseAgent> noise;
    if (spec.noise_sleep > 0) {
        attack::NoiseConfig noise_cfg;
        // Six rows: more counters than one back-off recovery can reset,
        // so noise-side counters survive preventive actions.
        noise_cfg.addrs = attack::rowsInBank(
            system.mapper(), spec.sender_channel, 0, 0, 0, 3000, 6, 512);
        noise_cfg.sleep = spec.noise_sleep;
        noise = std::make_unique<attack::NoiseAgent>(system, noise_cfg);
        noise->start();
    }
    auto background = startCores(
        system, spec.background, appTraces(spec.background, system.mapper()),
        kRunForever, spec.large_caches);

    const auto bits = attack::patternBits(
        spec.pattern, spec.message_bytes * 8);
    const auto symbols = attack::symbolsFromBits(bits, spec.levels);
    return attack::runCovertChannel(system, {cfg}, symbols)[0];
}

attack::ChannelResult
runChannel(const ChannelRunSpec &spec)
{
    sys::System system(channelSystemConfig(spec));
    return runChannelOn(system, spec);
}

PatternSweepResult
runPatternSweep(ChannelRunSpec spec)
{
    const attack::MessagePattern patterns[] = {
        attack::MessagePattern::kAllOnes,
        attack::MessagePattern::kAllZeros,
        attack::MessagePattern::kCheckered0,
        attack::MessagePattern::kCheckered1};
    PatternSweepResult result;
    for (auto p : patterns) {
        spec.pattern = p;
        const auto run = runChannel(spec);
        result.raw_bit_rate += run.raw_bit_rate / 4.0;
        result.error_probability += run.symbol_error / 4.0;
        result.capacity += run.capacity / 4.0;
    }
    return result;
}

MessageDemoResult
runMessageDemo(attack::ChannelKind kind, const std::string &message,
               const dram::MappingSpec &mapping)
{
    ChannelRunSpec spec;
    spec.kind = kind;
    spec.mapping = mapping;
    sys::System system(channelSystemConfig(spec));
    const auto bits = attack::bitsFromString(message);
    const auto run = attack::runCovertChannel(
        system, {channelConfig(system, spec)},
        attack::symbolsFromBits(bits, 2))[0];

    MessageDemoResult result;
    result.sent_bits = bits;
    for (auto s : run.received)
        result.received_bits.push_back(s != 0);
    result.detections = run.detections;
    result.decoded_text = attack::stringFromBits(result.received_bits);
    return result;
}

// ------------------------------------------------------- Figs. 9/10, T2

FingerprintSample
collectOneFingerprint(const FingerprintSpec &spec, std::uint32_t site,
                      std::uint32_t load)
{
    sys::SystemConfig sys_cfg =
        sys::SystemConfig::paper(DefenseKind::kPrac, spec.nrh);
    sys::System system(sys_cfg);
    const auto nbo = defense::nboFor(spec.nrh);

    // The victim browser.
    workload::WebsiteTraceConfig web_cfg;
    web_cfg.site = site;
    web_cfg.load = load;
    web_cfg.base_seed = spec.seed;
    web_cfg.duration = spec.duration;
    auto trace = workload::generateWebsiteTrace(web_cfg, system.mapper());

    sys::CoreConfig core_cfg;
    core_cfg.inst_budget = kRunForever;
    if (spec.large_caches) {
        core_cfg.caches = sys::CacheHierarchyConfig::largeHierarchy();
        core_cfg.enable_prefetcher = true;
    }
    sys::TraceCore browser(system, core_cfg, std::move(trace));
    browser.start();

    // The attacker's probe, placed away from the browser's rows;
    // back-offs are channel-wide so colocation within the victim's
    // CHANNEL suffices (§8) — the channel is explicit here because a
    // probe on any other channel would observe nothing.
    attack::FingerprintConfig probe_cfg;
    probe_cfg.channel = 0;
    probe_cfg.rows = attack::rowsInBank(
        system.mapper(), probe_cfg.channel,
        system.mapper().org().ranks - 1,
        system.mapper().org().bankgroups - 1,
        system.mapper().org().banks_per_group - 1, 500, 8, 64);
    probe_cfg.t_accesses = nbo > 1 ? nbo - 1 : 1;
    probe_cfg.duration = spec.duration;
    probe_cfg.classifier =
        attack::LatencyClassifier::forTiming(sys_cfg.ctrl.dram.timing);
    attack::FingerprintProbe probe(system, probe_cfg);

    bool done = false;
    probe.start([&done] { done = true; });
    runUntilDone(system, done, "fingerprint probe");

    FingerprintSample sample;
    sample.site = site;
    sample.load = load;
    sample.backoff_times = probe.backoffTimes();
    sample.duration = spec.duration;
    return sample;
}

// ------------------------------------------------------------- §9.1

CounterLeakTrial
runCounterLeakTrial(std::uint32_t secret)
{
    sys::SystemConfig cfg = attackSystem(DefenseKind::kPrac);
    sys::System system(cfg);

    attack::CounterLeakConfig leak_cfg;
    leak_cfg.channel = 0; // Single-channel system; keep it explicit.
    const auto shared = attack::rowAddress(system.mapper(),
                                           leak_cfg.channel, 0, 0, 0,
                                           1000);
    const auto victim_conflict = attack::rowAddress(
        system.mapper(), leak_cfg.channel, 0, 0, 0, 2000);
    const auto attacker_conflict = attack::rowAddress(
        system.mapper(), leak_cfg.channel, 0, 0, 0, 3000);

    leak_cfg.shared_addr = shared;
    leak_cfg.conflict_addr = attacker_conflict;
    leak_cfg.nbo = 128;
    leak_cfg.classifier =
        attack::LatencyClassifier::forTiming(cfg.ctrl.dram.timing);

    attack::CounterLeakVictim victim(system, shared, victim_conflict);
    attack::CounterLeakAttacker attacker(system, leak_cfg);

    bool done = false;
    victim.prime(secret, [&attacker, &done] {
        attacker.start([&done] { done = true; });
    });
    runUntilDone(system, done, "counter leak");
    const attack::CounterLeakResult &result = attacker.result();

    CounterLeakTrial trial;
    trial.secret = secret;
    trial.leaked = result.leaked_count;
    trial.elapsed_us = static_cast<double>(result.elapsed) / 1e6;
    trial.bits = result.bits;
    return trial;
}

// ------------------------ online mapping recovery (DARE-style, §5.2)

namespace {

/** Fold one extra physical-bit tap into the LSB mask of @p field —
 *  an elementary GF(2) row operation, so the result stays invertible
 *  as long as each fold taps a bit owned by a DIFFERENT output row. */
void
foldTap(std::array<std::vector<std::uint64_t>, dram::kNumFields> &masks,
        dram::Field field, std::uint32_t phys_bit)
{
    auto &field_masks = masks[static_cast<std::size_t>(field)];
    LEAKY_ASSERT(!field_masks.empty(), "cannot fold into a zero-width "
                                       "field");
    field_masks[0] ^= std::uint64_t{1} << phys_bit;
}

} // namespace

std::vector<RecoveryMappingCase>
recoveryMappings()
{
    std::vector<RecoveryMappingCase> out;
    for (dram::MappingPreset preset : dram::kAllMappingPresets)
        out.push_back({dram::presetName(preset), 0, preset});

    // XOR variants: row-interleaved's explicit matrix with row bits
    // folded into bank-set masks at increasing heights. Under the
    // paper geometry the line bits are col 6-12, bg 13-15, ba 16-17,
    // ra 18, row 19-35 (physical); folding physical bits 24 / 28 / 34
    // into bg0 / ba0 / ra forces the attacker's difference window
    // past 16 / 22 / 26 line bits respectively — one more adaptive
    // round per fold.
    const sys::SystemConfig base_cfg =
        sys::SystemConfig::paper(DefenseKind::kNone);
    const dram::MappingFunction base(
        base_cfg.ctrl.dram.org, base_cfg.channels,
        dram::MappingPreset::kRowInterleaved);
    std::array<std::vector<std::uint64_t>, dram::kNumFields> masks{};
    for (std::size_t i = 0; i < dram::kNumFields; ++i)
        masks[i] = base.fieldMasks(static_cast<dram::Field>(i));

    foldTap(masks, dram::Field::kBankGroup, 24);
    out.push_back({"xor-near", 1, dram::MappingSpec::fromMasks(masks)});
    foldTap(masks, dram::Field::kBank, 28);
    out.push_back({"xor-mid", 2, dram::MappingSpec::fromMasks(masks)});
    foldTap(masks, dram::Field::kRank, 34);
    out.push_back({"xor-far", 3, dram::MappingSpec::fromMasks(masks)});
    return out;
}

MappingRecoveryCellResult
runMappingRecoveryCell(const dram::MappingSpec &mapping,
                       DefenseKind defense, std::uint64_t seed)
{
    sys::SystemConfig sys_cfg = sys::SystemConfig::paper(defense, 160);
    sys_cfg.mapping = mapping;
    sys::System system(sys_cfg);

    attack::MappingRecoveryConfig cfg;
    cfg.classifier = attack::LatencyClassifier::forTiming(
        sys_cfg.ctrl.dram.timing);
    cfg.seed = seed;
    attack::MappingRecovery attacker(system, cfg);

    bool done = false;
    attacker.start([&done] { done = true; });
    runUntilDone(system, done, "mapping recovery");

    MappingRecoveryCellResult out;
    out.recovered = attacker.result();

    // Grade against the system mapper's ground truth. Bank functions
    // must match as a SPAN (any basis of the same space predicts the
    // same conflicts); row functions only modulo bank functions, so
    // the joint bank+row span is the identifiable object.
    const dram::MappingFunction &fn = system.mapper().fn();
    dram::gf2::BitBasis true_bank;
    for (dram::Field f :
         {dram::Field::kChannel, dram::Field::kRank,
          dram::Field::kBankGroup, dram::Field::kBank})
        for (std::uint64_t m : fn.fieldMasks(f))
            true_bank.insert(m);
    dram::gf2::BitBasis got_bank;
    for (std::uint64_t m : out.recovered.bank_masks)
        got_bank.insert(m);
    out.bank_match =
        out.recovered.bank_solved && got_bank.sameSpan(true_bank);

    dram::gf2::BitBasis true_joint = true_bank;
    for (std::uint64_t m : fn.fieldMasks(dram::Field::kRow))
        true_joint.insert(m);
    dram::gf2::BitBasis got_joint = got_bank;
    for (std::uint64_t m : out.recovered.row_masks)
        got_joint.insert(m);
    out.row_match =
        out.recovered.row_solved && got_joint.sameSpan(true_joint);
    return out;
}

// ------------------------------------------------------------- Fig. 13

namespace {

/** Run until all cores retire their budget or the cap elapses. */
void
runCoresToBudget(sys::System &system,
                 std::vector<std::unique_ptr<sys::TraceCore>> &cores,
                 Tick cap)
{
    const Tick start = system.now();
    while (system.now() - start < cap) {
        bool all_done = true;
        for (const auto &core : cores)
            all_done = all_done && core->budgetDone();
        if (all_done)
            break;
        system.run(500 * sim::kUs);
    }
}

constexpr Tick kPerfRunCap = 80 * sim::kMs;

/** Weighted speedup of @p mix on a system with @p kind at @p nrh,
 *  replaying @p base's traces against its alone IPCs. */
double
sharedWs(DefenseKind kind, std::uint32_t nrh, const workload::Mix &mix,
         const PerfBaseline &base, std::uint64_t insts_per_core)
{
    sys::SystemConfig cfg = sys::SystemConfig::paper(kind, nrh);
    // The performance study models a mid-lifetime slice of a long run:
    // PRAC counters are warm (see defense/prac.hh).
    cfg.defense.warm_counters = true;
    sys::System system(cfg);
    LEAKY_ASSERT(system.mapper().spec() == base.mapping,
                 "traces composed through '%s' replayed on '%s'",
                 base.mapping.str().c_str(),
                 system.mapper().spec().str().c_str());
    auto cores = startCores(system, mix.apps, base.traces, insts_per_core);
    runCoresToBudget(system, cores, kPerfRunCap);
    std::vector<double> ipc_shared;
    for (const auto &core : cores)
        ipc_shared.push_back(core->ipcAt(system.now()));
    return stats::weightedSpeedup(ipc_shared, base.ipc_alone);
}

} // namespace

PerfBaseline
perfBaseline(const workload::Mix &mix, std::uint64_t insts_per_core)
{
    // kNone builds no defense, so the NRH passed here is never read.
    const auto cfg = sys::SystemConfig::paper(DefenseKind::kNone, 1024);
    PerfBaseline base;
    base.mapping = cfg.mapping;
    base.traces = appTraces(
        mix.apps,
        dram::AddressMapper(cfg.ctrl.dram.org, cfg.channels, cfg.mapping));
    for (std::size_t i = 0; i < mix.apps.size(); ++i) {
        sys::System system(cfg);
        auto cores = startCores(system, {mix.apps[i]}, {base.traces[i]},
                                insts_per_core);
        runCoresToBudget(system, cores, kPerfRunCap);
        base.ipc_alone.push_back(cores[0]->ipcAt(system.now()));
    }
    base.ws = sharedWs(DefenseKind::kNone, 1024, mix, base, insts_per_core);
    return base;
}

double
normalizedWs(DefenseKind kind, std::uint32_t nrh, const workload::Mix &mix,
             const PerfBaseline &base, std::uint64_t insts_per_core)
{
    const double ws = sharedWs(kind, nrh, mix, base, insts_per_core);
    return base.ws > 0.0 ? ws / base.ws : 0.0;
}

} // namespace leaky::core
