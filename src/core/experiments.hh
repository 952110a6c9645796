/**
 * @file
 * High-level experiment runners: one function per family of paper
 * results, shared by the bench/ binaries and the examples. Each runner
 * builds a fresh System (paper Table 1 configuration), attaches the
 * necessary agents/cores, runs the event queue, and returns the numbers
 * the corresponding figure/table plots.
 *
 * Scale knobs: every runner takes explicit sizes; the figure registry
 * (src/runner/figures*.cc) picks them per smoke / default / full scale
 * (see EXPERIMENTS.md).
 */

#ifndef LEAKY_CORE_EXPERIMENTS_HH
#define LEAKY_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attack/covert.hh"
#include "attack/fingerprint.hh"
#include "attack/mapping_recovery.hh"
#include "attack/message.hh"
#include "attack/probe.hh"
#include "ml/dataset.hh"
#include "sys/system.hh"
#include "workload/synthetic.hh"

namespace leaky::core {

using sim::Tick;

/** Paper Table 1 system with PRAC at the attack-study operating point
 *  (NBO = 128, 4 RFMs per back-off). */
sys::SystemConfig pracAttackSystem();

/** Paper §7 system: PRFM with TRFM = 40. */
sys::SystemConfig prfmAttackSystem();

/** Tracker-family system (Graphene / Hydra) at the attack-study
 *  operating point: NRH = 160, targeted-refresh threshold 80. */
sys::SystemConfig trackerAttackSystem(defense::DefenseKind kind);

// ------------------------------------------------------------- Fig. 2

/** Fig. 2: latencies of consecutive requests under PRAC (Listing 1). */
struct LatencyTraceResult {
    std::vector<attack::LatencySample> samples;
    attack::LatencyClassifier classifier;
    std::uint64_t backoffs = 0; ///< Ground truth.
    std::uint64_t refreshes = 0;
    double mean_backoff_latency_ns = 0.0;
    double mean_conflict_latency_ns = 0.0;
    double mean_refresh_latency_ns = 0.0;
};

LatencyTraceResult runLatencyTrace(std::uint32_t iterations = 512,
                                   std::uint32_t rfms_per_backoff = 4);

// -------------------------------------------------- Figs. 3-8 (covert)

/** Options for one covert-channel run. */
struct ChannelRunSpec {
    attack::ChannelKind kind = attack::ChannelKind::kPrac;
    std::uint32_t levels = 2;
    /** Memory-channel topology: system channel count, the channels
     *  the two endpoints target, and the physical-address mapping.
     *  receiver_channel != sender_channel is the cross-channel
     *  isolation scenario: the sender then alternates two of its own
     *  rows (self-conflict) and PRAC runs a longer window, exactly as
     *  in the non-colocated §9.1 variants. */
    std::uint32_t channels = 1;
    std::uint32_t sender_channel = 0;
    std::uint32_t receiver_channel = 0;
    dram::MappingSpec mapping;
    std::size_t message_bytes = 100;
    attack::MessagePattern pattern = attack::MessagePattern::kCheckered0;
    /** Noise microbenchmark sleep (0 = no noise agent). */
    Tick noise_sleep = 0;
    /** Concurrent SPEC-like apps (empty = none). */
    std::vector<workload::AppSpec> background;
    std::uint32_t rfms_per_backoff = 4;
    /** Override back-off RFM latency (Fig. 12 sweep); 0 = default. */
    Tick backoff_rfm_latency = 0;
    /** Override the post-alert normal-traffic window; 0 = default. */
    Tick aboact_override = 0;
    /**
     * Pin refreshes to the tREFI grid (no postponing) and filter them
     * out at the receiver (paper footnote 6 and §10.1) -- used when
     * the preventive-action latency shrinks into the refresh band
     * (Figs. 11/12).
     */
    bool filter_refresh = false;
    /** Override the receiver's back-off detection threshold (Fig. 12
     *  sweeps it against the preventive-action latency); 0 = derive. */
    Tick backoff_min_override = 0;
    /** Larger cache hierarchy + prefetchers for background apps
     *  (§10.3). */
    bool large_caches = false;
    std::uint64_t seed = 1;
};

/** A run plus its Eq.-1 metrics. */
attack::ChannelResult runChannel(const ChannelRunSpec &spec);

/** As runChannel, but on a caller-owned @p system (whose config must
 *  match spec's topology) so the caller can inspect per-channel stats
 *  views after the transmission. */
attack::ChannelResult runChannelOn(sys::System &system,
                                   const ChannelRunSpec &spec);

/** System configuration a ChannelRunSpec implies (topology, defense
 *  overrides, mapping preset) — what runChannel builds internally. */
sys::SystemConfig channelSystemConfig(const ChannelRunSpec &spec);

/** Average metrics over the four message patterns (§6.3, §7.3). */
struct PatternSweepResult {
    double raw_bit_rate = 0.0;
    double error_probability = 0.0;
    double capacity = 0.0;
};

PatternSweepResult runPatternSweep(ChannelRunSpec spec);

/** Transmit "MICRO" and report the per-window detections (Figs. 3/6). */
struct MessageDemoResult {
    std::vector<bool> sent_bits;
    std::vector<bool> received_bits;
    /** Receiver observable per window: back-offs (PRAC) or RFM count. */
    std::vector<std::uint32_t> detections;
    std::string decoded_text;
};

MessageDemoResult
runMessageDemo(attack::ChannelKind kind,
               const std::string &message = "MICRO",
               const dram::MappingSpec &mapping = {});

// ------------------------------------------------------- Figs. 9/10, T2

/** One collected website fingerprint. */
struct FingerprintSample {
    std::uint32_t site = 0;
    std::uint32_t load = 0;
    std::vector<Tick> backoff_times;
    Tick duration = 0;
};

/** Side-channel data-collection options (§8: NRH = 64). */
struct FingerprintSpec {
    std::uint32_t sites = 40;
    std::uint32_t loads_per_site = 50;
    std::uint32_t nrh = 64;
    Tick duration = 4 * sim::kMs;
    bool large_caches = false;    ///< §10.3 variant.
    bool background_noise = false; ///< Concurrent SPEC-like app (§8).
    std::uint64_t seed = 2025;
};

/** Collect fingerprints by simulating browser + probe per load. */
std::vector<FingerprintSample>
collectFingerprints(const FingerprintSpec &spec);

/** Collect a single (site, load) fingerprint. */
FingerprintSample collectOneFingerprint(const FingerprintSpec &spec,
                                        std::uint32_t site,
                                        std::uint32_t load);

/** Turn fingerprints into the ML dataset (extractFeatures per sample). */
ml::Dataset fingerprintDataset(const std::vector<FingerprintSample> &raw,
                               std::uint32_t windows = 32);

// ----------------------------------------------- §9.1, §11.4, §12, T3

/** One §9.1 counter-leak trial (Table 3's row-granular column). */
struct CounterLeakTrial {
    std::uint32_t secret = 0; ///< Victim's priming activation count.
    std::uint32_t leaked = 0; ///< NBO - attacker activations.
    double elapsed_us = 0.0;
    double bits = 0.0; ///< log2(NBO) leaked per shot.
};

/** Prime the shared row's counter with @p secret and leak it back. */
CounterLeakTrial runCounterLeakTrial(std::uint32_t secret);

/** One §11.4 countermeasure scenario: the PRAC channel attacked
 *  against a protected system under ambient noise. */
struct CountermeasureCellSpec {
    defense::DefenseKind kind = defense::DefenseKind::kPrac;
    /** Receiver outside the sender's bank (Bank-Level PRAC's scope
     *  reduction); the sender self-conflicts between two rows. */
    bool cross_bank = false;
    Tick noise_sleep = 0; ///< Ambient Eq.-2 noise (0 = none).
    std::size_t message_bytes = 25;
    std::uint64_t seed = 1;
};

attack::ChannelResult
runCountermeasureCell(const CountermeasureCellSpec &spec);

/** §12 trigger-algorithm cell: exact triggers (PRAC, PRFM) vs the
 *  stateless random PARA at probability @p para_probability. */
attack::ChannelResult runTriggerCell(defense::DefenseKind kind,
                                     double para_probability,
                                     std::size_t message_bytes,
                                     std::uint64_t seed);

/** Table 3 colocation cell: channel error with the receiver moved to
 *  (@p bankgroup, @p bank); (-1, -1) keeps the same-bank default. */
attack::ChannelResult runGranularityCell(attack::ChannelKind kind,
                                         int bankgroup, int bank,
                                         std::size_t message_bytes,
                                         std::uint64_t seed);

// --------------------------------------- tracker family (cross-defense)

/** System configuration of one cross-defense covert cell: the
 *  family-appropriate attack operating point for @p kind (PRAC
 *  NBO = 128, PRFM TRFM = 40, tracker NRH = 160, paper defaults
 *  otherwise). Exposed for reuse — the pattern fuzzer (src/fuzz)
 *  evaluates generated patterns in exactly this cell. */
sys::SystemConfig crossDefenseSystemConfig(defense::DefenseKind kind);

/** Receiver/channel configuration matching crossDefenseSystemConfig:
 *  back-off detection for the PRAC family, slow-event counting for
 *  the RFM/tracker families (targeted refreshes land in the RFM
 *  latency band, above conflicts and below refreshes). */
attack::CovertConfig crossDefenseChannelConfig(sys::System &system,
                                               defense::DefenseKind kind);

/** One cross-defense covert cell: the generic LeakyHammer sender vs a
 *  system protected by @p kind, with Eq.-2 noise at @p noise_sleep.
 *  The receiver strategy adapts to the defense's observable: back-off
 *  detection for the PRAC family, slow-event counting for the
 *  RFM/tracker families (RFM windows and targeted refreshes land in
 *  the same latency band, above conflicts and below refreshes). */
attack::ChannelResult runCrossDefenseCell(defense::DefenseKind kind,
                                          Tick noise_sleep,
                                          std::size_t message_bytes,
                                          std::uint64_t seed);

/** One tracker-threshold cell: a Graphene/Hydra system with the
 *  targeted-refresh threshold pinned to @p threshold (and, for Hydra,
 *  @p cc_entries counter-cache entries; 0 = default). */
attack::ChannelResult runTrackerThresholdCell(defense::DefenseKind kind,
                                              std::uint32_t threshold,
                                              std::uint32_t cc_entries,
                                              std::size_t message_bytes,
                                              std::uint64_t seed);

// ------------------------- multi-channel scaling + mapping diversity

/** One cross-channel isolation cell (§5.2 threat-model negative
 *  control): the sender hammers channel 0; the receiver either
 *  colocates (the ordinary channel) or listens on channel 1, where the
 *  independent defense instance never fires for the sender's rows. */
struct CrossChannelSpec {
    std::uint32_t channels = 2;
    bool cross = true; ///< Receiver on channel 1 (false = colocated).
    attack::MessagePattern pattern = attack::MessagePattern::kCheckered0;
    std::size_t message_bytes = 4;
    std::uint64_t seed = 1;
};

struct CrossChannelResult {
    /** Eq.-1 metrics + the RECEIVER channel's ground truth. */
    attack::ChannelResult channel;
    std::uint64_t tx_actions = 0; ///< Preventive actions, sender channel.
    std::uint64_t rx_actions = 0; ///< Preventive actions, receiver channel.
    std::uint64_t aggregate_actions = 0; ///< Summed over all channels.
};

CrossChannelResult runCrossChannelCell(const CrossChannelSpec &spec);

/** One aggregate-scaling cell: an independent sender/receiver pair on
 *  EVERY channel, transmitting concurrently in one system. */
struct MultiChannelSpec {
    std::uint32_t channels = 1;
    attack::MessagePattern pattern = attack::MessagePattern::kCheckered0;
    std::size_t message_bytes = 4;
    std::uint64_t seed = 1;
};

struct MultiChannelResult {
    std::vector<attack::ChannelResult> per_channel;
    double aggregate_raw_bit_rate = 0.0; ///< Sum over channels.
    double aggregate_capacity = 0.0;     ///< Sum over channels.
    double mean_symbol_error = 0.0;
    std::uint64_t aggregate_actions = 0; ///< aggregateStats() view.
};

MultiChannelResult runMultiChannelAggregate(const MultiChannelSpec &spec);

/** One mapping-diversity cell: the system decodes through @p actual
 *  while the attacker composes its rows through the @p assumed
 *  MappingFunction — the partially-wrong reverse-engineered mapping of
 *  §5.2. Equal specs reproduce the baseline PRAC channel; a mismatch
 *  scatters the attacker's "same-bank" pair and the channel collapses. */
attack::ChannelResult runMappingOrderCell(const dram::MappingSpec &actual,
                                          const dram::MappingSpec &assumed,
                                          std::size_t message_bytes,
                                          std::uint64_t seed);

// ------------------------------- online mapping recovery (ROADMAP 2)

/** One point on the recovery figure's mapping axis. */
struct RecoveryMappingCase {
    std::string name;
    /** Extra XOR taps beyond a pure bit permutation (0 for presets). */
    std::uint32_t complexity = 0;
    dram::MappingSpec spec;
};

/** The mapping axis of the `mapping-recovery` figure: the three
 *  presets (complexity 0) plus row-interleaved variants that fold
 *  progressively higher row bits into bank-set masks — each fold
 *  forces the attacker's difference window to climb one step. */
std::vector<RecoveryMappingCase> recoveryMappings();

struct MappingRecoveryCellResult {
    attack::RecoveredMapping recovered;
    /** span(learned bank fns) == span(true ch/rank/bg/bank fns). */
    bool bank_match = false;
    /** Joint bank+row span equality (row fns are only identifiable
     *  modulo bank fns under a conflict oracle). */
    bool row_match = false;
};

/** Run one MappingRecovery attacker against a system decoding through
 *  @p mapping under @p defense, and grade the learned functions
 *  against the system mapper's ground-truth masks. */
MappingRecoveryCellResult
runMappingRecoveryCell(const dram::MappingSpec &mapping,
                       defense::DefenseKind defense, std::uint64_t seed);

// ------------------------------------------------------------- Fig. 13

/** A mix's unprotected reference point: everything a Fig. 13 cell
 *  needs that does not depend on the cell's (defense, NRH). */
struct PerfBaseline {
    std::vector<double> ipc_alone; ///< Per app, run alone, no defense.
    double ws = 0.0;               ///< Shared weighted speedup, no defense.
};

/** Alone IPCs and undefended shared WS of @p mix. A pure function of
 *  its arguments, so callers may compute it once per mix. */
PerfBaseline perfBaseline(const workload::Mix &mix,
                          std::uint64_t insts_per_core);

/** Weighted speedup of @p mix under @p kind at @p nrh, normalized to
 *  @p base (0 when the baseline WS is 0). */
double normalizedWs(defense::DefenseKind kind, std::uint32_t nrh,
                    const workload::Mix &mix, const PerfBaseline &base,
                    std::uint64_t insts_per_core);

} // namespace leaky::core

#endif // LEAKY_CORE_EXPERIMENTS_HH
