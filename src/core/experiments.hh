/**
 * @file
 * High-level experiment runners shared by the figure registry and the
 * demos, one entry point per experiment. attackSystem is the one
 * operating-point rule. Every covert-channel cell -- the headline
 * channels, the countermeasures, the trigger classes, the colocation
 * and topology variants -- is one ChannelRunSpec run through
 * runChannel; a multi-pair cell gives each pair a channelConfig and
 * transmits them together through attack::runCovertChannel.
 * Fingerprint collection is one collectOneFingerprint call per (site,
 * load) sweep job; the runner merges the rows into the ML dataset.
 * The other runners (latency trace, counter leak, mapping recovery,
 * performance) each build a fresh System (paper Table 1
 * configuration), attach their agents/cores, run the event queue, and
 * return the numbers the corresponding figure/table plots.
 *
 * Scale knobs: every runner takes explicit sizes; the figure registry
 * (src/runner/figures*.cc) picks them per smoke / default / full scale
 * (see EXPERIMENTS.md).
 */

#ifndef LEAKY_CORE_EXPERIMENTS_HH
#define LEAKY_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/covert.hh"
#include "attack/fingerprint.hh"
#include "attack/mapping_recovery.hh"
#include "attack/message.hh"
#include "attack/probe.hh"
#include "sys/system.hh"
#include "workload/synthetic.hh"

namespace leaky::core {

using sim::Tick;

/** The attack operating point of defense @p kind: the PRAC family at
 *  NBO = 128 with 4 RFMs per back-off (§6.1), PRFM at TRFM = 40
 *  (§7.1), everything else (FR-RFM, PARA, the Graphene / Hydra
 *  trackers) at the paper defaults for NRH = 160, the PRAC studies'
 *  threat level. Paper Table 1 system otherwise. */
sys::SystemConfig attackSystem(defense::DefenseKind kind);

/** The covert channel that exploits @p kind's observable: back-off
 *  detection for the PRAC family, slow-event counting for the rest
 *  (RFM windows and targeted refreshes land in the same latency band,
 *  above conflicts and below refreshes). */
attack::ChannelKind channelKindFor(defense::DefenseKind kind);

// ------------------------------------------------------------- Fig. 2

/** Fig. 2: latencies of consecutive requests under PRAC (Listing 1). */
struct LatencyTraceResult {
    std::vector<attack::LatencySample> samples;
    attack::LatencyClassifier classifier;
    std::uint64_t backoffs = 0; ///< Ground truth.
    std::uint64_t refreshes = 0;
    std::uint64_t reads_served = 0;
    double mean_backoff_latency_ns = 0.0;
    double mean_conflict_latency_ns = 0.0;
    double mean_refresh_latency_ns = 0.0;
};

LatencyTraceResult runLatencyTrace(std::uint32_t iterations = 512,
                                   std::uint32_t rfms_per_backoff = 4);

// -------------------------------------------------- Figs. 3-8 (covert)

/**
 * One covert-channel cell: a LeakyHammer sender and receiver on a
 * defended system. The paper's covert results differ only in the
 * defense, where the receiver sits, and the noise, so every covert
 * figure, the fuzzer and figbench describe their cell with this spec.
 */
struct ChannelRunSpec {
    attack::ChannelKind kind = attack::ChannelKind::kPrac;
    std::uint32_t levels = 2;
    /** The defense under attack; unset = `kind`'s own operating point
     *  (attackSystem of PRAC or PRFM). `seed` always overwrites
     *  its seed. Graphene / Hydra switch the receiver to the tracker
     *  calibration (see channelConfig). */
    std::optional<defense::DefenseSpec> defense;
    /** Memory-channel topology: system channel count, the channels
     *  the two endpoints target, and the physical-address mapping. */
    std::uint32_t channels = 1;
    std::uint32_t sender_channel = 0;
    std::uint32_t receiver_channel = 0;
    dram::MappingSpec mapping;
    /** Receiver's bank group and bank (rank 0). A receiver outside the
     *  sender's (channel, bank group 0, bank 0) is non-colocated: the
     *  sender then alternates two of its own rows (self-conflict) and
     *  PRAC runs a doubled window, as in the §9.1 variants. */
    std::uint32_t receiver_bankgroup = 0;
    std::uint32_t receiver_bank = 0;
    /** The mapping the attacker composes its rows through (§5.2, a
     *  possibly wrong reverse-engineered mapping); unset = the system's
     *  own. When set, both endpoints sit in bank group 2, bank 1 of the
     *  sender's channel: at all-zero low fields every preset
     *  degenerates to the same line index. */
    std::optional<dram::MappingSpec> assumed_mapping;
    std::size_t message_bytes = 100;
    attack::MessagePattern pattern = attack::MessagePattern::kCheckered0;
    /** Noise microbenchmark sleep (0 = no noise agent). */
    Tick noise_sleep = 0;
    /** Concurrent SPEC-like apps (empty = none). */
    std::vector<workload::AppSpec> background;
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
    /** Transmission window; 0 = `kind`'s default (doubled for a
     *  non-colocated PRAC receiver). */
    Tick window = 0;
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

/** System configuration a ChannelRunSpec implies (topology, defense,
 *  mapping preset) — what runChannel builds internally. */
sys::SystemConfig channelSystemConfig(const ChannelRunSpec &spec);

/** Sender/receiver configuration of @p spec's cell on @p system —
 *  what runChannelOn transmits with. Exposed so the pattern fuzzer
 *  (src/fuzz) replays its patterns in exactly this cell. */
attack::CovertConfig channelConfig(sys::System &system,
                                   const ChannelRunSpec &spec);

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
    bool large_caches = false; ///< §10.3 variant.
    std::uint64_t seed = 2025;
};

/** Collect a single (site, load) fingerprint. */
FingerprintSample collectOneFingerprint(const FingerprintSpec &spec,
                                        std::uint32_t site,
                                        std::uint32_t load);

// ------------------------------------------------------------- §9.1

/** One §9.1 counter-leak trial (Table 3's row-granular column). */
struct CounterLeakTrial {
    std::uint32_t secret = 0; ///< Victim's priming activation count.
    std::uint32_t leaked = 0; ///< NBO - attacker activations.
    double elapsed_us = 0.0;
    double bits = 0.0; ///< log2(NBO) leaked per shot.
};

/** Prime the shared row's counter with @p secret and leak it back. */
CounterLeakTrial runCounterLeakTrial(std::uint32_t secret);

// ------------------------ online mapping recovery (DARE-style, §5.2)

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
 *  needs that does not depend on the cell's (defense, NRH) -- the
 *  apps' traces, their alone IPCs and the undefended shared WS. */
struct PerfBaseline {
    /** Per app, generated once and replayed read-only by the alone
     *  runs, the undefended shared run and every cell of the mix. */
    std::vector<sys::SharedTrace> traces;
    dram::MappingSpec mapping;     ///< What `traces` are composed through.
    std::vector<double> ipc_alone; ///< Per app, run alone, no defense.
    double ws = 0.0;               ///< Shared weighted speedup, no defense.
};

/** Traces, alone IPCs and undefended shared WS of @p mix, through the
 *  paper mapping. A pure function of its arguments, so callers may
 *  compute it once per mix and share it across threads: cells only
 *  read it. */
PerfBaseline perfBaseline(const workload::Mix &mix,
                          std::uint64_t insts_per_core);

/** Weighted speedup of @p mix under @p kind at @p nrh, normalized to
 *  @p base (0 when the baseline WS is 0). */
double normalizedWs(defense::DefenseKind kind, std::uint32_t nrh,
                    const workload::Mix &mix, const PerfBaseline &base,
                    std::uint64_t insts_per_core);

} // namespace leaky::core

#endif // LEAKY_CORE_EXPERIMENTS_HH
