/**
 * @file
 * Online DRAM address-mapping reverse engineering (ZenHammer/DARE,
 * DRAMA). The attacker of §5.2 is assumed to know the XOR mapping
 * function before mounting the channel; MappingRecovery LEARNS it
 * through the timing side channel the controller itself exposes:
 * alternating reads to two addresses in the same bank but different
 * rows suffer a row-buffer conflict on every access, while any other
 * pair stays fast. Conflict-pair address differences are samples of
 * the bank functions' null space; the bank functions are recovered as
 * its GF(2) annihilator, and the row functions follow from classifying
 * the null-space directions (row-flipping vs column-only).
 *
 * The attacker knows the module geometry (capacity, bank/row/column
 * counts — datasheet values) but nothing about which physical bits
 * feed which coordinate. Probing is adaptive: differences start
 * confined to a low-bit window and the window widens whenever
 * validation probes catch a bank function tapping higher bits — so
 * mappings folding high (row) bits into bank masks cost measurably
 * more probes, which is the `mapping-recovery` figure's x-axis.
 */

#ifndef LEAKY_ATTACK_MAPPING_RECOVERY_HH
#define LEAKY_ATTACK_MAPPING_RECOVERY_HH

#include <cstdint>
#include <vector>

#include "attack/probe.hh"
#include "dram/mapping.hh"
#include "sim/rng.hh"
#include "sys/system.hh"

namespace leaky::attack {

/** Knobs of the online recovery loop. */
struct MappingRecoveryConfig {
    LatencyClassifier classifier;
    std::uint64_t seed = 1;
};

/** What the attacker learned, plus the probing cost to learn it. */
struct RecoveredMapping {
    /** Learned bank-set functions: XOR masks over PHYSICAL address
     *  bits (row-echelon basis of their span). "Bank set" includes
     *  channel and rank — any coordinate that selects a row buffer. */
    std::vector<std::uint64_t> bank_masks;
    /** Learned row functions, modulo bank functions (the conflict
     *  oracle cannot distinguish `row` from `row XOR bank`). */
    std::vector<std::uint64_t> row_masks;
    /** Basis of physical-address differences that change neither bank
     *  nor row (column-only directions) — the learned kernel the row
     *  functions are derived from. */
    std::vector<std::uint64_t> column_dirs;
    bool bank_solved = false;
    bool row_solved = false;
    std::uint64_t probes = 0;   ///< Timed address pairs.
    std::uint64_t accesses = 0; ///< Individual reads issued.
    std::uint32_t rounds = 0;   ///< Collection rounds (incl. widenings).
    std::uint32_t validation_failures = 0;
    std::uint32_t final_window = 0; ///< Line bits visible at solve time.
};

/** The event-driven recovery agent (one per attacking process). */
class MappingRecovery
{
  public:
    MappingRecovery(sys::System &system, MappingRecoveryConfig cfg);

    /** Begin probing; @p on_done fires once recovery finishes (or the
     *  round budget is exhausted — check result().bank_solved). */
    void start(sim::SmallFn on_done = {});

    const RecoveredMapping &result() const { return result_; }

  private:
    enum class Phase : std::uint8_t {
        kCollect,  ///< Random in-window differences -> conflict span.
        kValidate, ///< Constructed full-range probes of the candidate.
        kClassify, ///< Null-space basis: row-flipping vs column-only.
        kRefine,   ///< Pairwise XOR of row-flippers (folded kernels).
        kDone
    };

    std::uint32_t windowBits() const;
    std::uint64_t randomLine();
    std::uint64_t randomWindowDelta();
    std::uint64_t randomCombination(
        const std::vector<std::uint64_t> &basis);

    /** Time the pair (@p line, @p line ^ @p delta); the verdict "was a
     *  row conflict" goes to onMeasured. */
    void measurePair(std::uint64_t line, std::uint64_t delta);
    void measureStep();
    /** Act on a pair's verdict for the current phase. */
    void onMeasured(bool conflict);

    void startCollectRound();
    void collectNext();
    void finishCollectRound();
    void startValidation();
    void validateNext();
    void finishValidation();
    void widenWindow();
    void startClassify();
    void classifyNext();
    void startRefine();
    void refineNext();
    void finish();

    sys::System &system_;
    MappingRecoveryConfig cfg_;
    TimedLoad load_;
    sim::SmallFn on_done_;
    sim::Rng rng_;
    RecoveredMapping result_;

    // Known geometry (datasheet): line-space dimensions.
    std::uint32_t total_bits_ = 0;
    std::uint32_t bank_bits_ = 0; ///< ch + rank + bg + bank bits.
    std::uint32_t row_bits_ = 0;
    std::uint32_t col_bits_ = 0;

    Phase phase_ = Phase::kCollect;
    std::uint32_t window_idx_ = 0;

    // In-flight measurement state.
    std::uint64_t pair_[2] = {0, 0};
    std::uint64_t delta_ = 0; ///< Line-space difference of the pair.
    std::uint32_t reads_done_ = 0;
    Tick min_latency_ = 0;

    // Collection state (line space, i.e. physical >> 6).
    dram::gf2::BitBasis conflict_span_;
    std::vector<std::uint64_t> raw_conflicts_;
    std::uint32_t round_pairs_ = 0;
    std::size_t span_rank_at_round_start_ = 0;
    std::uint32_t stalled_rounds_ = 0;

    // Validation state.
    std::vector<std::uint64_t> candidate_;        ///< In-window masks.
    std::vector<std::uint64_t> candidate_kernel_; ///< Full-space basis.
    std::uint32_t validation_done_ = 0;
    std::uint32_t validation_failed_ = 0;

    // Row/column phase state.
    std::vector<std::uint64_t> null_basis_;
    std::size_t classify_idx_ = 0;
    std::vector<std::uint64_t> row_flippers_;
    dram::gf2::BitBasis column_span_;
    std::size_t refine_i_ = 0, refine_j_ = 1;
    std::uint32_t refine_tests_ = 0;
};

} // namespace leaky::attack

#endif // LEAKY_ATTACK_MAPPING_RECOVERY_HH
