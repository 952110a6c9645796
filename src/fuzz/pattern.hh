/**
 * @file
 * Serializable aggressor access patterns — the value type of the
 * pattern fuzzer (Blacksmith/ZenHammer-style frequency/phase/amplitude
 * search). A HammerPattern describes one base period of
 * aggressor activity: each Aggressor tuple names a logical row slot and
 * the (frequency, phase, amplitude) at which that row's accesses recur
 * within the period. The covert sender replays the expanded access
 * sequence cyclically during logic-1 windows, so the pattern's shape —
 * not just its access count — decides how the defense's counters
 * charge and when preventive actions land.
 *
 * Patterns are plain data with a canonical text grammar, mirroring
 * dram::MappingSpec's design: `tryParse` for untrusted input with a
 * user-facing error, `parse` for trusted literals, `str()` emitting
 * the canonical spelling, and the round-trip identity
 * `parse(p.str()) == p`. The grammar is the CLI/CSV surface of every
 * fuzzer-discovered pattern, so tests pin an accept/reject table.
 *
 * Grammar (one line, no spaces):
 *
 *   pattern  := "hp1:" field (";" field)*
 *   field    := "period=" uint | "gap=" uint | "agg=" aggressor
 *   aggressor:= row "@" freq "/" phase "x" amp
 *
 *  - `period`: slots per base period (required, 1..kMaxPeriod).
 *  - `gap`: extra pacing delay per access in ticks (optional, 0
 *    default, <= kMaxGap) — added to the sender's loop overhead.
 *  - `agg=R@F/PxA`: row slot R recurs F times per period (F must
 *    divide the period), first at slot P (P < period/F), with A
 *    consecutive accesses per occurrence. Aggressor order is
 *    semantic: it decides the intra-slot access order.
 *
 * Example: `hp1:period=2;gap=0;agg=0@1/0x1;agg=1@1/1x1` is the classic
 * two-row alternation (row 0 on even slots, row 1 on odd slots).
 */

#ifndef LEAKY_FUZZ_PATTERN_HH
#define LEAKY_FUZZ_PATTERN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/tick.hh"

namespace leaky::fuzz {

/** One recurring aggressor: row slot + frequency/phase/amplitude. */
struct Aggressor {
    std::uint32_t row = 0;   ///< Logical row slot (0..kMaxRows-1).
    std::uint32_t freq = 1;  ///< Occurrences per period (divides period).
    std::uint32_t phase = 0; ///< First slot of the cycle (< period/freq).
    std::uint32_t amp = 1;   ///< Consecutive accesses per occurrence.

    bool operator==(const Aggressor &o) const
    {
        return row == o.row && freq == o.freq && phase == o.phase &&
               amp == o.amp;
    }
    bool operator!=(const Aggressor &o) const { return !(*this == o); }
};

/** One serialized-comparable aggressor access pattern. */
struct HammerPattern {
    static constexpr std::uint32_t kMaxPeriod = 256;
    static constexpr std::uint32_t kMaxRows = 32;
    static constexpr std::uint32_t kMaxAmplitude = 16;
    static constexpr std::uint32_t kMaxAggressors = 16;
    static constexpr std::uint64_t kMaxGap = 1'000'000; ///< 1 us.
    /** Cap on accesses per expanded period ("pattern too dense"). */
    static constexpr std::size_t kMaxAccesses = 4096;

    std::uint32_t period = 1;
    sim::Tick gap = 0;
    std::vector<Aggressor> aggressors;

    /** Equality is structural; `parse(str()) == *this` for any valid
     *  pattern because str() is a canonical rendering. */
    bool operator==(const HammerPattern &o) const
    {
        return period == o.period && gap == o.gap &&
               aggressors == o.aggressors;
    }
    bool operator!=(const HammerPattern &o) const { return !(*this == o); }

    /** Canonical spelling: `hp1:period=..;gap=..;agg=..;...` with the
     *  fields in that fixed order and aggressors as listed. */
    std::string str() const;

    /** Parse untrusted text; on failure fills @p error (user-facing)
     *  and returns false leaving @p out untouched. */
    static bool tryParse(const std::string &text, HammerPattern *out,
                         std::string *error);

    /** Parse trusted text (asserts on failure). */
    static HammerPattern parse(const std::string &text);

    /** Validate the in-memory pattern against the same rules the
     *  grammar enforces; fills @p error on failure. */
    bool validate(std::string *error) const;

    /** Number of distinct row slots referenced (max row index + 1). */
    std::uint32_t rowCount() const;

    /** Total accesses in one expanded period (sum of freq x amp). */
    std::size_t accessesPerPeriod() const;

    /**
     * Expand one period into the row-slot access sequence: for each
     * slot s in [0, period), every aggressor due at s (in listed
     * order) contributes `amp` consecutive accesses of its row.
     * Clears and refills @p slots — steady-state allocation-free once
     * the vector's capacity covers accessesPerPeriod().
     */
    void expandInto(std::vector<std::uint32_t> *slots) const;

    /** Convenience allocating form of expandInto. */
    std::vector<std::uint32_t> expand() const;
};

} // namespace leaky::fuzz

#endif // LEAKY_FUZZ_PATTERN_HH
