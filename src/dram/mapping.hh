/**
 * @file
 * Physical-to-DRAM mapping functions as GF(2) linear maps. Real memory
 * controllers compute each DRAM coordinate bit as an XOR of selected
 * physical-address bits (DRAMA-style "XOR functions"); the bit
 * permutations the paper's presets describe are the special case where
 * every output bit copies exactly one input bit. §5.2 of the paper
 * assumes the attacker has reverse engineered such a function before
 * mounting the channel; attack::MappingRecovery learns one online.
 *
 * Three layers:
 *  - MappingSpec: the declarative description (a named preset, a field
 *    order, or an explicit `xor:` matrix) — cheap to copy/compare,
 *    geometry-independent, the type SystemConfig carries.
 *  - MappingFunction: the spec compiled against a concrete geometry
 *    into a validated GF(2) bit matrix with its inverse. Construction
 *    rejects non-invertible matrices (the XOR-family analogue of the
 *    old "order must be a permutation" assert).
 *  - gf2: the small Gaussian-elimination toolkit both the compiler and
 *    the mapping-recovery attacker use.
 */

#ifndef LEAKY_DRAM_MAPPING_HH
#define LEAKY_DRAM_MAPPING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dram/config.hh"
#include "dram/types.hh"

namespace leaky::dram {

/** Address fields a mapping function produces. */
enum class Field : std::uint8_t {
    kColumn, kBankGroup, kBank, kRank, kRow, kChannel
};

/** Number of coordinate fields (the size of a full order array). */
inline constexpr std::size_t kNumFields = 6;

/** Grammar/CSV name of a field ("col", "bg", "ba", "ra", "row", "ch"). */
const char *fieldName(Field f);

/**
 * Named physical-to-DRAM mapping presets (the reverse-engineering
 * targets of §5.2). Each is a pure bit permutation: a full field
 * order, least to most significant. The presets only differ in
 * observable behaviour when traffic is generated in *physical*
 * addresses — attacks that compose coordinates through the system's
 * own mapper are order-invariant by construction, which is exactly
 * what the `mapping-order` figure exploits to model attackers with a
 * *wrong* mapping assumption.
 */
enum class MappingPreset : std::uint8_t {
    /** column, bankgroup, bank, rank, row, channel — the default:
     *  consecutive lines walk a row, then interleave bank groups. */
    kRowInterleaved,
    /** bankgroup, bank, rank, column, row, channel — bank bits at the
     *  LSB end, so consecutive lines stripe across banks first. */
    kBankFirst,
    /** column, row, bankgroup, bank, rank, channel — channel stays the
     *  most-significant field but each bank's rows are physically
     *  contiguous below it (no bank interleaving). */
    kChannelLast,
};

/** All presets, for sweeps and tests. */
inline constexpr MappingPreset kAllMappingPresets[] = {
    MappingPreset::kRowInterleaved, MappingPreset::kBankFirst,
    MappingPreset::kChannelLast};

/** Field order of a preset (least to most significant). */
std::array<Field, kNumFields> presetOrder(MappingPreset preset);

/** Stable CLI/CSV name of a preset ("row-interleaved", ...). */
const char *presetName(MappingPreset preset);

// ------------------------------------------------------------ gf2 utils

/** GF(2) linear algebra over <= 64-dimensional bit vectors. Vectors
 *  are uint64 masks; used by the mapping compiler (invertibility, the
 *  inverse matrix) and by the mapping-recovery solver. */
namespace gf2 {

/** An incrementally built row-echelon basis of a subspace. */
class BitBasis
{
  public:
    /** Reduce @p v by the basis; the non-zero remainder (or 0 if @p v
     *  is in the span). */
    std::uint64_t reduce(std::uint64_t v) const;

    /** Insert @p v; returns true if it extended the span. */
    bool insert(std::uint64_t v);

    bool contains(std::uint64_t v) const { return reduce(v) == 0; }
    std::size_t rank() const { return rows_.size(); }
    const std::vector<std::uint64_t> &rows() const { return rows_; }

    /** True iff both bases span the same subspace. */
    bool sameSpan(const BitBasis &other) const;

    void clear() { rows_.clear(); }

  private:
    /** Echelon rows, strictly decreasing leading bit. */
    std::vector<std::uint64_t> rows_;
};

/** Basis of the annihilator {m : m & v has even parity for all v in
 *  span(@p basis)} within an @p nbits-dimensional space. Its rank is
 *  nbits - basis.rank(). */
std::vector<std::uint64_t> annihilator(const BitBasis &basis,
                                       std::uint32_t nbits);

} // namespace gf2

// ----------------------------------------------------------- MappingSpec

/**
 * Declarative mapping description — what SystemConfig carries and the
 * CLI parses. One of:
 *  - a named preset (`"row-interleaved"`, ...): the default family;
 *  - a custom field order (the legacy constructor-adapter form,
 *    spelled `"order:col,bg,ba,ra,row,ch"`);
 *  - an explicit XOR matrix (`"xor:..."`, grammar below).
 *
 * `xor:` grammar — semicolon-separated field definitions:
 *
 *     xor:col=6:12;bg=13+19,14,15;ba=16,17;ra=18;row=19:35
 *
 *  - each field (`col`/`bg`/`ba`/`ra`/`row`/`ch`) lists one term per
 *    output bit, LSB first, comma-separated;
 *  - a term is an XOR of physical-address bit indices joined by `+`
 *    (`13+19` = bit 13 XOR bit 19);
 *  - `lo:hi` is shorthand for the identity run `lo,lo+1,...,hi`;
 *  - bits 0-5 address bytes within the 64-byte line and cannot appear;
 *  - omitted fields have zero width (e.g. `ch` on a 1-channel system).
 *
 * Geometry checks (field widths must match log2 of the organisation's
 * sizes; the matrix must be invertible) happen when the spec is
 * compiled into a MappingFunction — a spec alone is geometry-free.
 * Equality is canonical-text equality: specs are normalized at
 * construction (fields in canonical order, bits ascending), so two
 * spellings of the same matrix compare equal, but a preset never
 * equals the `xor:` spelling of the same function.
 */
class MappingSpec
{
  public:
    enum class Kind : std::uint8_t { kPreset, kOrder, kXor };

    /** Defaults to the paper's row-interleaved mapping. */
    MappingSpec() : MappingSpec(MappingPreset::kRowInterleaved) {}

    /** Implicit: presets are the common spelling at call sites. */
    MappingSpec(MappingPreset preset); // NOLINT(google-explicit-*)

    /** The legacy raw-field-order family (deprecated-adapter path). */
    static MappingSpec
    fieldOrder(const std::array<Field, kNumFields> &order);

    /** Explicit XOR matrix from per-field output-bit masks over
     *  physical address bits (masks[field][j] = inputs of output bit
     *  j). The programmatic equivalent of the `xor:` text form. */
    static MappingSpec
    fromMasks(const std::array<std::vector<std::uint64_t>, kNumFields>
                  &masks);

    /** Parse a preset name, `order:` list, or `xor:` matrix. Returns
     *  false (with a message in @p error) on bad syntax. */
    static bool tryParse(const std::string &text, MappingSpec *out,
                         std::string *error);

    /** tryParse or panic — for trusted (non-CLI) call sites. */
    static MappingSpec parse(const std::string &text);

    /** Canonical spelling: the preset name, `order:...`, or a
     *  normalized `xor:...` string. Stable for CSV/CLI round trips:
     *  parse(str()) == *this. */
    const std::string &str() const { return text_; }

    Kind kind() const { return kind_; }
    bool isPreset() const { return kind_ == Kind::kPreset; }
    MappingPreset preset() const; ///< Asserts isPreset().

    /** Field order (preset / order kinds only; asserted). */
    const std::array<Field, kNumFields> &order() const;

    /** Per-field XOR masks over physical bits (xor kind only;
     *  asserted). masks()[f] has one entry per output bit, LSB
     *  first; an empty vector is a zero-width field. */
    const std::array<std::vector<std::uint64_t>, kNumFields> &
    masks() const;

    bool
    operator==(const MappingSpec &other) const
    {
        return text_ == other.text_;
    }
    bool
    operator!=(const MappingSpec &other) const
    {
        return !(*this == other);
    }

  private:
    MappingSpec(Kind kind, MappingPreset preset,
                const std::array<Field, kNumFields> &order,
                std::array<std::vector<std::uint64_t>, kNumFields> masks);

    Kind kind_ = Kind::kPreset;
    MappingPreset preset_ = MappingPreset::kRowInterleaved;
    std::array<Field, kNumFields> order_{};
    std::array<std::vector<std::uint64_t>, kNumFields> masks_{};
    std::string text_;
};

// ------------------------------------------------------- MappingFunction

/**
 * A MappingSpec compiled against a concrete geometry: the invertible
 * GF(2) matrix mapping line-index bits to coordinate-field bits, plus
 * its inverse for compose(). Requires power-of-two field sizes (an XOR
 * of bits can only permute a power-of-two space); construction panics
 * on non-power-of-two geometry, on field widths that do not match the
 * organisation, on out-of-range input bits, and on matrices without an
 * inverse — a non-invertible function would alias two physical lines
 * onto one DRAM cell and silently corrupt decode/compose round trips.
 */
class MappingFunction
{
  public:
    static constexpr std::uint32_t kLineBytes = 64;
    /** log2(kLineBytes): physical bits below this address bytes within
     *  a line and never enter the function. */
    static constexpr std::uint32_t kLineShift = 6;

    MappingFunction(const Organization &org, std::uint32_t channels,
                    const MappingSpec &spec);

    /** Decode a line index (phys / 64, already wrapped to capacity)
     *  into coordinates. Flat-bank caches are NOT filled here. */
    Address decodeLine(std::uint64_t line) const;

    /** Encode coordinates into a line index (asserts field ranges). */
    std::uint64_t composeLine(const Address &addr) const;

    /** Physical-address conveniences (wrap / line-align included). */
    Address
    decode(std::uint64_t phys_addr) const
    {
        return decodeLine((phys_addr % capacityBytes()) / kLineBytes);
    }
    std::uint64_t
    compose(const Address &addr) const
    {
        return composeLine(addr) * kLineBytes;
    }

    const MappingSpec &spec() const { return spec_; }
    std::uint32_t channels() const { return channels_; }

    /** Mapped line bits: capacityBytes() == 64 << totalBits(). */
    std::uint32_t totalBits() const { return total_bits_; }
    std::uint64_t
    capacityBytes() const
    {
        return std::uint64_t{kLineBytes} << total_bits_;
    }

    std::uint32_t fieldWidth(Field f) const;
    std::uint32_t fieldSize(Field f) const; ///< 1u << fieldWidth(f).

    /** XOR mask over PHYSICAL address bits feeding output bit @p bit
     *  of field @p f — the ground truth the mapping-recovery figure
     *  verifies the attacker against. */
    std::uint64_t outputMask(Field f, std::uint32_t bit) const;

    /** outputMask over all bits of @p f (the field's function rows). */
    std::vector<std::uint64_t> fieldMasks(Field f) const;

    /** The compiled matrix re-spelled as an explicit `xor:` spec —
     *  the bridge from the preset family into the XOR family (used to
     *  derive "preset + folded bits" variants). */
    MappingSpec asXorSpec() const;

  private:
    std::uint32_t fieldOffset(Field f) const;
    void compileOrder(const std::array<Field, kNumFields> &order);
    void compileMasks(
        const std::array<std::vector<std::uint64_t>, kNumFields> &masks);
    void invert();

    MappingSpec spec_;
    std::uint32_t channels_ = 1;
    std::uint32_t total_bits_ = 0;
    /** Field widths / packed offsets in canonical field order. */
    std::array<std::uint32_t, kNumFields> widths_{};
    std::array<std::uint32_t, kNumFields> offsets_{};
    /** Forward rows: coordinate bit k = parity(fwd_[k] & line). */
    std::vector<std::uint64_t> fwd_;
    /** Inverse rows: line bit i = parity(inv_[i] & packed coords). */
    std::vector<std::uint64_t> inv_;
    /** Per-field fast path: when a field's rows are one contiguous
     *  identity run (every preset/order mapping), decode is a single
     *  shift+mask instead of width parity reductions. */
    std::array<std::int32_t, kNumFields> plain_shift_{};
    /** Every field is plain: compose ORs each digit in at its shift
     *  instead of running the inverse parity rows. */
    bool all_plain_ = false;
};

} // namespace leaky::dram

#endif // LEAKY_DRAM_MAPPING_HH
