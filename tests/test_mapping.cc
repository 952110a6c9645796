/** @file MappingSpec / MappingFunction / gf2 tests: the XOR-function
 *  mapping family — grammar accept/reject table, randomized invertible
 *  GF(2) round trips, non-invertible rejection, preset equivalence. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dram/mapping.hh"
#include "sim/rng.hh"

namespace {

using leaky::dram::Address;
using leaky::dram::Field;
using leaky::dram::kNumFields;
using leaky::dram::MappingFunction;
using leaky::dram::MappingPreset;
using leaky::dram::MappingSpec;
using leaky::dram::Organization;
namespace gf2 = leaky::dram::gf2;

// --------------------------------------------------------- gf2 toolkit

TEST(Gf2BitBasis, InsertReduceRank)
{
    gf2::BitBasis basis;
    EXPECT_TRUE(basis.insert(0b1100));
    EXPECT_TRUE(basis.insert(0b0110));
    EXPECT_FALSE(basis.insert(0b1010)); // = 1100 ^ 0110.
    EXPECT_EQ(basis.rank(), 2u);
    EXPECT_TRUE(basis.contains(0b1010));
    EXPECT_FALSE(basis.contains(0b1000));
    EXPECT_EQ(basis.reduce(0), 0u);
    EXPECT_FALSE(basis.insert(0));
}

TEST(Gf2BitBasis, SameSpanIsBasisIndependent)
{
    gf2::BitBasis a, b;
    a.insert(0b101);
    a.insert(0b011);
    b.insert(0b110); // = 101 ^ 011.
    b.insert(0b011);
    EXPECT_TRUE(a.sameSpan(b));
    b.insert(0b001);
    EXPECT_FALSE(a.sameSpan(b));
}

TEST(Gf2Annihilator, OrthogonalComplementOfTheSpan)
{
    leaky::sim::Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        const std::uint32_t nbits = 4 + trial % 16;
        gf2::BitBasis basis;
        for (int i = 0; i < 6; ++i)
            basis.insert(rng.below(std::uint64_t{1} << nbits));
        const auto ann = gf2::annihilator(basis, nbits);
        EXPECT_EQ(ann.size(), nbits - basis.rank());
        for (std::uint64_t m : ann)
            for (std::uint64_t v : basis.rows())
                EXPECT_EQ(__builtin_popcountll(m & v) & 1, 0)
                    << "mask not orthogonal to span";
        // The annihilator masks are linearly independent.
        gf2::BitBasis check;
        for (std::uint64_t m : ann)
            EXPECT_TRUE(check.insert(m));
    }
}

// ------------------------------------------------- MappingSpec grammar

TEST(MappingSpec, ParseAcceptTable)
{
    // (input, canonical spelling) — pinned: these strings are the CLI
    // and CSV surface, so regressions here break user configs.
    const std::pair<const char *, const char *> accept[] = {
        {"row-interleaved", "row-interleaved"},
        {"bank-first", "bank-first"},
        {"channel-last", "channel-last"},
        // A field order equal to a preset canonicalizes onto it.
        {"order:col,bg,ba,ra,row,ch", "row-interleaved"},
        {"order:bg,ba,ra,col,row,ch", "bank-first"},
        {"order:ba,col,ra,bg,row,ch", "order:ba,col,ra,bg,row,ch"},
        // Ranges expand; terms keep their output-bit (LSB-first) order.
        {"xor:col=6:8", "xor:col=6,7,8"},
        {"xor:bg=13+19,14,15", "xor:bg=13+19,14,15"},
        // Field order in the text is canonical, not as written.
        {"xor:row=19:20;col=6:7", "xor:col=6,7;row=19,20"},
        // An omitted or empty field is zero-width.
        {"xor:ch=;col=6", "xor:col=6"},
    };
    for (const auto &[input, canonical] : accept) {
        MappingSpec spec;
        std::string error;
        ASSERT_TRUE(MappingSpec::tryParse(input, &spec, &error))
            << input << ": " << error;
        EXPECT_EQ(spec.str(), canonical) << input;
        // Canonical spellings are stable round trips.
        MappingSpec again;
        ASSERT_TRUE(MappingSpec::tryParse(spec.str(), &again, &error))
            << spec.str() << ": " << error;
        EXPECT_EQ(spec, again) << input;
    }
}

TEST(MappingSpec, ParseRejectTable)
{
    // (input, error fragment) — the messages are user-facing CLI
    // output; pin the discriminating fragment of each.
    const std::pair<const char *, const char *> reject[] = {
        {"bogus", "unknown mapping"},
        {"", "unknown mapping"},
        {"order:col,bg", "needs all 6"},
        {"order:col,col,ba,ra,row,ch", "duplicate field"},
        {"order:col,bg,ba,ra,row,zz", "unknown field"},
        {"xor:", "empty xor: spec"},
        {"xor:zz=6", "unknown field"},
        {"xor:col", "no '='"},
        {"xor:col=6;col=7", "duplicate field"},
        {"xor:col=5", "cache line"},
        {"xor:col=64", "out of the 64-bit address range"},
        {"xor:col=abc", "expected a physical bit index"},
        {"xor:col=6+6", "appears twice"},
        {"xor:col=12:6", "descending range"},
        {"xor:col=6,", "expected a physical bit index"},
    };
    for (const auto &[input, fragment] : reject) {
        MappingSpec spec;
        std::string error;
        EXPECT_FALSE(MappingSpec::tryParse(input, &spec, &error))
            << input;
        EXPECT_NE(error.find(fragment), std::string::npos)
            << input << " -> \"" << error << '"';
    }
}

TEST(MappingSpec, EqualityIsCanonicalText)
{
    const MappingSpec preset(MappingPreset::kRowInterleaved);
    EXPECT_EQ(preset, MappingSpec::parse("order:col,bg,ba,ra,row,ch"));
    // A preset never equals the xor: spelling of the same function —
    // sweep axes distinguish the two deliberately.
    const MappingFunction fn(Organization{}, 1, preset);
    EXPECT_NE(preset, fn.asXorSpec());
    EXPECT_EQ(fn.asXorSpec(),
              MappingSpec::parse(fn.asXorSpec().str()));
}

// --------------------------------------------------- MappingFunction

TEST(MappingFunction, PresetsMatchTheirXorRespelling)
{
    Organization org;
    for (MappingPreset preset : leaky::dram::kAllMappingPresets) {
        for (std::uint32_t channels : {1u, 2u}) {
            const MappingFunction fn(org, channels, preset);
            // Every preset is a pure bit permutation...
            for (std::size_t i = 0; i < kNumFields; ++i) {
                const auto f = static_cast<Field>(i);
                for (std::uint32_t j = 0; j < fn.fieldWidth(f); ++j)
                    EXPECT_EQ(
                        __builtin_popcountll(fn.outputMask(f, j)), 1);
            }
            // ...and its explicit xor: respelling decodes identically.
            const MappingFunction xor_fn(org, channels, fn.asXorSpec());
            leaky::sim::Rng rng(17 * channels);
            for (int i = 0; i < 200; ++i) {
                const std::uint64_t line =
                    rng.below(std::uint64_t{1} << fn.totalBits());
                const Address a = fn.decodeLine(line);
                const Address b = xor_fn.decodeLine(line);
                EXPECT_TRUE(a.sameRow(b));
                EXPECT_EQ(a.column, b.column);
                EXPECT_EQ(a.channel, b.channel);
            }
        }
    }
}

/** Apply @p ops random GF(2) row operations (add output row k to
 *  output row j) to a permutation matrix — each op is elementary, so
 *  the result is a uniform-ish random sample of invertible mappings
 *  reachable from the preset. */
std::array<std::vector<std::uint64_t>, kNumFields>
randomInvertibleMasks(const MappingFunction &base, leaky::sim::Rng &rng,
                      int ops)
{
    std::array<std::vector<std::uint64_t>, kNumFields> masks{};
    for (std::size_t i = 0; i < kNumFields; ++i)
        masks[i] = base.fieldMasks(static_cast<Field>(i));
    std::vector<std::pair<std::size_t, std::size_t>> rows;
    for (std::size_t i = 0; i < kNumFields; ++i)
        for (std::size_t j = 0; j < masks[i].size(); ++j)
            rows.push_back({i, j});
    for (int op = 0; op < ops; ++op) {
        const auto &dst = rows[rng.below(rows.size())];
        const auto &src = rows[rng.below(rows.size())];
        if (dst == src)
            continue;
        masks[dst.first][dst.second] ^= masks[src.first][src.second];
    }
    return masks;
}

TEST(MappingFunction, RandomInvertibleMatricesRoundTrip)
{
    Organization org;
    leaky::sim::Rng rng(2026);
    const MappingFunction base(org, 2, MappingPreset::kRowInterleaved);
    for (int trial = 0; trial < 20; ++trial) {
        const auto masks = randomInvertibleMasks(base, rng, 40);
        const MappingFunction fn(org, 2,
                                 MappingSpec::fromMasks(masks));
        for (int i = 0; i < 100; ++i) {
            // decode(compose(x)) == x...
            Address addr;
            addr.channel = static_cast<std::uint32_t>(rng.below(2));
            addr.rank =
                static_cast<std::uint32_t>(rng.below(org.ranks));
            addr.bankgroup =
                static_cast<std::uint32_t>(rng.below(org.bankgroups));
            addr.bank = static_cast<std::uint32_t>(
                rng.below(org.banks_per_group));
            addr.row = static_cast<std::uint32_t>(rng.below(org.rows));
            addr.column =
                static_cast<std::uint32_t>(rng.below(org.columns));
            const Address back = fn.decode(fn.compose(addr));
            EXPECT_TRUE(back.sameRow(addr));
            EXPECT_EQ(back.column, addr.column);
            EXPECT_EQ(back.channel, addr.channel);
            // ...and compose(decode(line)) == line.
            const std::uint64_t line =
                rng.below(std::uint64_t{1} << fn.totalBits());
            EXPECT_EQ(fn.composeLine(fn.decodeLine(line)), line);
        }
    }
}

TEST(MappingFunction, BothComposePathsInvertDecode)
{
    // composeLine ORs each digit in at its shift when every field is
    // plain (order: and presets) and solves the inverse parity rows
    // otherwise (an xor: folding row bits into bank bits); pin both.
    Organization org;
    for (const char *text :
         {"order:ba,col,ra,bg,row,ch",
          "xor:col=6:12;bg=13+19,14+20,15+21;ba=16+22,17+23;ra=18;"
          "row=19:35;ch=36+6"}) {
        SCOPED_TRACE(text);
        const MappingFunction fn(org, 2, MappingSpec::parse(text));
        leaky::sim::Rng rng(99);
        for (int i = 0; i < 10'000; ++i) {
            const std::uint64_t line =
                rng.below(std::uint64_t{1} << fn.totalBits());
            ASSERT_EQ(fn.composeLine(fn.decodeLine(line)), line);

            Address addr;
            addr.channel = static_cast<std::uint32_t>(rng.below(2));
            addr.rank = static_cast<std::uint32_t>(rng.below(org.ranks));
            addr.bankgroup =
                static_cast<std::uint32_t>(rng.below(org.bankgroups));
            addr.bank = static_cast<std::uint32_t>(
                rng.below(org.banks_per_group));
            addr.row = static_cast<std::uint32_t>(rng.below(org.rows));
            addr.column =
                static_cast<std::uint32_t>(rng.below(org.columns));
            const Address back = fn.decodeLine(fn.composeLine(addr));
            ASSERT_TRUE(back.sameRow(addr));
            ASSERT_EQ(back.column, addr.column);
        }
    }
}

TEST(MappingFunctionDeath, RejectsNonInvertibleSpecs)
{
    Organization org;
    // ra reuses physical bit 13 (bg's) and line bit 18 goes unused:
    // two physical lines would alias onto one DRAM cell.
    EXPECT_DEATH(
        MappingFunction(
            org, 1,
            MappingSpec::parse(
                "xor:col=6:12;bg=13,14,15;ba=16,17;ra=13;row=19:35")),
        "not invertible");
}

TEST(MappingFunctionDeath, RejectsWrongFieldWidths)
{
    Organization org; // bankgroups = 8 needs 3 bg output bits.
    EXPECT_DEATH(
        MappingFunction(
            org, 1,
            MappingSpec::parse(
                "xor:col=6:12;bg=13,14;ba=16,17;ra=18;row=19:35")),
        "defines 2 output bits");
}

TEST(MappingFunctionDeath, RejectsInputBitsOutsideTheMappedRange)
{
    Organization org; // 1 channel: physical bits 6..35 are mapped.
    EXPECT_DEATH(
        MappingFunction(
            org, 1,
            MappingSpec::parse(
                "xor:col=6:12;bg=13,14,40;ba=16,17;ra=18;row=19:35")),
        "outside the mapped range");
}

} // namespace
