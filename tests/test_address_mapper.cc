/** @file AddressMapper tests: decode/compose round trips, field order. */

#include <gtest/gtest.h>

#include "dram/address_mapper.hh"
#include "sim/rng.hh"

namespace {

using leaky::dram::Address;
using leaky::dram::AddressMapper;
using leaky::dram::Field;
using leaky::dram::Organization;

TEST(AddressMapper, CapacityMatchesGeometry)
{
    Organization org;
    AddressMapper mapper(org, 1);
    const std::uint64_t expected = 64ull * org.columns * org.bankgroups *
                                   org.banks_per_group * org.ranks *
                                   org.rows;
    EXPECT_EQ(mapper.capacityBytes(), expected);
}

TEST(AddressMapper, ConsecutiveLinesWalkColumnsFirst)
{
    Organization org;
    AddressMapper mapper(org, 1);
    const auto a0 = mapper.decode(0);
    const auto a1 = mapper.decode(64);
    EXPECT_EQ(a0.column + 1, a1.column);
    EXPECT_TRUE(a0.sameBank(a1));
    EXPECT_EQ(a0.row, a1.row);
}

TEST(AddressMapper, OffsetWithinLineIgnored)
{
    Organization org;
    AddressMapper mapper(org, 1);
    const auto a = mapper.decode(4096);
    const auto b = mapper.decode(4096 + 63);
    EXPECT_TRUE(a.sameRow(b));
    EXPECT_EQ(a.column, b.column);
}

TEST(AddressMapper, ComposeDecodesBack)
{
    Organization org;
    AddressMapper mapper(org, 2);
    Address addr;
    addr.channel = 1;
    addr.rank = 1;
    addr.bankgroup = 5;
    addr.bank = 2;
    addr.row = 70'000;
    addr.column = 99;
    const auto phys = mapper.compose(addr);
    const auto back = mapper.decode(phys);
    EXPECT_EQ(back.channel, addr.channel);
    EXPECT_EQ(back.rank, addr.rank);
    EXPECT_EQ(back.bankgroup, addr.bankgroup);
    EXPECT_EQ(back.bank, addr.bank);
    EXPECT_EQ(back.row, addr.row);
    EXPECT_EQ(back.column, addr.column);
}

TEST(AddressMapperDeath, ComposeRejectsOutOfRangeFields)
{
    Organization org;
    AddressMapper mapper(org, 1);
    Address addr;
    addr.bankgroup = org.bankgroups; // One past the end.
    EXPECT_DEATH(mapper.compose(addr), "out of range");
}

TEST(AddressMapperDeath, RejectsNonPermutationOrders)
{
    Organization org;
    // kRow duplicated, kColumn missing: before validation this built a
    // mapper whose decode/compose round trips silently corrupted.
    EXPECT_DEATH(AddressMapper(org, 1,
                               leaky::dram::MappingSpec::fieldOrder(
                                   {Field::kRow, Field::kBankGroup,
                                    Field::kBank, Field::kRank,
                                    Field::kRow, Field::kChannel})),
                 "permutation");
}

TEST(AddressMapper, PresetOrdersArePermutations)
{
    Organization org;
    for (auto preset : leaky::dram::kAllMappingPresets) {
        // Construction validates the order; capacity is preset-
        // independent (a permutation never changes the field product).
        AddressMapper mapper(org, 4, preset);
        AddressMapper reference(org, 4);
        EXPECT_EQ(mapper.capacityBytes(), reference.capacityBytes())
            << leaky::dram::presetName(preset);
    }
}

TEST(AddressMapper, PresetNamesAreStable)
{
    using leaky::dram::MappingPreset;
    using leaky::dram::presetName;
    EXPECT_STREQ(presetName(MappingPreset::kRowInterleaved),
                 "row-interleaved");
    EXPECT_STREQ(presetName(MappingPreset::kBankFirst), "bank-first");
    EXPECT_STREQ(presetName(MappingPreset::kChannelLast),
                 "channel-last");
}

TEST(AddressMapper, BankFirstStripesConsecutiveLinesAcrossBanks)
{
    Organization org;
    AddressMapper mapper(org, 1,
                         leaky::dram::MappingPreset::kBankFirst);
    const auto a0 = mapper.decode(0);
    const auto a1 = mapper.decode(64);
    EXPECT_FALSE(a0.sameBank(a1)); // Bank fields at the LSB end.
    EXPECT_EQ(a0.column, a1.column);
}

/** Property: every preset round-trips random coordinates at any
 *  channel count. */
TEST(AddressMapper, PresetsRoundTripRandomCoordinates)
{
    Organization org;
    for (auto preset : leaky::dram::kAllMappingPresets) {
        for (std::uint32_t channels : {1u, 2u, 4u}) {
            AddressMapper mapper(org, channels, preset);
            leaky::sim::Rng rng(channels * 7 +
                                static_cast<std::uint32_t>(preset));
            for (int i = 0; i < 200; ++i) {
                Address addr;
                addr.channel =
                    static_cast<std::uint32_t>(rng.below(channels));
                addr.rank =
                    static_cast<std::uint32_t>(rng.below(org.ranks));
                addr.bankgroup = static_cast<std::uint32_t>(
                    rng.below(org.bankgroups));
                addr.bank = static_cast<std::uint32_t>(
                    rng.below(org.banks_per_group));
                addr.row =
                    static_cast<std::uint32_t>(rng.below(org.rows));
                addr.column =
                    static_cast<std::uint32_t>(rng.below(org.columns));
                const auto back = mapper.decode(mapper.compose(addr));
                EXPECT_TRUE(back.sameRow(addr));
                EXPECT_EQ(back.column, addr.column);
                EXPECT_EQ(back.channel, addr.channel);
            }
        }
    }
}

/** Property: decode(compose(x)) == x for random x under any channel
 *  count. */
class MapperRoundTrip : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MapperRoundTrip, RandomRoundTrips)
{
    Organization org;
    const auto channels = GetParam();
    AddressMapper mapper(org, channels);
    leaky::sim::Rng rng(channels);
    for (int i = 0; i < 500; ++i) {
        Address addr;
        addr.channel = static_cast<std::uint32_t>(rng.below(channels));
        addr.rank = static_cast<std::uint32_t>(rng.below(org.ranks));
        addr.bankgroup =
            static_cast<std::uint32_t>(rng.below(org.bankgroups));
        addr.bank =
            static_cast<std::uint32_t>(rng.below(org.banks_per_group));
        addr.row = static_cast<std::uint32_t>(rng.below(org.rows));
        addr.column = static_cast<std::uint32_t>(rng.below(org.columns));
        const auto back = mapper.decode(mapper.compose(addr));
        EXPECT_TRUE(back.sameRow(addr));
        EXPECT_EQ(back.column, addr.column);
        EXPECT_EQ(back.channel, addr.channel);
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, MapperRoundTrip,
                         ::testing::Values(1, 2, 4));

TEST(AddressMapper, AlternativeFieldOrderStillRoundTrips)
{
    Organization org;
    AddressMapper mapper(org, 1,
                         leaky::dram::MappingSpec::fieldOrder(
                             {Field::kBank, Field::kColumn, Field::kRank,
                              Field::kBankGroup, Field::kRow,
                              Field::kChannel}));
    Address addr;
    addr.rank = 1;
    addr.bankgroup = 3;
    addr.bank = 1;
    addr.row = 1234;
    addr.column = 17;
    const auto back = mapper.decode(mapper.compose(addr));
    EXPECT_TRUE(back.sameRow(addr));
    EXPECT_EQ(back.column, addr.column);
}

/** fieldOrder canonicalizes a preset-equal order onto the preset, and
 *  the canonical mapper still round-trips decode -> compose. */
TEST(AddressMapper, FieldOrderSpecCanonicalizesPresetOrder)
{
    Organization org;
    AddressMapper mapper(org, 2,
                         leaky::dram::MappingSpec::fieldOrder(
                             {Field::kBankGroup, Field::kBank, Field::kRank,
                              Field::kColumn, Field::kRow,
                              Field::kChannel}));
    EXPECT_EQ(mapper.spec().str(), "bank-first");
    for (std::uint64_t phys : {0ull, 64ull, 4096ull, 987654321ull})
        EXPECT_EQ(mapper.compose(mapper.decode(phys)), phys & ~63ull);
}

} // namespace
