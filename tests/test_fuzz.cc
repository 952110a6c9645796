/**
 * @file
 * Pattern-fuzzer property suite (src/fuzz): grammar accept/reject
 * table with pinned error fragments (mirroring test_mapping.cc),
 * serialize -> parse -> replay round trips, seeded stream determinism
 * (same FuzzParams seed => byte-identical serialized pattern stream),
 * campaign determinism, the discovered-beats-baseline acceptance pin,
 * the fuzz cell replaying the cross-defense figure's cell, and a
 * zero-allocation steady state for the fuzz hot loop.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hh"
#include "fuzz/builder.hh"
#include "fuzz/campaign.hh"
#include "fuzz/pattern.hh"
#include "fuzz/replay.hh"
#include "testing_alloc_counter.hh"

namespace {

using namespace leaky;
using fuzz::Aggressor;
using fuzz::FuzzParams;
using fuzz::HammerPattern;
using fuzz::PatternBuilder;

// ------------------------------------------------------------ grammar

TEST(HammerPatternGrammar, AcceptTableAndCanonicalRoundTrip)
{
    // (input, canonical str()) — non-canonical inputs (no gap, fields
    // reordered) parse and re-render canonically; canonical inputs are
    // fixed points.
    const std::pair<const char *, const char *> accept[] = {
        {"hp1:period=1;gap=0;agg=0@1/0x1",
         "hp1:period=1;gap=0;agg=0@1/0x1"},
        {"hp1:period=2;agg=0@1/0x1",
         "hp1:period=2;gap=0;agg=0@1/0x1"},
        {"hp1:gap=500;period=4;agg=3@2/1x2",
         "hp1:period=4;gap=500;agg=3@2/1x2"},
        {"hp1:period=2;gap=0;agg=0@1/0x1;agg=1@1/1x1",
         "hp1:period=2;gap=0;agg=0@1/0x1;agg=1@1/1x1"},
        {"hp1:period=8;agg=0@4/1x3;agg=0@4/1x3", // Duplicate tuples OK.
         "hp1:period=8;gap=0;agg=0@4/1x3;agg=0@4/1x3"},
        {"hp1:period=256;gap=1000000;agg=31@256/0x16",
         "hp1:period=256;gap=1000000;agg=31@256/0x16"},
    };
    for (const auto &[input, canonical] : accept) {
        HammerPattern pattern;
        std::string error;
        ASSERT_TRUE(HammerPattern::tryParse(input, &pattern, &error))
            << input << ": " << error;
        EXPECT_EQ(pattern.str(), canonical) << input;

        // parse(str()) is the identity on the parsed value.
        HammerPattern again;
        ASSERT_TRUE(
            HammerPattern::tryParse(pattern.str(), &again, &error))
            << pattern.str() << ": " << error;
        EXPECT_EQ(again, pattern) << input;
        EXPECT_EQ(again.str(), canonical) << input;
    }
}

TEST(HammerPatternGrammar, RejectTablePinsErrorFragments)
{
    // (input, pinned fragment of the user-facing error).
    const std::pair<const char *, const char *> reject[] = {
        {"", "unknown pattern grammar"},
        {"hp2:period=1;agg=0@1/0x1", "unknown pattern grammar"},
        {"hp1:", "has no '='"},
        {"hp1:period", "has no '='"},
        {"hp1:period=1;agg=0@1/0x1;", "has no '='"},
        {"hp1:agg=0@1/0x1", "pattern needs a period"},
        {"hp1:period=0;agg=0@1/0x1", "period out of range (1..256)"},
        {"hp1:period=257;agg=0@1/0x1", "period out of range (1..256)"},
        {"hp1:period=1", "needs at least one aggressor"},
        {"hp1:period=1;gap=1000001;agg=0@1/0x1",
         "gap out of range (0..1000000 ticks)"},
        {"hp1:period=1;period=2;agg=0@1/0x1", "duplicate field 'period'"},
        {"hp1:period=1;gap=0;gap=0;agg=0@1/0x1",
         "duplicate field 'gap'"},
        {"hp1:period=1;bogus=3;agg=0@1/0x1", "unknown field 'bogus'"},
        {"hp1:period=x;agg=0@1/0x1",
         "expected an unsigned integer, got 'x'"},
        {"hp1:period=;agg=0@1/0x1",
         "expected an unsigned integer, got ''"},
        {"hp1:period=99999999999999;agg=0@1/0x1", "value out of range"},
        {"hp1:period=1;agg=0@1/0", "malformed aggressor"},
        {"hp1:period=1;agg=0-1-0-1", "malformed aggressor"},
        {"hp1:period=1;agg=32@1/0x1", "row index out of range (0..31)"},
        {"hp1:period=1;agg=0@0/0x1", "frequency must be positive"},
        {"hp1:period=4;agg=0@3/0x1",
         "frequency must divide the period (3 vs 4)"},
        {"hp1:period=4;agg=0@2/2x1",
         "phase must be below period/frequency (2 vs 2)"},
        {"hp1:period=1;agg=0@1/0x0", "amplitude out of range (1..16)"},
        {"hp1:period=1;agg=0@1/0x17", "amplitude out of range (1..16)"},
        {"hp1:period=256;agg=0@256/0x16;agg=1@256/0x1",
         "pattern too dense (> 4096 accesses per period)"},
    };
    for (const auto &[input, fragment] : reject) {
        HammerPattern pattern;
        std::string error;
        EXPECT_FALSE(HammerPattern::tryParse(input, &pattern, &error))
            << input;
        EXPECT_NE(error.find(fragment), std::string::npos)
            << input << " -> " << error;
    }
}

TEST(HammerPatternGrammar, TooManyAggressorsRejected)
{
    std::string text = "hp1:period=1";
    for (int i = 0; i < 17; ++i)
        text += ";agg=0@1/0x1";
    HammerPattern pattern;
    std::string error;
    EXPECT_FALSE(HammerPattern::tryParse(text, &pattern, &error));
    EXPECT_NE(error.find("too many aggressors (max 16)"),
              std::string::npos)
        << error;
}

TEST(HammerPattern, ExpandFollowsFrequencyPhaseAmplitude)
{
    // Period 4: row 0 every slot, row 1 at slots 1 and 3 (freq 2,
    // phase 1) doubled, row 2 once at slot 2.
    const auto p = HammerPattern::parse(
        "hp1:period=4;agg=0@4/0x1;agg=1@2/1x2;agg=2@1/2x1");
    EXPECT_EQ(p.rowCount(), 3u);
    EXPECT_EQ(p.accessesPerPeriod(), 4u + 4u + 1u);
    const std::vector<std::uint32_t> want = {0, 0, 1, 1, 0, 2, 0, 1, 1};
    EXPECT_EQ(p.expand(), want);
}

// ------------------------------------------- seeded stream properties

std::string
serializedStream(const FuzzParams &params, std::size_t count)
{
    PatternBuilder builder(params);
    std::string stream;
    for (std::size_t i = 0; i < count; ++i)
        stream += builder.generate(i).str() + "\n";
    return stream;
}

TEST(PatternBuilder, SameSeedSameByteStream)
{
    FuzzParams params;
    params.seed = 42;
    EXPECT_EQ(serializedStream(params, 64), serializedStream(params, 64));

    FuzzParams other = params;
    other.seed = 43;
    EXPECT_NE(serializedStream(params, 64), serializedStream(other, 64));
}

TEST(PatternBuilder, GeneratedPatternsAreValidAndRoundTrip)
{
    FuzzParams params;
    params.seed = 7;
    PatternBuilder builder(params);
    std::string error;
    for (std::size_t i = 0; i < 128; ++i) {
        const HammerPattern p = builder.generate(i);
        ASSERT_TRUE(p.validate(&error)) << i << ": " << error;
        EXPECT_EQ(HammerPattern::parse(p.str()), p) << i;
    }
}

TEST(PatternBuilder, GenerationIsRandomAccess)
{
    // Pattern #i only depends on (seed, i), not on what was generated
    // before — required for resumable/sharded searches.
    FuzzParams params;
    params.seed = 9;
    PatternBuilder builder(params);
    const HammerPattern p40 = builder.generate(40);
    for (std::size_t i = 0; i < 8; ++i)
        (void)builder.generate(i);
    EXPECT_EQ(builder.generate(40), p40);
}

TEST(PatternBuilder, MutationIsDeterministicAndValid)
{
    FuzzParams params;
    params.seed = 11;
    PatternBuilder builder(params);
    const HammerPattern src = builder.generate(0);
    std::string error;
    HammerPattern a, b;
    for (std::size_t i = 0; i < 64; ++i) {
        builder.mutateInto(src, i, &a);
        builder.mutateInto(src, i, &b);
        EXPECT_EQ(a, b) << i;
        ASSERT_TRUE(a.validate(&error)) << i << ": " << error;
    }
}

// --------------------------------------------------- replay round trip

TEST(Replayer, SerializedPatternReplaysByteIdentical)
{
    // serialize -> parse -> replay must produce the same CSV cells as
    // replaying the in-memory pattern: the serialization carries ALL
    // evaluation-relevant state.
    const HammerPattern original =
        HammerPattern::parse("hp1:period=2;gap=15000;agg=0@1/0x1;"
                             "agg=1@2/0x2");
    fuzz::EvalSpec spec;
    spec.defense = defense::DefenseKind::kGraphene;
    spec.message_bytes = 2;
    spec.seed = fuzz::evalSeedFor(1, spec.defense);

    const std::vector<double> direct = fuzz::replayRow(original, spec);
    const std::vector<double> reparsed =
        fuzz::replaySerialized(original.str(), spec);
    ASSERT_EQ(direct.size(), 5u);
    // Exact double equality, not tolerance: same pattern, same seed,
    // same cell => bit-identical simulation.
    EXPECT_EQ(direct, reparsed);
}

TEST(Replayer, CatalogueEntriesAreCanonicalAndOrdered)
{
    const auto &catalogue = fuzz::replayCatalogue();
    ASSERT_GE(catalogue.size(), 5u);
    std::set<std::string> names;
    bool seen_discovered = false;
    for (const auto &entry : catalogue) {
        EXPECT_TRUE(names.insert(entry.name).second) << entry.name;
        // Pinned texts parse, validate, and are canonical spellings.
        EXPECT_EQ(HammerPattern::parse(entry.text).str(), entry.text)
            << entry.name;
        // Baselines first, discoveries after (the figure's axis order).
        if (entry.discovered)
            seen_discovered = true;
        else
            EXPECT_FALSE(seen_discovered)
                << "baseline after discovered: " << entry.name;
    }
    EXPECT_TRUE(seen_discovered);
}

// ------------------------------------------------- campaign machinery

TEST(Campaign, SevenDefensesCovered)
{
    const auto &kinds = fuzz::campaignDefenses();
    EXPECT_EQ(kinds.size(), 7u);
    const std::set<defense::DefenseKind> unique(kinds.begin(),
                                                kinds.end());
    EXPECT_EQ(unique.size(), kinds.size());
    EXPECT_TRUE(unique.count(defense::DefenseKind::kGraphene));
    EXPECT_TRUE(unique.count(defense::DefenseKind::kHydra));
}

TEST(Campaign, RunsAreDeterministic)
{
    fuzz::CampaignConfig cfg;
    cfg.defense = defense::DefenseKind::kGraphene;
    cfg.population = 3;
    cfg.generations = 2;
    cfg.elites = 1;
    cfg.message_bytes = 2;
    cfg.params.seed = 5;
    cfg.eval_seed = fuzz::evalSeedFor(5, cfg.defense);

    const fuzz::CampaignResult a = fuzz::runCampaign(cfg);
    const fuzz::CampaignResult b = fuzz::runCampaign(cfg);
    ASSERT_EQ(a.stats.size(), 2u);
    ASSERT_EQ(b.stats.size(), 2u);
    for (std::size_t g = 0; g < a.stats.size(); ++g) {
        EXPECT_EQ(a.stats[g].generation, b.stats[g].generation);
        EXPECT_EQ(a.stats[g].best_score, b.stats[g].best_score);
        EXPECT_EQ(a.stats[g].mean_score, b.stats[g].mean_score);
    }
    EXPECT_EQ(a.best.pattern, b.best.pattern);
    EXPECT_EQ(a.best.score, b.best.score);
    // Elitism: the best score never degrades across generations.
    EXPECT_GE(a.stats[1].best_score, a.stats[0].best_score);
}

// ------------------------------------ acceptance: fuzzer beats baseline

TEST(Campaign, DiscoveredPatternBeatsEveryBaselineAgainstGraphene)
{
    // The pinned fuzz-graphene discovery achieves STRICTLY higher
    // covert capacity than every hand-written baseline against the
    // Graphene tracker at smoke scale — same cells as the fuzz-replay
    // figure (shared evalSeedFor rule, default base seed 1).
    fuzz::EvalSpec spec;
    spec.defense = defense::DefenseKind::kGraphene;
    spec.message_bytes = 4; // Smoke scale.
    spec.seed = fuzz::evalSeedFor(1, spec.defense);

    double best_baseline = 0.0;
    double discovered = 0.0;
    for (const auto &entry : fuzz::replayCatalogue()) {
        if (!entry.discovered) {
            const auto r = fuzz::evaluatePattern(
                HammerPattern::parse(entry.text), spec);
            best_baseline = std::max(best_baseline, r.channel.capacity);
        } else if (entry.name == "fuzz-graphene") {
            const auto r = fuzz::evaluatePattern(
                HammerPattern::parse(entry.text), spec);
            discovered = r.channel.capacity;
            EXPECT_EQ(r.channel.symbol_error, 0.0);
        }
    }
    EXPECT_GT(best_baseline, 0.0);
    EXPECT_GT(discovered, best_baseline);
}

// ------------------------------- the fuzz cell is the figure's cell

TEST(Fuzz, SingleRowPatternReplaysCrossDefenseCell)
{
    // The one-aggressor pattern is the stock sender, so the fuzzer's
    // evaluation must reproduce the cross-defense cell exactly: any
    // divergence means the fuzzer searches a different cell than the
    // figure reports.
    HammerPattern single;
    for (const auto &entry : fuzz::replayCatalogue())
        if (entry.name == "single")
            single = HammerPattern::parse(entry.text);
    ASSERT_EQ(single.str(), "hp1:period=1;gap=0;agg=0@1/0x1");

    for (const defense::DefenseKind kind : fuzz::campaignDefenses()) {
        fuzz::EvalSpec spec;
        spec.defense = kind;
        spec.message_bytes = 4;
        spec.seed = 5;
        const attack::ChannelResult fuzzed =
            fuzz::evaluatePattern(single, spec).channel;

        core::ChannelRunSpec run;
        run.kind = core::channelKindFor(kind);
        run.defense = core::attackSystem(kind).defense;
        run.message_bytes = 4;
        run.seed = 5;
        const attack::ChannelResult cell = core::runChannel(run);

        const char *name = defense::defenseName(kind);
        EXPECT_EQ(fuzzed.received, cell.received) << name;
        EXPECT_EQ(fuzzed.backoffs, cell.backoffs) << name;
        EXPECT_EQ(fuzzed.rfms, cell.rfms) << name;
        EXPECT_EQ(fuzzed.targeted_refreshes, cell.targeted_refreshes)
            << name;
        EXPECT_EQ(fuzzed.capacity, cell.capacity) << name;
    }
}

// ------------------------------------------ zero-allocation hot loop

TEST(FuzzHotLoop, MutationExpansionAndScoringAreAllocationFree)
{
    FuzzParams params;
    params.seed = 13;
    PatternBuilder builder(params);
    const HammerPattern src = builder.generate(0);

    HammerPattern scratch;
    scratch.aggressors.reserve(HammerPattern::kMaxAggressors);
    std::vector<std::uint32_t> slots;
    slots.reserve(HammerPattern::kMaxAccesses);

    // A representative scored result (built before the pinned region;
    // scoring itself is pure arithmetic over it).
    attack::ChannelResult result;
    result.sent = {1, 0, 1, 0};
    result.received = {1, 0, 0, 0};
    result.capacity = 40'000.0;
    result.targeted_refreshes = 72;

    auto iterate = [&](std::size_t i) {
        builder.mutateInto(src, i, &scratch);
        scratch.expandInto(&slots);
        return fuzz::scoreResult(result) +
               static_cast<double>(slots.size());
    };

    // Warm up every mutation arm so vectors reach steady capacity.
    double sink = 0.0;
    for (std::size_t i = 0; i < 64; ++i)
        sink += iterate(i);

    const std::uint64_t before = leaky_test_heap_allocs.load();
    for (std::size_t i = 0; i < 512; ++i)
        sink += iterate(i);
    const std::uint64_t after = leaky_test_heap_allocs.load();
    EXPECT_EQ(after, before) << "fuzz hot loop allocated";
    EXPECT_GT(sink, 0.0);
}

} // namespace
