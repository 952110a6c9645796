/** @file Smoke tests of the core experiment runners (small sizes). */

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "core/report.hh"
#include "runner/figures_internal.hh"

namespace {

using namespace leaky;

TEST(Experiments, PracAttackSystemUsesPaperOperatingPoint)
{
    const auto cfg = core::attackSystem(defense::DefenseKind::kPrac);
    EXPECT_EQ(cfg.defense.kind, defense::DefenseKind::kPrac);
    EXPECT_EQ(cfg.defense.nbo_override, 128u);
    EXPECT_EQ(cfg.defense.rfms_per_backoff, 4u);
    const auto prfm = core::attackSystem(defense::DefenseKind::kPrfm);
    EXPECT_EQ(prfm.defense.kind, defense::DefenseKind::kPrfm);
    EXPECT_EQ(prfm.defense.trfm_override, 40u);
}

TEST(Experiments, LatencyTraceSeparatesBands)
{
    const auto result = core::runLatencyTrace(300);
    EXPECT_EQ(result.samples.size(), 300u);
    EXPECT_GT(result.mean_backoff_latency_ns,
              result.mean_refresh_latency_ns);
    EXPECT_GT(result.mean_refresh_latency_ns,
              result.mean_conflict_latency_ns);
}

TEST(Experiments, ChannelRunProducesMetrics)
{
    core::ChannelRunSpec spec;
    spec.kind = attack::ChannelKind::kPrac;
    spec.message_bytes = 4;
    spec.pattern = attack::MessagePattern::kCheckered0;
    const auto result = core::runChannel(spec);
    EXPECT_EQ(result.sent.size(), 32u);
    EXPECT_EQ(result.received.size(), 32u);
    EXPECT_LE(result.symbol_error, 0.05);
    EXPECT_GT(result.capacity, 30'000.0);
}

TEST(Experiments, OnePairAggregateMatchesRunChannel)
{
    // The channel-scaling job's one-channel cell is runChannel's
    // default PRAC cell (NBO = 128, channel 0): both transmit through
    // the same channelConfig and runCovertChannel path.
    runner::RunOptions opts;
    opts.smoke = true;
    const auto spec = runner::findFigure("channel-scaling")->make(opts);
    std::size_t checked = 0;
    for (const auto &job : runner::expandJobs(spec)) {
        if (job.param("channels") != 1)
            continue;
        checked += 1;
        const auto rows = spec.job(job);
        ASSERT_EQ(rows.size(), 1u);
        const auto &row = rows[0];

        core::ChannelRunSpec run;
        run.pattern = static_cast<attack::MessagePattern>(
            static_cast<int>(job.param("pattern")));
        run.message_bytes = 4; // The figure's smoke-scale payload.
        run.seed = job.seed;
        const auto single = core::runChannel(run);
        EXPECT_EQ(row[2], single.raw_bit_rate);
        EXPECT_EQ(row[3], single.symbol_error);
        EXPECT_EQ(row[4], single.capacity);
        EXPECT_GT(single.backoffs, 0u);
    }
    EXPECT_GT(checked, 0u);
}

TEST(Experiments, NoDefenseCellIsExactlyUnityAtAnyNrh)
{
    // The Fig. 13 sweep computes each mix's baseline once and reuses
    // it for every NRH; that is sound only if an undefended run
    // ignores NRH and the baseline is deterministic.
    const auto mix = workload::makeMixes(1, 4, 42)[0];
    const auto base = core::perfBaseline(mix, 10'000);
    for (std::uint32_t nrh : {1024u, 64u})
        EXPECT_EQ(core::normalizedWs(defense::DefenseKind::kNone, nrh, mix,
                                     base, 10'000),
                  1.0)
            << "nrh=" << nrh;
}

TEST(Experiments, PerfBaselineSharesItsTraces)
{
    // A mix's traces are generated once, through the paper mapping,
    // and every cell replays them read-only.
    const auto mix = workload::makeMixes(1, 4, 42)[0];
    const auto base = core::perfBaseline(mix, 10'000);
    const auto cfg = sys::SystemConfig::paper(defense::DefenseKind::kNone);
    const dram::AddressMapper mapper(cfg.ctrl.dram.org, cfg.channels,
                                     cfg.mapping);
    EXPECT_EQ(base.mapping, cfg.mapping);
    ASSERT_EQ(base.traces.size(), mix.apps.size());
    for (std::size_t a = 0; a < mix.apps.size(); ++a) {
        const auto want = workload::generateTrace(mix.apps[a], mapper,
                                                  40'000);
        const auto &got = *base.traces[a];
        ASSERT_EQ(got.size(), want.size()) << mix.apps[a].name;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].addr, want[i].addr) << "record " << i;
            ASSERT_EQ(got[i].non_mem_insts, want[i].non_mem_insts);
            ASSERT_EQ(got[i].is_write, want[i].is_write);
        }
    }
    const auto cell = [&] {
        return core::normalizedWs(defense::DefenseKind::kPrac, 64, mix,
                                  base, 10'000);
    };
    EXPECT_EQ(cell(), cell());
    for (const auto &trace : base.traces)
        EXPECT_EQ(trace.use_count(), 1); // No cell kept or copied it.
}

TEST(Experiments, DefenseCostsPerformanceAtLowNrh)
{
    const auto mixes = workload::makeMixes(2, 4, 42);
    std::vector<core::PerfBaseline> bases;
    for (const auto &mix : mixes)
        bases.push_back(core::perfBaseline(mix, 50'000));
    const auto meanWs = [&](std::uint32_t nrh) {
        double total = 0.0;
        for (std::size_t m = 0; m < mixes.size(); ++m)
            total += core::normalizedWs(defense::DefenseKind::kPrac, nrh,
                                        mixes[m], bases[m], 50'000);
        return total / static_cast<double>(mixes.size());
    };
    const double high_nrh = meanWs(1024);
    const double low_nrh = meanWs(64);
    EXPECT_GT(high_nrh, low_nrh);
    EXPECT_LE(high_nrh, 1.01);
}

TEST(Experiments, FingerprintDatasetShapes)
{
    core::FingerprintSpec spec;
    spec.sites = 3;
    spec.loads_per_site = 2;
    spec.duration = sim::kMs;
    const auto rows = runner::runSweep(runner::collectionSpec(spec), 1);
    ASSERT_EQ(rows.rows.size(), 6u);
    const auto data = runner::datasetFromRows(rows);
    EXPECT_EQ(data.size(), 6u);
    EXPECT_EQ(data.n_classes, 3);
    EXPECT_EQ(data.features(), 39u);
}

TEST(Report, TableRendersAlignedAndCsv)
{
    core::Table table({"a", "bb"});
    table.addRow({"1", "2"});
    table.addRow({"333", "4"});
    const auto text = table.str();
    EXPECT_NE(text.find("a    bb"), std::string::npos);
    EXPECT_EQ(table.csv(), "a,bb\n1,2\n333,4\n");
}

TEST(Report, Formatting)
{
    EXPECT_EQ(core::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(core::fmtKbps(39'000.0), "39.0 Kbps");
    EXPECT_EQ(core::sparkline({0.0, 1.0}).size(), 2u);
}

} // namespace
