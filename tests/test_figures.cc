/**
 * @file
 * Figure-registry tests: the full paper catalogue is registered (every
 * figure, table, and section study rides the SweepSpec runner), every
 * smoke spec expands to a small, well-formed job list, and a ported
 * figure reproduces end-to-end with bit-identical rows on 1 vs 4
 * threads — the determinism contract CI enforces for the whole
 * registry via ci/smoke_figures.sh.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "runner/figures.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"

namespace {

using namespace leaky;
using runner::RunOptions;

RunOptions
smokeOptions()
{
    RunOptions opts;
    opts.smoke = true;
    return opts;
}

TEST(FigureRegistry, CoversTheFullPaperCatalogue)
{
    const auto &figures = runner::figures();
    // Figs. 2-13, Tables 2-3, and the §6.3/§9-12 studies: at least 20
    // entries once every hand-rolled binary is ported (ISSUE 3).
    EXPECT_GE(figures.size(), 20u);

    std::set<std::string> names, csvs;
    for (const auto &figure : figures) {
        EXPECT_FALSE(figure.name.empty());
        EXPECT_FALSE(figure.title.empty()) << figure.name;
        EXPECT_FALSE(figure.paper_ref.empty()) << figure.name;
        EXPECT_TRUE(figure.make != nullptr) << figure.name;
        // Artifacts follow the fig_*/tab_* naming convention and are
        // unique, so `repro --fig all --out DIR` never overwrites.
        EXPECT_TRUE(figure.csv_name.rfind("fig_", 0) == 0 ||
                    figure.csv_name.rfind("tab_", 0) == 0)
            << figure.csv_name;
        EXPECT_TRUE(names.insert(figure.name).second) << figure.name;
        EXPECT_TRUE(csvs.insert(figure.csv_name).second)
            << figure.csv_name;
    }
}

TEST(FigureRegistry, ExposesTheFullCatalogue)
{
    // One registry entry per retired bench/ binary family, plus the
    // tracker-family generalisation figures.
    for (const char *name :
         {"latency", "backoff-period", "message-prac", "message-rfm",
          "bitrate", "capacity", "appnoise", "multibit", "rfm-count",
          "action-latency", "fingerprint", "strips", "classifiers",
          "cache-prefetch", "threshold", "mitigation", "countermeasures",
          "counter-leak", "granularity", "trigger", "cross-defense",
          "tracker-threshold", "cross-channel", "channel-scaling",
          "mapping-order", "mapping-recovery", "fuzz-search",
          "fuzz-replay"}) {
        EXPECT_NE(runner::findFigure(name), nullptr) << name;
    }
    EXPECT_EQ(runner::findFigure("nope"), nullptr);
}

TEST(FigureRegistry, SmokeSpecsExpandSmallAndWellFormed)
{
    for (const auto &figure : runner::figures()) {
        const auto spec = figure.make(smokeOptions());
        EXPECT_FALSE(spec.columns.empty()) << figure.name;
        ASSERT_FALSE(spec.axes.empty()) << figure.name;
        for (const auto &axis : spec.axes) {
            EXPECT_FALSE(axis.name.empty()) << figure.name;
            EXPECT_FALSE(axis.values.empty()) << figure.name;
        }
        const auto jobs = runner::jobCount(spec);
        EXPECT_GE(jobs, 1u) << figure.name;
        // Smoke is the CI scale: a bounded handful of jobs per figure.
        EXPECT_LE(jobs, 64u) << figure.name;
        EXPECT_EQ(runner::expandJobs(spec).size(), jobs) << figure.name;
        EXPECT_TRUE(spec.job != nullptr) << figure.name;
        EXPECT_EQ(spec.name, figure.name);
    }
}

TEST(FigureRegistry, DefaultScaleNeverShrinksBelowSmoke)
{
    RunOptions dflt; // Neither smoke nor full.
    for (const auto &figure : runner::figures()) {
        const auto smoke_jobs =
            runner::jobCount(figure.make(smokeOptions()));
        const auto default_jobs =
            runner::jobCount(figure.make(dflt));
        EXPECT_GE(default_jobs, smoke_jobs) << figure.name;
    }
}

TEST(FigureRegistry, SeedFlagReachesTheSpec)
{
    RunOptions seeded = smokeOptions();
    seeded.seed = 987654321;
    for (const auto &figure : runner::figures())
        EXPECT_EQ(figure.make(seeded).base_seed, 987654321u)
            << figure.name;
}

// A ported figure runs end-to-end: rows match the declared columns and
// are bit-identical on 1 vs 4 threads (the counter-leak study is the
// cheapest entry that simulates a complete attack per job).
TEST(FigureRegistry, PortedFigureIsThreadCountInvariant)
{
    const auto *figure = runner::findFigure("counter-leak");
    ASSERT_NE(figure, nullptr);
    const auto spec = figure->make(smokeOptions());
    const auto serial = runner::runSweep(spec, 1);
    const auto parallel = runner::runSweep(spec, 4);
    ASSERT_FALSE(serial.rows.empty());
    for (const auto &row : serial.rows)
        EXPECT_EQ(row.size(), spec.columns.size());
    EXPECT_EQ(serial.rows, parallel.rows);
    EXPECT_EQ(runner::toCsv(serial), runner::toCsv(parallel));

    // The summary digests the merged rows without touching the sweep.
    ASSERT_TRUE(figure->summarize != nullptr);
    const auto summary = figure->summarize(serial);
    EXPECT_NE(summary.find("mean leak time"), std::string::npos);
}

// The fuzzer figures carry the same contract: a whole evolutionary
// campaign (or replayed pattern) is one sweep job, so the merged CSV
// is bit-identical on 1 vs 4 threads.
TEST(FigureRegistry, FuzzFiguresAreThreadCountInvariant)
{
    for (const char *name : {"fuzz-search", "fuzz-replay"}) {
        const auto *figure = runner::findFigure(name);
        ASSERT_NE(figure, nullptr) << name;
        const auto spec = figure->make(smokeOptions());
        const auto serial = runner::runSweep(spec, 1);
        const auto parallel = runner::runSweep(spec, 4);
        ASSERT_FALSE(serial.rows.empty()) << name;
        for (const auto &row : serial.rows)
            EXPECT_EQ(row.size(), spec.columns.size()) << name;
        EXPECT_EQ(serial.rows, parallel.rows) << name;
        EXPECT_EQ(runner::toCsv(serial), runner::toCsv(parallel))
            << name;
        ASSERT_TRUE(figure->summarize != nullptr) << name;
        EXPECT_FALSE(figure->summarize(serial).empty()) << name;
    }
}

TEST(FigureRegistry, ReproduceWritesTheCsvArtifact)
{
    const auto *figure = runner::findFigure("message-prac");
    ASSERT_NE(figure, nullptr);
    RunOptions opts = smokeOptions();
    opts.threads = 2;
    opts.out_dir = (std::filesystem::temp_directory_path() /
                    "leaky_figures_test")
                       .string();
    const auto outcome = runner::reproduceFigure(*figure, opts);
    EXPECT_NE(outcome.summary.find("decoded text"), std::string::npos);

    std::ifstream csv(outcome.csv_path);
    ASSERT_TRUE(csv.good()) << outcome.csv_path;
    std::string header;
    std::getline(csv, header);
    EXPECT_EQ(header, "window,sent,detections,decoded");
    std::size_t data_rows = 0;
    for (std::string line; std::getline(csv, line);)
        data_rows += line.empty() ? 0 : 1;
    EXPECT_EQ(data_rows, outcome.sweep.rows.size());
    std::filesystem::remove_all(opts.out_dir);
}

} // namespace
