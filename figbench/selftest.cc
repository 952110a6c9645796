/**
 * @file
 * Self-tests of the benchmark's own code: order statistics with their
 * sample counts, the pool-utilisation arithmetic, the digest check and
 * its expectations grammar, and failure accounting for a throwing job.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "figbench.hh"

namespace {

using namespace figbench;

TEST(FigbenchStats, MedianAndP75WithCounts)
{
    const auto odd = quartiles({5, 1, 3, 2, 4});
    EXPECT_EQ(odd.n, 5u);
    EXPECT_DOUBLE_EQ(odd.p50, 3.0);
    EXPECT_DOUBLE_EQ(odd.p75, 4.0);

    const auto even = quartiles({4, 1, 3, 2});
    EXPECT_EQ(even.n, 4u);
    EXPECT_DOUBLE_EQ(even.p50, 2.5);
    EXPECT_DOUBLE_EQ(even.p75, 3.25); // rank 2.25 of 0..3

    const auto one = quartiles({7});
    EXPECT_EQ(one.n, 1u);
    EXPECT_DOUBLE_EQ(one.p50, 7.0);
    EXPECT_DOUBLE_EQ(one.p75, 7.0);
    EXPECT_DOUBLE_EQ(median({2, 9}), 5.5);
}

TEST(FigbenchStats, PoolUtilIsBusyShareOfWallTimesThreads)
{
    // Two workers over 2 s: 1 + 1 + 1.5 = 3.5 busy seconds of 4.
    const std::vector<Span> spans = {{0.0, 1.0}, {0.0, 1.0}, {1.0, 2.5}};
    EXPECT_DOUBLE_EQ(poolUtil(spans, 2.0, 2), 3.5 / 4.0);
    // Fully busy pool.
    EXPECT_DOUBLE_EQ(poolUtil({{0, 2}, {0, 2}}, 2.0, 2), 1.0);
    // A failed job's empty span adds nothing.
    EXPECT_DOUBLE_EQ(poolUtil({{0, 1}, {0, 0}}, 1.0, 4), 0.25);
}

TEST(FigbenchDigest, OneChangedByteFailsTheCheck)
{
    const std::string csv = "channel,capacity\n0,28800\n1,46300\n";
    std::istringstream table("# comment\n\ndigest capacity default 1 " +
                             digest(csv) + "\n");
    const Expected expected = Expected::parse(table);
    ASSERT_NE(expected.digestFor("capacity", "default", 1), nullptr);
    EXPECT_EQ(expected.digestFor("capacity", "default", 2), nullptr);
    EXPECT_EQ(OutputCheck(expected, "capacity", "default").check(1, csv),
              "");
    for (std::size_t i = 0; i < csv.size(); ++i) {
        std::string changed = csv;
        changed[i] = static_cast<char>(changed[i] ^ 0x01);
        EXPECT_NE(OutputCheck(expected, "capacity", "default")
                      .check(1, changed),
                  "")
            << "byte " << i;
    }
}

TEST(FigbenchDigest, UnrecordedSeedMustRepeatItsBytes)
{
    const Expected none;
    OutputCheck check(none, "capacity", "default");
    EXPECT_EQ(check.check(9, "a,b\n1,2\n"), "");
    EXPECT_EQ(check.check(9, "a,b\n1,2\n"), "");
    EXPECT_NE(check.check(9, "a,b\n1,3\n"), "");
}

TEST(FigbenchDigest, MalformedExpectationsAreRejected)
{
    for (const char *bad :
         {"digest capacity default 1 xyz\n", "digest capacity default\n",
          "sentinel capacity ctrl.requests\n",
          "sentinel capacity ctrl.requests 1 extra\n", "bogus line\n"}) {
        std::istringstream in(bad);
        EXPECT_THROW(Expected::parse(in), std::runtime_error) << bad;
    }
    std::istringstream ok("sentinel capacity ctrl.requests 12345\n");
    EXPECT_EQ(Expected::parse(ok).sentinels("capacity").at("ctrl.requests"),
              12345.0);
}

TEST(FigbenchRep, ThrowingJobCountsAsFailedWithoutEndingTheRun)
{
    leaky::runner::Figure figure;
    figure.name = "selftest";
    figure.make = [](const leaky::runner::RunOptions &) {
        leaky::runner::SweepSpec spec;
        spec.name = "selftest";
        spec.axes = {{"i", {0, 1, 2, 3, 4, 5, 6, 7}}};
        spec.columns = {"i"};
        spec.job = [](const leaky::runner::Job &job) {
            if (job.index == 3)
                throw std::runtime_error("injected");
            return leaky::runner::JobRows{{job.param("i")}};
        };
        return spec;
    };
    leaky::runner::RunOptions opts;
    opts.threads = 2;
    const Rep rep = runRep(figure, opts, true);
    EXPECT_EQ(rep.jobs, 8u);
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_TRUE(rep.csv.empty());
    ASSERT_EQ(rep.spans.size(), 8u);
    EXPECT_EQ(rep.spans[3].end, 0.0); // The throwing job left no span.
    EXPECT_GT(rep.spans[0].end, rep.spans[0].start);

    // The same figure without the fault completes and renders its CSV.
    figure.make = [](const leaky::runner::RunOptions &) {
        leaky::runner::SweepSpec spec;
        spec.axes = {{"i", {0, 1, 2}}};
        spec.columns = {"i"};
        spec.job = [](const leaky::runner::Job &job) {
            return leaky::runner::JobRows{{job.param("i")}};
        };
        return spec;
    };
    const Rep clean = runRep(figure, opts, false);
    EXPECT_EQ(clean.failed, 0u);
    EXPECT_EQ(clean.csv, "i\n0\n1\n2\n");
    EXPECT_GE(clean.setup_s, 0.0);
    EXPECT_GE(clean.wall_s, clean.sweep_s);
}

} // namespace
