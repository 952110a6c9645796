/**
 * @file
 * CLI error-path contract: every subcommand exits 2 (usage error) on
 * unknown flags, malformed values, and missing required arguments —
 * never 0, never a crash — `help run` documents every demo flag, and
 * every demo runs to completion on its default flags. Drives
 * runner::cliMain in-process; the figures' happy paths are covered by
 * ci/smoke_figures.sh and the figure tests.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "runner/cli.hh"
#include "runner/demos.hh"

namespace {

using leaky::runner::cliMain;

int
runCli(std::vector<std::string> args)
{
    args.insert(args.begin(), "leakyhammer");
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (auto &arg : args)
        argv.push_back(arg.data());
    return cliMain(static_cast<int>(argv.size()), argv.data());
}

TEST(CliErrors, NoCommandOrUnknownCommandIsUsageError)
{
    EXPECT_EQ(runCli({}), 2);
    EXPECT_EQ(runCli({"bogus"}), 2);
    EXPECT_EQ(runCli({"--fig"}), 2);
}

TEST(CliErrors, EverySubcommandRejectsUnknownFlags)
{
    for (const char *command :
         {"list", "repro", "campaign", "run", "fuzz"}) {
        if (std::string(command) == "run") {
            // `run` resolves the demo first; flags parse inside it.
            EXPECT_EQ(runCli({"run", "quickstart", "--nope"}), 2);
            continue;
        }
        EXPECT_EQ(runCli({command, "--nope"}), 2) << command;
        EXPECT_EQ(runCli({command, "--nope=3"}), 2) << command;
    }
}

TEST(CliErrors, MalformedValuesAreUsageErrors)
{
    EXPECT_EQ(runCli({"repro", "--fig", "latency", "--threads", "abc"}),
              2);
    EXPECT_EQ(runCli({"repro", "--fig", "latency", "--seed", "-1"}), 2);
    EXPECT_EQ(runCli({"fuzz", "--seed", "abc"}), 2);
    EXPECT_EQ(runCli({"fuzz", "--threads", "1.5"}), 2);
    EXPECT_EQ(runCli({"campaign", "--shards", "zero"}), 2);
    EXPECT_EQ(runCli({"run", "covert", "--message", ""}), 2);
    EXPECT_EQ(runCli({"run", "covert", "--mapping", "nonsense"}), 2);
    EXPECT_EQ(runCli({"run", "fingerprint", "--sites", "1"}), 2);
    EXPECT_EQ(runCli({"run", "fingerprint", "--loads", "1"}), 2);
    EXPECT_EQ(runCli({"run", "mitigation", "--nrh", "8"}), 2);
    EXPECT_EQ(runCli({"repro", "stray"}), 2);
    EXPECT_EQ(runCli({"run", "quickstart", "stray"}), 2);
}

TEST(CliErrors, MissingRequiredArgumentsAreUsageErrors)
{
    EXPECT_EQ(runCli({"repro"}), 2);
    EXPECT_EQ(runCli({"repro", "--fig", "no-such-figure"}), 2);
    EXPECT_EQ(runCli({"campaign"}), 2);
    EXPECT_EQ(runCli({"campaign", "--fig", "latency"}), 2);
    EXPECT_EQ(runCli({"campaign", "--fig", "no-such-figure", "--dir",
                      "/tmp/x"}),
              2);
    EXPECT_EQ(runCli({"run"}), 2);
    EXPECT_EQ(runCli({"run", "no-such-demo"}), 2);
    EXPECT_EQ(runCli({"help", "no-such-topic"}), 2);
}

TEST(CliHelp, HelpRunNamesEveryDemoFlag)
{
    testing::internal::CaptureStdout();
    EXPECT_EQ(runCli({"help", "run"}), 0);
    const std::string help = testing::internal::GetCapturedStdout();
    for (const char *flag :
         {"--message", "--mapping", "--sites", "--loads", "--nrh"})
        EXPECT_NE(help.find(flag), std::string::npos) << flag;
}

TEST(CliDemos, EveryDemoRunsWithDefaultFlags)
{
    for (const auto &demo : leaky::runner::demos()) {
        testing::internal::CaptureStdout();
        EXPECT_EQ(runCli({"run", demo.name}), 0) << demo.name;
        const std::string out = testing::internal::GetCapturedStdout();
        EXPECT_FALSE(out.empty()) << demo.name;
        if (std::string(demo.name) != "mitigation")
            continue;
        // The RFM channel gets through PRFM at the default NRH = 256,
        // as in the `threshold` figure's cell.
        const auto row = out.find("\nPRFM ");
        ASSERT_NE(row, std::string::npos) << out;
        std::istringstream line(
            out.substr(row + 1, out.find('\n', row + 1) - row - 1));
        std::string name;
        double kbps = 0.0;
        line >> name >> kbps;
        EXPECT_GT(kbps, 0.0) << line.str();
    }
}

} // namespace
