/**
 * @file
 * CLI error-path contract: every subcommand exits 2 (usage error) on
 * unknown flags, malformed values, and missing required arguments —
 * never 0, never a crash — and `help run` documents every demo flag.
 * Drives runner::cliMain in-process; the happy paths are covered by
 * ci/smoke_figures.sh and the figure tests.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runner/cli.hh"

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

} // namespace
