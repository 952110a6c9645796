/**
 * @file
 * The `leakyhammer` command-line interface: one entry point for every
 * scenario in the repo.
 *
 *   leakyhammer list                 figures + demos catalogue
 *   leakyhammer repro --fig <name>   parallel figure reproduction
 *   leakyhammer campaign [flags]     sharded, resumable figure sweeps
 *   leakyhammer run <demo> [flags]   narrated single-scenario demos
 *   leakyhammer fuzz [flags]         aggressor-pattern space search
 *   leakyhammer help [command]
 *
 * Exit codes: 0 success, 1 runtime failure, 2 usage error (unknown
 * command, unknown flag, malformed value).
 */

#ifndef LEAKY_RUNNER_CLI_HH
#define LEAKY_RUNNER_CLI_HH

namespace leaky::runner {

/** Full CLI dispatch; returns the process exit code. */
int cliMain(int argc, char **argv);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_CLI_HH
