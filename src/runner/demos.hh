/**
 * @file
 * The narrated scenario demos of `leakyhammer run <demo>`. Each demo
 * walks through one paper result and is one row of demos(): the CLI
 * dispatches through the table, and `list` / `help run` render their
 * demo text from it, so a demo's name and flags are written once.
 */

#ifndef LEAKY_RUNNER_DEMOS_HH
#define LEAKY_RUNNER_DEMOS_HH

#include <string>
#include <vector>

namespace leaky::runner {

/** One demo: how to call it and what it shows. */
struct Demo {
    const char *name;
    const char *flags;    ///< Flag usage, e.g. "[--nrh <n>]".
    const char *scenario; ///< One line for `list`.
    /**
     * Parse @p argv (the flags after the demo name) and run the demo.
     * Parsing is strict: an unknown flag, malformed value or
     * out-of-range setting returns false with @p error set, before
     * anything runs.
     */
    bool (*run)(int argc, char **argv, std::string *error);
};

/** Every demo, in `list` order. */
const std::vector<Demo> &demos();

} // namespace leaky::runner

#endif // LEAKY_RUNNER_DEMOS_HH
