/**
 * @file
 * Built-in figure-reproduction sweeps: each paper figure the runner can
 * reproduce end-to-end is a named Figure that builds a SweepSpec at the
 * requested scale (smoke / default / full), runs it on the pool, writes
 * a CSV artifact named after the figure, and renders a human summary
 * (including any post-sweep analysis such as classifier training for
 * the fingerprinting figure). `leakyhammer repro --fig <name>` is a
 * thin wrapper around reproduceFigure().
 */

#ifndef LEAKY_RUNNER_FIGURES_HH
#define LEAKY_RUNNER_FIGURES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/runner.hh"
#include "runner/sweep.hh"

namespace leaky::runner {

/** Sweep size requested on the CLI (never changes the physics). */
enum class Scale { kSmoke, kDefault, kFull };

/** The scale's campaign-manifest label: "smoke", "default", "full". */
const char *scaleName(Scale scale);

/** How to run a figure reproduction. */
struct RunOptions {
    unsigned threads = 0; ///< Pool workers (0 = hardware concurrency).
    bool smoke = false;   ///< CI scale: minutes of simulation, not hours.
    bool full = false;    ///< Paper scale (overrides smoke).
    std::uint64_t seed = 0; ///< 0 = the figure's default seed.
    std::string out_dir = "."; ///< Where CSV artifacts land.

    /** The one flags -> scale rule: --full wins over --smoke. */
    Scale
    scale() const
    {
        return full ? Scale::kFull : smoke ? Scale::kSmoke : Scale::kDefault;
    }
};

/** One reproducible paper figure. */
struct Figure {
    std::string name;      ///< CLI key (`--fig capacity`).
    std::string title;
    std::string paper_ref; ///< e.g. "Figs. 4 & 7".
    std::string csv_name;  ///< Artifact file name (`fig_*.csv`).
    std::function<SweepSpec(const RunOptions &)> make;
    /** Post-sweep digest over the merged rows (may train models). */
    std::function<std::string(const SweepResult &)> summarize;
};

/** Everything reproduceFigure() produced. */
struct FigureOutcome {
    SweepResult sweep;
    std::string csv_path;
    std::string summary;
};

/** The registry, in presentation order. */
const std::vector<Figure> &figures();

/** Look up by CLI name; nullptr when unknown. */
const Figure *findFigure(const std::string &name);

/** Expand, run, write `<out_dir>/<csv_name>`, and summarize. */
FigureOutcome reproduceFigure(const Figure &figure,
                              const RunOptions &opts);

/**
 * The figure's smoke-scale CSV, exactly as the golden differential
 * harness stores it: forced to Scale::kSmoke and the figure's default
 * seed, rendered with toCsv(). Because runSweep() merges rows in
 * job-index order, the bytes are identical for any @p threads — the
 * golden test exploits that to compare 1-thread and 4-thread runs
 * against one checked-in file.
 */
std::string goldenCsv(const Figure &figure, unsigned threads);

/** `<golden_dir>/<figure.name>.csv` — the golden artifact path. */
std::string goldenPath(const std::string &golden_dir,
                       const Figure &figure);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_FIGURES_HH
