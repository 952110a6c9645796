/**
 * @file
 * Shared machinery of the per-family figure files. The registry in
 * figures.cc concatenates the family factories declared here; the
 * helpers keep scale handling, axis encoding and row aggregation
 * identical across families. Internal to src/runner — not part of the
 * public interface.
 */

#ifndef LEAKY_RUNNER_FIGURES_INTERNAL_HH
#define LEAKY_RUNNER_FIGURES_INTERNAL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hh"
#include "fuzz/campaign.hh"
#include "ml/dataset.hh"
#include "runner/figures.hh"

namespace leaky::runner {

/** A figure's sweep at a resolved scale and base seed. Builders leave
 *  `spec.name` and `spec.base_seed` to resolveSweep. */
using SpecBuilder = std::function<SweepSpec(Scale, std::uint64_t seed)>;

/**
 * The one RunOptions -> sweep rule: the scale is opts.scale(), seed 0
 * means @p default_seed, and the built spec is stamped with @p name
 * and the resolved seed.
 */
SweepSpec resolveSweep(const RunOptions &opts, const std::string &name,
                       std::uint64_t default_seed,
                       const SpecBuilder &build);

/** A registry entry, its metadata given once; `make` is resolveSweep
 *  over @p build. */
Figure makeFigure(std::string name, std::string title,
                  std::string paper_ref, std::string csv_name,
                  std::uint64_t default_seed, SpecBuilder build,
                  std::function<std::string(const SweepResult &)>
                      summarize);

/** An axis over enum values, each encoded as its underlying integer
 *  (the CSV encoding of every categorical column). */
template <typename Enum>
Axis
enumAxis(std::string name, const std::vector<Enum> &values)
{
    Axis axis{std::move(name), {}};
    for (Enum value : values)
        axis.values.push_back(static_cast<double>(value));
    return axis;
}

/** The enum an enumAxis value encodes: a `job.param(...)` or a CSV
 *  cell. */
template <typename Enum>
Enum
asEnum(double value)
{
    return static_cast<Enum>(static_cast<int>(value));
}

/** {0, 1, ..., count - 1} as axis values. */
std::vector<double> iota(std::uint32_t count);

/** Pick a per-scale value (smoke / default / full). */
template <typename T>
T
byScale(Scale scale, T smoke, T dflt, T full)
{
    if (scale == Scale::kFull)
        return full;
    return scale == Scale::kSmoke ? smoke : dflt;
}

/** Mean of column @p value grouped by the tuple of @p keys columns. */
std::map<std::vector<double>, double>
groupMean(const SweepResult &result, const std::vector<std::size_t> &keys,
          std::size_t value);

// Family factories, in registry presentation order. Each returns its
// figures fully built; figures.cc concatenates them.
std::vector<Figure> covertFigures();         ///< Figs. 2-8, 11-12, §6.3.
std::vector<Figure> fingerprintFigures();    ///< Figs. 9-10, T2, §10.3.
std::vector<Figure> countermeasureFigures(); ///< Fig. 13, §9/11/12, T3.
std::vector<Figure> trackerFigures();        ///< §13 generalisation.
std::vector<Figure> scalingFigures();        ///< §5.2 topology/mapping.
std::vector<Figure> fuzzFigures();           ///< Pattern fuzzer (src/fuzz).

/**
 * The website-fingerprint collection of @p fp (§8): one job per (site,
 * load), expanded site-major, each running core::collectOneFingerprint
 * and returning one {site, load, backoffs, 39 features...} row.
 */
SweepSpec collectionSpec(const core::FingerprintSpec &fp);

/** The ML dataset of merged collection rows: features by site. */
ml::Dataset datasetFromRows(const SweepResult &result);

/** A collection row's back-off strip (Fig. 9): its first 24 windows. */
std::string backoffStrip(const std::vector<double> &row);

/**
 * The fuzz-search sweep, shared between the fuzz-search figure and
 * `leakyhammer fuzz`. When @p capture is non-null it is resized to the
 * job count and each job ALSO stores its full CampaignResult (including
 * the best pattern's serialization) at its job index — thread-safe
 * because indices are distinct, deterministic because slots are merged
 * by index, never by completion order.
 */
SweepSpec fuzzSearchSpec(const RunOptions &opts,
                         std::vector<fuzz::CampaignResult> *capture);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_FIGURES_INTERNAL_HH
