/**
 * @file
 * Per-layer probes of the traced run. Each probe times one layer's
 * public functions from outside (trace generation, address mapping,
 * the cache hierarchy) or runs one representative simulation cell of
 * the workload on a caller-owned sys::System and reads its exact
 * statistics afterwards. Probes always use the workloads' default
 * seeds, so their simulated statistics repeat exactly and serve as
 * model sentinels.
 */

#ifndef FIGBENCH_LAYERS_HH
#define FIGBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "figbench.hh"

namespace figbench {

/** What the layer probes measured, and what they found wrong. */
struct LayerReport {
    std::vector<Metric> metrics;
    /** The metrics that are exact simulated statistics, by name:
     *  checked against the recorded sentinels. */
    std::map<std::string, double> sentinels;
    std::vector<std::string> problems; ///< Failed internal checks.
};

/** Probe every layer for @p workload ("mitigation", "capacity" or
 *  "fingerprint"; the representative cell depends on it). */
LayerReport probeLayers(const std::string &workload);

} // namespace figbench

#endif // FIGBENCH_LAYERS_HH
