/**
 * @file
 * Website-fingerprinting side channel (paper §8). The fingerprinting
 * routine (Listing 2) cycles through N test rows, accessing each T < NBO
 * times, so its own accesses are mostly row hits and never trigger
 * back-offs; back-offs caused by the victim browser appear as >= 1.4 us
 * spikes in the probe's latency trace. The timestamps of those spikes
 * form the fingerprint; extractFeatures() turns a trace into the fixed
 * feature vector the classifiers consume (per-execution-window back-off
 * counts plus the paper's consecutive-pair statistics).
 */

#ifndef LEAKY_ATTACK_FINGERPRINT_HH
#define LEAKY_ATTACK_FINGERPRINT_HH

#include <cstdint>
#include <vector>

#include "attack/probe.hh"
#include "sys/system.hh"

namespace leaky::attack {

/** Listing-2 fingerprinting routine configuration. */
struct FingerprintConfig {
    std::vector<std::uint64_t> rows; ///< N test rows (same channel).
    /** Channel the test rows live on. Back-offs are channel-wide, so
     *  the probe only observes victims sharing this channel. */
    std::uint32_t channel = 0;
    std::uint32_t t_accesses = 50;   ///< T: accesses per row visit (<NBO).
    Tick duration = 4 * sim::kMs;    ///< Covers the page load.
    LatencyClassifier classifier;
};

/** The attacker's measurement process. */
class FingerprintProbe
{
  public:
    FingerprintProbe(sys::System &system, FingerprintConfig cfg);

    /** Probe until `duration` elapses, then invoke @p on_done. */
    void start(sim::SmallFn on_done = {});

    /** Timestamps (relative to start) of detected back-offs. */
    const std::vector<Tick> &backoffTimes() const { return backoffs_; }

    std::uint64_t accessCount() const { return accesses_; }

  private:
    void iterate();

    sys::System &system_;
    FingerprintConfig cfg_;
    TimedLoad load_;
    sim::SmallFn on_done_;
    Tick start_ = 0;
    Tick end_ = 0;
    std::size_t row_index_ = 0;
    std::uint32_t access_in_row_ = 0;
    std::uint64_t accesses_ = 0;
    std::vector<Tick> backoffs_;
};

/** Fixed-length feature vector from a back-off timestamp trace. */
struct FingerprintFeatures {
    /** Back-off counts per execution window + global pair statistics. */
    std::vector<double> values;
};

/**
 * Feature extraction (paper §8): per-execution-window back-off counts
 * (Fig. 9's strips) and, for each consecutive back-off pair, (i) the
 * gap within the pair, (ii) the gap to the previous pair, (iii) the
 * pair's mean timestamp -- aggregated as means/stddevs.
 */
FingerprintFeatures extractFeatures(const std::vector<Tick> &backoffs,
                                    Tick duration,
                                    std::uint32_t windows = 32);

} // namespace leaky::attack

#endif // LEAKY_ATTACK_FINGERPRINT_HH
