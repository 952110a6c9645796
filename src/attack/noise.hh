/**
 * @file
 * Noise-generator microbenchmark (paper §6.3, "Noise Analysis"): a
 * process that alternates between two rows of a target bank, sleeping a
 * configurable duration between consecutive activations. Sweeping the
 * sleep from 2 us down to 0.2 us maps to noise intensity 1%..100% via
 * Eq. 2 (stats::noiseIntensity).
 */

#ifndef LEAKY_ATTACK_NOISE_HH
#define LEAKY_ATTACK_NOISE_HH

#include <cstdint>
#include <vector>

#include "sys/system.hh"

namespace leaky::attack {

using sim::Tick;

/** Noise microbenchmark parameters. */
struct NoiseConfig {
    /**
     * Rows cycled by the generator (>= 2 so every access conflicts).
     * With more rows than a back-off can service (4 recovery RFMs
     * reset the top-4 counters per bank), some noise counters survive
     * every preventive action and keep climbing -- which is what makes
     * high noise intensities so disruptive in the paper's Fig. 4/7.
     */
    std::vector<std::uint64_t> addrs;
    Tick sleep = 2 * sim::kUs;  ///< Between consecutive activations.
};

/** Endless interference generator targeting one bank. */
class NoiseAgent
{
  public:
    NoiseAgent(sys::System &system, const NoiseConfig &cfg);

    void start();
    void stop() { running_ = false; }

    std::uint64_t accessCount() const { return accesses_; }

  private:
    void loop();

    sys::System &system_;
    NoiseConfig cfg_;
    bool running_ = false;
    std::size_t next_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace leaky::attack

#endif // LEAKY_ATTACK_NOISE_HH
