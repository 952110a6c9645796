#include "attack/noise.hh"

#include "attack/probe.hh"
#include "sim/logging.hh"

namespace leaky::attack {

NoiseAgent::NoiseAgent(sys::System &system, const NoiseConfig &cfg)
    : system_(system), cfg_(cfg)
{
    LEAKY_ASSERT(cfg_.addrs.size() >= 2,
                 "noise agent needs at least two row addresses");
}

void
NoiseAgent::start()
{
    if (running_)
        return;
    running_ = true;
    loop();
}

void
NoiseAgent::loop()
{
    if (!running_)
        return;
    // Unlike the attack loops, the noise microbenchmark paces itself by
    // wall clock (sleep between activations), not by load-to-use
    // dependencies, so its request rate is sleep-controlled even when
    // DRAM is slow.
    system_.schedule(kLoopOverhead + cfg_.sleep, [this] {
        if (!running_)
            return;
        const std::uint64_t addr = cfg_.addrs[next_];
        next_ = (next_ + 1) % cfg_.addrs.size();
        system_.issueRead(addr, [this] { accesses_ += 1; });
        loop();
    });
}

} // namespace leaky::attack
