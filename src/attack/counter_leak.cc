#include "attack/counter_leak.hh"

#include <cmath>

#include "sim/logging.hh"

namespace leaky::attack {

CounterLeakAttacker::CounterLeakAttacker(sys::System &system,
                                         const CounterLeakConfig &cfg)
    : system_(system), cfg_(cfg)
{
    LEAKY_ASSERT(cfg_.shared_addr != 0 && cfg_.conflict_addr != 0,
                 "counter leak needs shared and conflict rows");
    // PRAC counters are per-channel; both rows must live on the
    // channel the config names.
    LEAKY_ASSERT(system_.mapper().decode(cfg_.shared_addr).channel ==
                         cfg_.channel &&
                     system_.mapper().decode(cfg_.conflict_addr).channel ==
                         cfg_.channel,
                 "counter-leak rows do not decode onto channel %u",
                 cfg_.channel);
}

void
CounterLeakAttacker::leak(
    std::function<void(const CounterLeakResult &)> on_done)
{
    on_done_ = std::move(on_done);
    start_ = system_.now();
    mark_ = start_;
    shared_activations_ = 0;
    next_shared_ = true;
    iterate();
}

void
CounterLeakAttacker::iterate()
{
    const bool shared = next_shared_;
    next_shared_ = !next_shared_;
    const std::uint64_t addr = shared ? cfg_.shared_addr
                                      : cfg_.conflict_addr;
    system_.schedule(cfg_.iter_overhead, [this, addr, shared] {
        system_.issueRead(addr, cfg_.source, [this, shared] {
            const Tick done = system_.now();
            const Tick latency = done - mark_;
            mark_ = done;
            if (shared)
                shared_activations_ += 1;
            if (cfg_.classifier.classify(latency) ==
                LatencyClass::kBackoff) {
                CounterLeakResult result;
                result.attacker_activations = shared_activations_;
                result.leaked_count =
                    cfg_.nbo > shared_activations_
                        ? cfg_.nbo - shared_activations_
                        : 0;
                result.elapsed = done - start_;
                result.bits = std::log2(static_cast<double>(cfg_.nbo));
                result.throughput =
                    result.bits /
                    (static_cast<double>(result.elapsed) * 1e-12);
                if (on_done_)
                    on_done_(result);
                return;
            }
            iterate();
        });
    });
}

CounterLeakVictim::CounterLeakVictim(sys::System &system,
                                     std::uint64_t shared_addr,
                                     std::uint64_t conflict_addr,
                                     Tick iter_overhead,
                                     std::int32_t source)
    : system_(system), shared_addr_(shared_addr),
      conflict_addr_(conflict_addr), iter_overhead_(iter_overhead),
      source_(source)
{
}

void
CounterLeakVictim::prime(std::uint32_t activations,
                         std::function<void()> on_done)
{
    on_done_ = std::move(on_done);
    remaining_ = activations;
    next_shared_ = true;
    iterate();
}

void
CounterLeakVictim::iterate()
{
    if (remaining_ == 0) {
        if (on_done_)
            on_done_();
        return;
    }
    const bool shared = next_shared_;
    next_shared_ = !next_shared_;
    const std::uint64_t addr = shared ? shared_addr_ : conflict_addr_;
    system_.schedule(iter_overhead_, [this, addr, shared] {
        system_.issueRead(addr, source_, [this, shared] {
            if (shared && remaining_ > 0)
                remaining_ -= 1;
            iterate();
        });
    });
}

} // namespace leaky::attack
