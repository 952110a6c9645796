#include "attack/counter_leak.hh"

#include <cmath>

#include "sim/logging.hh"

namespace leaky::attack {

CounterLeakAttacker::CounterLeakAttacker(sys::System &system,
                                         const CounterLeakConfig &cfg)
    : system_(system), cfg_(cfg), load_(system)
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
CounterLeakAttacker::start(sim::SmallFn on_done)
{
    on_done_ = std::move(on_done);
    start_ = system_.now();
    load_.restart();
    shared_activations_ = 0;
    next_shared_ = true;
    iterate();
}

void
CounterLeakAttacker::iterate()
{
    load_.next(
        0,
        [this] { return next_shared_ ? cfg_.shared_addr : cfg_.conflict_addr; },
        [this](Tick latency) {
            if (next_shared_)
                shared_activations_ += 1;
            next_shared_ = !next_shared_;
            if (cfg_.classifier.classify(latency) == LatencyClass::kBackoff)
                finish();
            else
                iterate();
        });
}

void
CounterLeakAttacker::finish()
{
    result_.attacker_activations = shared_activations_;
    result_.leaked_count =
        cfg_.nbo > shared_activations_ ? cfg_.nbo - shared_activations_ : 0;
    result_.elapsed = system_.now() - start_;
    result_.bits = std::log2(static_cast<double>(cfg_.nbo));
    result_.throughput =
        result_.bits / (static_cast<double>(result_.elapsed) * 1e-12);
    if (on_done_)
        on_done_();
}

CounterLeakVictim::CounterLeakVictim(sys::System &system,
                                     std::uint64_t shared_addr,
                                     std::uint64_t conflict_addr)
    : load_(system), shared_addr_(shared_addr),
      conflict_addr_(conflict_addr)
{
}

void
CounterLeakVictim::prime(std::uint32_t activations, sim::SmallFn on_done)
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
    load_.next(
        0, [this] { return next_shared_ ? shared_addr_ : conflict_addr_; },
        [this](Tick) {
            if (next_shared_)
                remaining_ -= 1;
            next_shared_ = !next_shared_;
            iterate();
        });
}

} // namespace leaky::attack
