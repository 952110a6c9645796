#include "attack/probe.hh"

#include "sim/logging.hh"

namespace leaky::attack {

const char *
latencyClassName(LatencyClass c)
{
    switch (c) {
      case LatencyClass::kFast: return "fast";
      case LatencyClass::kConflict: return "conflict";
      case LatencyClass::kRfm: return "rfm";
      case LatencyClass::kRefresh: return "refresh";
      case LatencyClass::kBackoff: return "backoff";
    }
    return "?";
}

LatencyClassifier
LatencyClassifier::forTiming(const dram::Timing &timing,
                             std::uint32_t rfms_per_backoff)
{
    // The Listing-1 loop floor every band below is offset from.
    constexpr Tick base_latency = 90'000;
    LatencyClassifier c;
    // A conflict costs tRP + tRCD + tCL on top of the loop floor.
    c.conflict_min = base_latency / 2 + timing.tRP;
    // An RFM window adds tRFM; a (double) postponed refresh adds 2xtRFC;
    // a back-off adds tABOACT + N recovery RFM windows. The back-off
    // threshold sits at ~60% of the nominal back-off latency, which for
    // small N collapses into the refresh band (Fig. 11).
    c.rfm_min = base_latency / 2 + timing.tRFM / 2 + timing.tRP;
    c.refresh_min = base_latency + timing.tRFC + timing.tRFC / 2;
    c.backoff_min = base_latency + timing.tABOACT +
                    rfms_per_backoff * timing.tRFM_backoff * 6 / 10;
    return c;
}

LatencyProbe::LatencyProbe(sys::System &system, ProbeConfig cfg)
    : system_(system), cfg_(std::move(cfg)), load_(system)
{
    LEAKY_ASSERT(!cfg_.addrs.empty(), "probe needs at least one address");
    // The channel field is the collector's contract (stats are read
    // from it); every probe row must actually decode onto it.
    for (auto addr : cfg_.addrs)
        LEAKY_ASSERT(system_.mapper().decode(addr).channel == cfg_.channel,
                     "probe address does not decode onto channel %u",
                     cfg_.channel);
    samples_.reserve(cfg_.iterations);
}

void
LatencyProbe::start(sim::SmallFn on_done)
{
    on_done_ = std::move(on_done);
    load_.restart();
    iterate();
}

void
LatencyProbe::iterate()
{
    if (iter_ >= cfg_.iterations) {
        if (on_done_)
            on_done_();
        return;
    }
    load_.next(
        0, [this] { return cfg_.addrs[iter_++ % cfg_.addrs.size()]; },
        [this](Tick latency) {
            samples_.push_back({system_.now(), latency});
            iterate();
        });
}

} // namespace leaky::attack
