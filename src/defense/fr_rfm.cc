#include "defense/fr_rfm.hh"

#include "sim/logging.hh"

namespace leaky::defense {

using ctrl::RfmRequest;
using sim::Tick;

FrRfmDefense::FrRfmDefense(const FrRfmConfig &cfg)
    : cfg_(cfg), next_at_(cfg.period)
{
    LEAKY_ASSERT(cfg_.period > 0, "FR-RFM needs a positive period");
}

void
FrRfmDefense::onActivate(const ctrl::Address &, Tick)
{
    // By design, FR-RFM ignores the access pattern entirely.
}

std::optional<RfmRequest>
FrRfmDefense::pendingRfm(Tick now)
{
    if (in_flight_ || now + cfg_.drain_lead < next_at_)
        return std::nullopt;
    RfmRequest req;
    req.kind = dram::Command::kRfmAll;
    req.all_ranks = true;
    req.precise = true;
    req.scheduled_at = next_at_;
    in_flight_ = true;
    return req;
}

void
FrRfmDefense::onRfmIssued(const RfmRequest &, Tick, Tick end)
{
    in_flight_ = false;
    next_at_ += cfg_.period;
    // If the RFM window overran the next grid point (only possible for
    // periods near the physical floor), skip slots rather than drift.
    while (next_at_ <= end) {
        next_at_ += cfg_.period;
        skipped_ += 1;
    }
}

Tick
FrRfmDefense::nextEventTick(Tick) const
{
    if (in_flight_)
        return sim::kTickMax;
    return next_at_ > cfg_.drain_lead ? next_at_ - cfg_.drain_lead : 0;
}

} // namespace leaky::defense
