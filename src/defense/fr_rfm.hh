/**
 * @file
 * Fixed-Rate RFM (FR-RFM) countermeasure (paper §11.1): RFM commands are
 * issued on a fixed time grid (period TFRRFM = TRFM x tRC), completely
 * decoupled from application access patterns. Because the controller
 * cannot fit more than TRFM activations per bank between two RFMs, the
 * scheme remains RowHammer-secure, and because the RFM times are fixed,
 * a receiver can learn nothing about a sender's activations from them.
 */

#ifndef LEAKY_DEFENSE_FR_RFM_HH
#define LEAKY_DEFENSE_FR_RFM_HH

#include <cstdint>

#include "ctrl/defense_iface.hh"
#include "dram/config.hh"

namespace leaky::defense {

/** FR-RFM configuration. */
struct FrRfmConfig {
    sim::Tick period = 0;     ///< TFRRFM; use policy.hh to derive.
    sim::Tick drain_lead = 80'000; ///< Must match the controller's lead.
};

/** Controller-side fixed-rate RFM defense. */
class FrRfmDefense final : public ctrl::ControllerDefense
{
  public:
    explicit FrRfmDefense(const FrRfmConfig &cfg);

    // ctrl::ControllerDefense
    void onActivate(const ctrl::Address &addr, sim::Tick now) override;
    std::optional<ctrl::RfmRequest> pendingRfm(sim::Tick now) override;
    void onRfmIssued(const ctrl::RfmRequest &req, sim::Tick issued,
                     sim::Tick end) override;
    sim::Tick nextEventTick(sim::Tick now) const override;

    /** Grid points that had to be skipped because a window overran. */
    std::uint64_t skippedSlots() const { return skipped_; }

  private:
    FrRfmConfig cfg_;
    sim::Tick next_at_;
    bool in_flight_ = false;
    std::uint64_t skipped_ = 0;
};

} // namespace leaky::defense

#endif // LEAKY_DEFENSE_FR_RFM_HH
