/**
 * @file
 * PRAC (Per Row Activation Counting) device-side defense (paper §6.1)
 * and its two countermeasure variants:
 *
 *  - standard PRAC: a counter per DRAM row, incremented when the row is
 *    closed; when a counter reaches NBO the device asserts the ABO
 *    (alert back-off) signal and the controller runs the back-off
 *    protocol (tABOACT of normal traffic + N recovery RFMs). Each
 *    recovery RFM refreshes the victims of the highest-count row in
 *    every bank and resets that counter.
 *  - PRAC-RIAC (§11.2): counters are initialised to random values at
 *    boot and re-randomised after each preventive action, injecting
 *    unintentional back-offs that reduce the covert channel's capacity.
 *  - Bank-Level PRAC (§11.3): per-bank alert signals; a back-off blocks
 *    only the offending bank, shrinking the attack scope to same-bank.
 */

#ifndef LEAKY_DEFENSE_PRAC_HH
#define LEAKY_DEFENSE_PRAC_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/config.hh"
#include "dram/hooks.hh"
#include "sim/rng.hh"

namespace leaky::defense {

using dram::Address;
using sim::Tick;

/** PRAC family configuration. */
struct PracConfig {
    std::uint32_t nbo = 128;            ///< Back-off threshold.
    std::uint32_t rfms_per_backoff = 4; ///< RFMs the controller issues.
    bool bank_level = false;            ///< Bank-Level PRAC (§11.3).
    bool riac = false;                  ///< PRAC-RIAC (§11.2).
    /**
     * Warm start: first-touch counters begin at U[0, nbo) to model a
     * mid-lifetime slice of a long-running system (PRAC counters
     * persist indefinitely and only drain when a back-off services a
     * row). Used by the Fig. 13 performance study; unlike RIAC,
     * serviced rows still reset to zero.
     */
    bool warm_start = false;
    std::uint32_t riac_init_max = 0;    ///< 0 -> use nbo.
    std::uint64_t seed = 1;             ///< RIAC randomness seed.
    Tick cooldown = 250'000;            ///< Min gap between alerts.
};

/** PRAC / PRAC-RIAC / Bank-Level PRAC device hooks. */
class PracDefense final : public dram::DeviceHooks
{
  public:
    PracDefense(const dram::DramConfig &dram_cfg, const PracConfig &cfg,
                dram::AlertSink *sink);

    // dram::DeviceHooks
    void onActivate(const Address &addr, Tick now) override;
    void onPrecharge(const Address &addr, Tick now) override;
    void onRefresh(std::uint32_t rank, Tick now) override;
    void onRfm(dram::Command kind, const Address &addr, bool during_backoff,
               Tick now) override;

    /** Current counter value of a row (tests / §9.1 leak analysis). */
    std::uint32_t counterValue(const Address &addr) const;

    /** Number of alerts raised so far. */
    std::uint64_t alertCount() const { return alerts_; }

    /** Highest live counter value (diagnostics / tests). */
    std::uint32_t maxCounter() const;

    const PracConfig &config() const { return cfg_; }

  private:
    /** Per-bank activation-counter table. */
    struct BankCounters {
        std::unordered_map<std::uint32_t, std::uint32_t> rows;
    };

    std::uint32_t flatBank(const Address &a) const;
    std::uint32_t &counter(const Address &a);
    std::uint32_t initValue();
    /** Refresh the victims of the hottest row among @p flat_banks:
     *  one aggressor serviced per RFM window (paper §6.1: a back-off's
     *  four RFMs refresh four aggressor rows' victims). */
    void resetTopCounter(const std::vector<std::uint32_t> &flat_banks);
    void tryRaise(const Address &addr, Tick now);

    dram::DramConfig dram_cfg_;
    PracConfig cfg_;
    dram::AlertSink *sink_;
    mutable sim::Rng rng_;

    std::vector<BankCounters> banks_;
    /** onRfm()'s banks in scope; reused so RFMs do not allocate. */
    std::vector<std::uint32_t> rfm_scope_;

    // Channel-scope alert state.
    bool alert_active_ = false;
    Tick cooldown_until_ = 0;
    std::uint32_t recovery_rfms_left_ = 0;

    // Bank-scope alert state (Bank-Level PRAC).
    std::vector<bool> bank_alert_active_;
    std::vector<Tick> bank_cooldown_until_;
    std::vector<std::uint32_t> bank_recovery_left_;

    std::uint64_t alerts_ = 0;
};

} // namespace leaky::defense

#endif // LEAKY_DEFENSE_PRAC_HH
