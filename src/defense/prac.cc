#include "defense/prac.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace leaky::defense {

using dram::Command;

PracDefense::PracDefense(const dram::DramConfig &dram_cfg,
                         const PracConfig &cfg, dram::AlertSink *sink)
    : dram_cfg_(dram_cfg), cfg_(cfg), sink_(sink), rng_(cfg.seed),
      banks_(dram_cfg.org.totalBanks()),
      bank_alert_active_(dram_cfg.org.totalBanks(), false),
      bank_cooldown_until_(dram_cfg.org.totalBanks(), 0),
      bank_recovery_left_(dram_cfg.org.totalBanks(), 0)
{
    LEAKY_ASSERT(sink_ != nullptr, "PRAC needs an alert sink");
    rfm_scope_.reserve(dram_cfg.org.bankgroups *
                       dram_cfg.org.banks_per_group);
    if (cfg_.riac && cfg_.riac_init_max == 0)
        cfg_.riac_init_max = cfg_.nbo;
}

std::uint32_t
PracDefense::flatBank(const Address &a) const
{
    return dram_cfg_.org.flatOf(a);
}

std::uint32_t
PracDefense::initValue()
{
    // RIAC: randomise on boot AND after every service (§11.2).
    if (cfg_.riac)
        return static_cast<std::uint32_t>(
            rng_.below(cfg_.riac_init_max));
    return 0;
}

std::uint32_t &
PracDefense::counter(const Address &a)
{
    auto &rows = banks_[flatBank(a)].rows;
    auto it = rows.find(a.row);
    if (it == rows.end()) {
        // First touch: warm-started counters model mid-lifetime state.
        const std::uint32_t first =
            cfg_.warm_start && !cfg_.riac
                ? static_cast<std::uint32_t>(rng_.below(cfg_.nbo))
                : initValue();
        it = rows.emplace(a.row, first).first;
    }
    return it->second;
}

std::uint32_t
PracDefense::counterValue(const Address &addr) const
{
    const auto &rows = banks_[flatBank(addr)].rows;
    const auto it = rows.find(addr.row);
    // Untouched rows under RIAC have an as-yet-unsampled random value;
    // report 0 (the value is only materialised on first close).
    return it == rows.end() ? 0 : it->second;
}

std::uint32_t
PracDefense::maxCounter() const
{
    std::uint32_t best = 0;
    for (const auto &bank : banks_) {
        for (const auto &entry : bank.rows)
            best = std::max(best, entry.second);
    }
    return best;
}

void
PracDefense::onActivate(const Address &, Tick)
{
    // PRAC counts at row close (paper §6.1), not at activation.
}

void
PracDefense::onPrecharge(const Address &addr, Tick now)
{
    auto &count = counter(addr);
    count += 1;
    if (count >= cfg_.nbo)
        tryRaise(addr, now);
}

void
PracDefense::onRefresh(std::uint32_t, Tick)
{
    // Activation counters persist across periodic refreshes; they are
    // only serviced by RFMs (back-off recovery).
}

void
PracDefense::tryRaise(const Address &addr, Tick now)
{
    if (cfg_.bank_level) {
        const auto fb = flatBank(addr);
        if (bank_alert_active_[fb] || now < bank_cooldown_until_[fb])
            return;
        bank_alert_active_[fb] = true;
        bank_recovery_left_[fb] = cfg_.rfms_per_backoff;
        alerts_ += 1;
        dram::AlertInfo info;
        info.asserted_at = now;
        info.bank_scoped = true;
        info.bank = addr;
        sink_->raiseAlert(info);
        return;
    }

    if (alert_active_ || now < cooldown_until_)
        return;
    alert_active_ = true;
    recovery_rfms_left_ =
        cfg_.rfms_per_backoff * dram_cfg_.org.ranks;
    alerts_ += 1;
    dram::AlertInfo info;
    info.asserted_at = now;
    info.bank_scoped = false;
    sink_->raiseAlert(info);
}

void
PracDefense::resetTopCounter(const std::vector<std::uint32_t> &flat_banks)
{
    std::uint32_t *top = nullptr;
    std::uint32_t top_count = 0;
    for (auto fb : flat_banks) {
        // Within a bank, pick the hottest row with the lowest row id
        // on ties — an explicit total order, so the serviced row never
        // depends on unordered_map iteration order (which is not part
        // of the bit-identical reproduction contract). Cross-bank ties
        // keep the earliest bank in the command's scope order.
        std::uint32_t *best = nullptr;
        std::uint32_t best_count = 0;
        std::uint32_t best_row = 0;
        for (auto &entry : banks_[fb].rows) {
            if (!best || entry.second > best_count ||
                (entry.second == best_count && entry.first < best_row)) {
                best = &entry.second;
                best_count = entry.second;
                best_row = entry.first;
            }
        }
        if (best && (!top || best_count > top_count)) {
            top = best;
            top_count = best_count;
        }
    }
    // Refreshing the victims of the top aggressor resets its counter;
    // RIAC re-randomises instead (§11.2).
    if (top)
        *top = initValue();
}

void
PracDefense::onRfm(Command kind, const Address &addr, bool during_backoff,
                   Tick now)
{
    // Each RFM window services ONE aggressor row: the device refreshes
    // the victims of the highest activation counter reachable by the
    // command's scope (§6.1: a 4-RFM back-off covers four aggressors).
    auto &scope = rfm_scope_;
    scope.clear();
    if (kind == Command::kRfmAll) {
        for (std::uint32_t bg = 0; bg < dram_cfg_.org.bankgroups; ++bg) {
            for (std::uint32_t b = 0; b < dram_cfg_.org.banks_per_group;
                 ++b) {
                scope.push_back(dram_cfg_.org.flatBank(addr.rank, bg, b));
            }
        }
    } else if (kind == Command::kRfmSameBank) {
        for (std::uint32_t bg = 0; bg < dram_cfg_.org.bankgroups; ++bg)
            scope.push_back(dram_cfg_.org.flatBank(addr.rank, bg,
                                                   addr.bank));
    } else if (kind == Command::kRfmOneBank) {
        scope.push_back(flatBank(addr));
    }
    resetTopCounter(scope);

    if (!during_backoff)
        return;

    const Tick window = dram_cfg_.timing.tRFM_backoff;
    if (cfg_.bank_level && kind == Command::kRfmOneBank) {
        const auto fb = flatBank(addr);
        if (bank_recovery_left_[fb] > 0) {
            bank_recovery_left_[fb] -= 1;
            if (bank_recovery_left_[fb] == 0) {
                bank_alert_active_[fb] = false;
                bank_cooldown_until_[fb] = now + window + cfg_.cooldown;
            }
        }
    } else if (!cfg_.bank_level && recovery_rfms_left_ > 0) {
        recovery_rfms_left_ -= 1;
        if (recovery_rfms_left_ == 0) {
            alert_active_ = false;
            cooldown_until_ = now + window + cfg_.cooldown;
        }
    }
}

} // namespace leaky::defense
