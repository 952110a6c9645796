#include "ctrl/controller.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace leaky::ctrl {

using dram::Command;
using dram::RowStatus;
using sim::kTickMax;

MemoryController::MemoryController(sim::EventQueue &eq, const CtrlConfig &cfg,
                                   std::uint32_t channel_id)
    : eq_(eq), cfg_(cfg), channel_id_(channel_id), chan_(cfg.dram),
      sched_(cfg.dram.org, cfg.column_cap),
      refresh_(cfg.dram.timing.tREFI, cfg.deterministic_refresh ? 1 : 2),
      defense_(&null_defense_),
      read_q_(cfg_.dram.org, cfg.read_queue_depth),
      write_q_(cfg_.dram.org, cfg.write_queue_depth),
      ref_issued_(cfg.dram.org.ranks, false),
      abo_rfms_left_(cfg.dram.org.ranks, 0),
      next_det_ref_(cfg.dram.timing.tREFI),
      tick_event_(sim::memberEvent<&MemoryController::tick>(this)),
      abo_timer_(sim::memberEvent<&MemoryController::onAboDeadline>(this))
{
    // Self-clock from t=0 so timers (periodic refresh, FR-RFM grids)
    // run even on an otherwise idle system.
    eq_.schedule(tick_event_, eq_.now());
}

void
MemoryController::setControllerDefense(ControllerDefense *defense)
{
    defense_ = defense ? defense : &null_defense_;
}

void
MemoryController::setDeviceHooks(dram::DeviceHooks *hooks)
{
    chan_.setHooks(hooks);
}

void
MemoryController::notify(PreventiveEvent ev, Tick start, Tick end,
                         const Address &addr)
{
    if (listener_)
        listener_(ev, start, end, addr);
}

bool
MemoryController::enqueue(Request &&req)
{
    const bool is_read = req.type == Request::Type::kRead;
    auto &q = is_read ? read_q_ : write_q_;
    const auto depth = is_read ? cfg_.read_queue_depth
                               : cfg_.write_queue_depth;
    if (q.size() >= depth)
        return false;

    QueueEntry entry;
    entry.arrival = eq_.now();
    entry.order = next_order_++;
    entry.req = std::move(req); // push() annotates the address.

    if (!is_read && entry.req.on_complete) {
        // Posted write: completes (from the CPU's view) on acceptance.
        eq_.schedule(eq_.now(), std::move(entry.req.on_complete));
    }
    q.push(std::move(entry));
    last_activity_ = eq_.now();
    scheduleWake(std::max(eq_.now(), next_cmd_at_));
    return true;
}

void
MemoryController::raiseAlert(const dram::AlertInfo &info)
{
    const Tick now = eq_.now();
    const auto &t = cfg_.dram.timing;

    if (info.bank_scoped) {
        BankTask task;
        task.rfm.kind = Command::kRfmOneBank;
        task.rfm.target = info.bank;
        cfg_.dram.org.annotate(task.rfm.target);
        task.rfm.latency_override = t.tRFM_backoff;
        task.remaining = cfg_.rfms_per_backoff;
        task.active_after = now + t.tAlert + t.tABOACT;
        task.start = now + t.tAlert;
        task.from_alert = true;
        bank_tasks_.push_back(task);
        scheduleWake(task.active_after);
        return;
    }

    alert_wait_ = true;
    alert_at_ = now + t.tAlert;
    abo_deadline_ = alert_at_ + t.tABOACT;
    eq_.reschedule(abo_timer_, abo_deadline_);
}

void
MemoryController::onAboDeadline()
{
    alert_wait_ = false;
    abo_pending_ = true;
    maybeStartAbo();
    tick();
}

void
MemoryController::maybeStartAbo()
{
    if (!abo_pending_ || mode_ != Mode::kNormal)
        return;
    abo_pending_ = false;
    mode_ = Mode::kAboDrain;
    abo_start_ = eq_.now();
    abo_last_end_ = 0;
    std::fill(abo_rfms_left_.begin(), abo_rfms_left_.end(),
              cfg_.rfms_per_backoff);
}

void
MemoryController::scheduleWake(Tick when)
{
    // A drain step can become ready "now" right after another command
    // issued; the wake then lands at next_cmd_at_, which may sit just
    // behind the clock. Clamp rather than schedule into the past.
    when = std::max(when, eq_.now());
    if (tick_event_.scheduled() && tick_event_.when() <= when)
        return;
    eq_.reschedule(tick_event_, when);
}

void
MemoryController::tick()
{
    const Tick now = eq_.now();
    idle_pick_valid_ = false;
    refresh_.update(now);

    // Batched issue: drain every command issuable at this tick in one
    // wake-up instead of re-entering through the event queue once per
    // command. With a non-zero cmd_gap the body runs at most once per
    // tick (issuing moves next_cmd_at_ past now); with cmd_gap == 0 a
    // same-tick batch issues atomically, before any other event
    // scheduled at this tick runs.
    bool issued = false;
    while (now >= next_cmd_at_ && tryIssueOne(now))
        issued = true;

    if (issued || now != last_tick_at_) {
        last_tick_at_ = now;
        stalled_ticks_ = 0;
    } else if (++stalled_ticks_ > 100'000) {
        sim::panic("controller livelocked at tick %llu "
                   "(mode=%d rq=%zu wq=%zu tasks=%zu precise=%d)",
                   static_cast<unsigned long long>(now),
                   static_cast<int>(mode_), read_q_.size(),
                   write_q_.size(), bank_tasks_.size(),
                   precise_.has_value() ? 1 : 0);
    }
    scheduleWake(computeNextWake(eq_.now()));
}

bool
MemoryController::tryIssueOne(Tick now)
{
    switch (mode_) {
      case Mode::kRefDrain:
        return progressRefDrain(now);
      case Mode::kAboDrain:
        return progressAboDrain(now);
      case Mode::kPreciseDrain:
        return progressPreciseDrain(now);
      case Mode::kNormal:
        break;
    }

    pollDefense(now);
    if (mode_ == Mode::kPreciseDrain)
        return progressPreciseDrain(now);

    if (!cfg_.deterministic_refresh) {
        const bool idle = read_q_.empty() && write_q_.empty() &&
                          bank_tasks_.empty() &&
                          now >= last_activity_ +
                                     cfg_.refresh_idle_threshold;
        if (refresh_.mustRefresh() || (refresh_.canRefresh() && idle)) {
            mode_ = Mode::kRefDrain;
            ref_rounds_left_ = refresh_.owed();
            ref_start_ = now;
            std::fill(ref_issued_.begin(), ref_issued_.end(), false);
            return progressRefDrain(now);
        }
    }

    if (progressBankTasks(now))
        return true;
    return serveQueues(now);
}

void
MemoryController::pollDefense(Tick now)
{
    // Deterministic (pattern-independent) refresh takes priority so that
    // its grid never depends on what the defense wants.
    if (cfg_.deterministic_refresh && !precise_ &&
        now + cfg_.drain_lead >= next_det_ref_) {
        PreciseTask task;
        task.at = next_det_ref_;
        task.is_ref = true;
        next_det_ref_ += cfg_.dram.timing.tREFI;
        precise_ = task;
        std::fill(ref_issued_.begin(), ref_issued_.end(), false);
        mode_ = Mode::kPreciseDrain;
        return;
    }

    while (auto rfm = defense_->pendingRfm(now)) {
        if (rfm->precise) {
            PreciseTask task;
            task.at = rfm->scheduled_at;
            task.is_ref = false;
            task.rfm = *rfm;
            precise_ = task;
            std::fill(ref_issued_.begin(), ref_issued_.end(), false);
            mode_ = Mode::kPreciseDrain;
            return;
        }
        BankTask task;
        task.rfm = *rfm;
        cfg_.dram.org.annotate(task.rfm.target);
        task.remaining = 1;
        task.active_after = now;
        task.from_alert = false;
        bank_tasks_.push_back(task);
    }
}

bool
MemoryController::progressRefDrain(Tick now)
{
    const auto ranks = cfg_.dram.org.ranks;
    for (std::uint32_t r = 0; r < ranks; ++r) {
        if (chan_.allBanksClosed(r))
            continue;
        Address a;
        a.channel = channel_id_;
        a.rank = r;
        if (chan_.earliestIssue(Command::kPreAll, a) > now)
            continue;
        chan_.issue(Command::kPreAll, a, now);
        next_cmd_at_ = now + cfg_.cmd_gap;
        return true;
    }
    for (std::uint32_t r = 0; r < ranks; ++r) {
        if (ref_issued_[r])
            continue;
        Address a;
        a.channel = channel_id_;
        a.rank = r;
        if (!chan_.allBanksClosed(r) ||
            chan_.earliestIssue(Command::kRef, a) > now) {
            continue;
        }
        const Tick end = chan_.issue(Command::kRef, a, now);
        ref_issued_[r] = true;
        next_cmd_at_ = now + cfg_.cmd_gap;
        const bool round_done =
            std::all_of(ref_issued_.begin(), ref_issued_.end(),
                        [](bool b) { return b; });
        if (round_done) {
            refresh_.onRefIssued();
            stats_.refreshes += 1;
            notify(PreventiveEvent::kRefresh, ref_start_, end, a);
            ref_rounds_left_ -= 1;
            if (ref_rounds_left_ > 0 && refresh_.canRefresh()) {
                std::fill(ref_issued_.begin(), ref_issued_.end(), false);
            } else {
                mode_ = Mode::kNormal;
                sched_.resetStreaks();
                maybeStartAbo();
            }
        }
        return true;
    }
    return false;
}

bool
MemoryController::progressAboDrain(Tick now)
{
    const auto ranks = cfg_.dram.org.ranks;
    for (std::uint32_t r = 0; r < ranks; ++r) {
        if (chan_.allBanksClosed(r))
            continue;
        Address a;
        a.channel = channel_id_;
        a.rank = r;
        if (chan_.earliestIssue(Command::kPreAll, a) > now)
            continue;
        chan_.issue(Command::kPreAll, a, now);
        next_cmd_at_ = now + cfg_.cmd_gap;
        return true;
    }
    for (std::uint32_t r = 0; r < ranks; ++r) {
        if (abo_rfms_left_[r] == 0)
            continue;
        Address a;
        a.channel = channel_id_;
        a.rank = r;
        if (!chan_.allBanksClosed(r) ||
            chan_.earliestIssue(Command::kRfmAll, a) > now) {
            continue;
        }
        const Tick end = chan_.issue(Command::kRfmAll, a, now,
                                     cfg_.dram.timing.tRFM_backoff,
                                     /*during_backoff=*/true);
        abo_last_end_ = std::max(abo_last_end_, end);
        abo_rfms_left_[r] -= 1;
        next_cmd_at_ = now + cfg_.cmd_gap;
        const bool done =
            std::all_of(abo_rfms_left_.begin(), abo_rfms_left_.end(),
                        [](std::uint32_t n) { return n == 0; });
        if (done) {
            stats_.backoffs += 1;
            notify(PreventiveEvent::kBackoff, alert_at_, abo_last_end_, a);
            mode_ = Mode::kNormal;
            sched_.resetStreaks();
        }
        return true;
    }
    return false;
}

bool
MemoryController::progressPreciseDrain(Tick now)
{
    LEAKY_ASSERT(precise_.has_value(), "precise drain without a task");
    const auto ranks = cfg_.dram.org.ranks;
    PreciseTask &task = *precise_;

    for (std::uint32_t r = 0; r < ranks; ++r) {
        if (chan_.allBanksClosed(r))
            continue;
        Address a;
        a.channel = channel_id_;
        a.rank = r;
        if (chan_.earliestIssue(Command::kPreAll, a) > now)
            continue;
        chan_.issue(Command::kPreAll, a, now);
        next_cmd_at_ = now + cfg_.cmd_gap;
        return true;
    }
    if (now < task.at)
        return false;

    for (std::uint32_t r = 0; r < ranks; ++r) {
        if (ref_issued_[r])
            continue;
        Address a;
        a.channel = channel_id_;
        a.rank = r;
        const Command cmd = task.is_ref ? Command::kRef : Command::kRfmAll;
        if (!chan_.allBanksClosed(r) ||
            chan_.earliestIssue(cmd, a) > now) {
            continue;
        }
        Tick end;
        if (task.is_ref) {
            end = chan_.issue(Command::kRef, a, now);
        } else {
            end = chan_.issue(Command::kRfmAll, a, now,
                              task.rfm.latency_override,
                              /*during_backoff=*/false);
        }
        ref_issued_[r] = true;
        next_cmd_at_ = now + cfg_.cmd_gap;
        if (r == 0 && now > task.at)
            stats_.precise_slips += 1;
        const bool done =
            std::all_of(ref_issued_.begin(), ref_issued_.end(),
                        [](bool b) { return b; });
        if (done) {
            if (task.is_ref) {
                refresh_.update(now);
                refresh_.onRefIssued();
                stats_.refreshes += 1;
                notify(PreventiveEvent::kRefresh, task.at, end, a);
            } else {
                stats_.rfms += 1;
                defense_->onRfmIssued(task.rfm, task.at, end);
                notify(PreventiveEvent::kRfm, task.at, end, a);
            }
            precise_.reset();
            mode_ = Mode::kNormal;
            sched_.resetStreaks();
            maybeStartAbo();
        }
        return true;
    }
    return false;
}

const std::vector<Address> &
MemoryController::taskBanks(const BankTask &task) const
{
    auto &banks = task_banks_scratch_;
    banks.clear();
    if (task.rfm.kind == Command::kRfmSameBank) {
        for (std::uint32_t bg = 0; bg < cfg_.dram.org.bankgroups; ++bg) {
            Address a = task.rfm.target;
            a.bankgroup = bg;
            cfg_.dram.org.annotate(a);
            banks.push_back(a);
        }
    } else {
        banks.push_back(task.rfm.target);
    }
    return banks;
}

bool
MemoryController::progressBankTasks(Tick now)
{
    for (std::size_t i = 0; i < bank_tasks_.size(); ++i) {
        BankTask &task = bank_tasks_[i];
        if (now < task.active_after)
            continue;

        bool any_open = false;
        for (const Address &b : taskBanks(task)) {
            if (chan_.openRow(b) == dram::DramChannel::kNoRow)
                continue;
            any_open = true;
            if (chan_.earliestIssue(Command::kPre, b) <= now) {
                chan_.issue(Command::kPre, b, now);
                next_cmd_at_ = now + cfg_.cmd_gap;
                return true;
            }
        }
        if (any_open)
            continue; // PRE pending; try other tasks.

        if (chan_.earliestIssue(task.rfm.kind, task.rfm.target) > now)
            continue;
        const Tick end = chan_.issue(task.rfm.kind, task.rfm.target, now,
                                     task.rfm.latency_override,
                                     task.from_alert);
        if (task.start == 0)
            task.start = now;
        next_cmd_at_ = now + cfg_.cmd_gap;
        task.remaining -= 1;
        if (task.remaining == 0) {
            if (task.from_alert) {
                stats_.bank_backoffs += 1;
                notify(PreventiveEvent::kBankBackoff, task.start, end,
                       task.rfm.target);
            } else {
                PreventiveEvent ev = PreventiveEvent::kRfm;
                switch (task.rfm.action) {
                  case PreventiveActionKind::kRfm:
                    stats_.rfms += 1;
                    break;
                  case PreventiveActionKind::kVictimRefresh:
                    stats_.targeted_refreshes += 1;
                    ev = PreventiveEvent::kTargetedRefresh;
                    break;
                  case PreventiveActionKind::kCounterFetch:
                    stats_.counter_fetches += 1;
                    ev = PreventiveEvent::kCounterFetch;
                    break;
                }
                defense_->onRfmIssued(task.rfm, task.start, end);
                notify(ev, task.start, end, task.rfm.target);
            }
            bank_tasks_.erase(bank_tasks_.begin() +
                              static_cast<std::ptrdiff_t>(i));
        }
        return true;
    }
    return false;
}

bool
MemoryController::bankFilterThunk(const void *ctx, const Address &addr)
{
    const auto *mc = static_cast<const MemoryController *>(ctx);
    return mc->bankBlocked(addr, mc->filter_now_);
}

BankFilter
MemoryController::bankFilter(Tick now) const
{
    if (bank_tasks_.empty())
        return BankFilter{};
    filter_now_ = now;
    return BankFilter{&MemoryController::bankFilterThunk, this};
}

bool
MemoryController::bankBlocked(const Address &addr, Tick now) const
{
    for (const auto &task : bank_tasks_) {
        if (now < task.active_after)
            continue;
        if (task.rfm.kind == Command::kRfmSameBank) {
            if (addr.rank == task.rfm.target.rank &&
                addr.bank == task.rfm.target.bank) {
                return true;
            }
        } else if (addr.rank == task.rfm.target.rank &&
                   addr.bankgroup == task.rfm.target.bankgroup &&
                   addr.bank == task.rfm.target.bank) {
            return true;
        }
    }
    return false;
}

RequestQueue &
MemoryController::activeQueue()
{
    return servingWrites() ? write_q_ : read_q_;
}

bool
MemoryController::servingWrites()
{
    if (write_q_.size() >= cfg_.wq_drain_high)
        draining_writes_ = true;
    if (draining_writes_ && write_q_.size() <= cfg_.wq_drain_low)
        draining_writes_ = false;
    return draining_writes_ || (read_q_.empty() && !write_q_.empty());
}

bool
MemoryController::serveQueues(Tick now)
{
    auto &q = activeQueue();
    if (q.empty()) {
        idle_pick_.reset();
        idle_pick_valid_ = true;
        return false;
    }

    const auto decision = sched_.pick(q, chan_, bankFilter(now), now);
    if (!decision || decision->earliest > now) {
        // Nothing issued, so no state changed between here and the
        // wake-up computation at the end of this tick: let it reuse
        // the decision instead of re-scanning the queue.
        idle_pick_ = decision;
        idle_pick_valid_ = true;
        return false;
    }

    QueueEntry &entry = q[decision->index];
    issueAndAccount(decision->cmd, entry, now);
    if (decision->cmd == Command::kRd || decision->cmd == Command::kWr)
        q.erase(decision->index);
    return true;
}

void
MemoryController::issueAndAccount(Command cmd, QueueEntry &entry, Tick now)
{
    // NOTE: `entry` aliases into the queue; take what we need up front
    // because chan_.issue() may reenter raiseAlert().
    const Address addr = entry.req.addr;
    const RowStatus status = chan_.rowStatus(addr);
    const bool was_hit = status == RowStatus::kHit;

    if (!entry.classified) {
        entry.classified = true;
        switch (status) {
          case RowStatus::kHit: stats_.row_hits += 1; break;
          case RowStatus::kEmpty: stats_.row_misses += 1; break;
          case RowStatus::kConflict: stats_.row_conflicts += 1; break;
        }
    }

    const Tick done = chan_.issue(cmd, addr, now);
    next_cmd_at_ = now + cfg_.cmd_gap;
    sched_.onIssue(addr, cmd, was_hit);

    if (cmd == Command::kAct) {
        defense_->onActivate(addr, now);
    } else if (cmd == Command::kRd) {
        stats_.reads_served += 1;
        stats_.read_latency_sum += done - entry.arrival;
        if (entry.req.on_complete)
            eq_.schedule(done, std::move(entry.req.on_complete));
    } else if (cmd == Command::kWr) {
        stats_.writes_served += 1;
    }
}

Tick
MemoryController::computeNextWake(Tick now)
{
    Tick wake = kTickMax;
    const auto consider = [&wake](Tick t) { wake = std::min(wake, t); };
    const auto ranks = cfg_.dram.org.ranks;

    const auto considerDrainStep = [&](bool issuing_ref,
                                       bool during_backoff) {
        for (std::uint32_t r = 0; r < ranks; ++r) {
            Address a;
            a.channel = channel_id_;
            a.rank = r;
            if (!chan_.allBanksClosed(r)) {
                consider(chan_.earliestIssue(Command::kPreAll, a));
            } else if (issuing_ref) {
                if (!ref_issued_[r])
                    consider(chan_.earliestIssue(Command::kRef, a));
            } else if (during_backoff) {
                if (abo_rfms_left_[r] > 0)
                    consider(chan_.earliestIssue(Command::kRfmAll, a));
            } else {
                if (!ref_issued_[r])
                    consider(chan_.earliestIssue(Command::kRfmAll, a));
            }
        }
    };

    switch (mode_) {
      case Mode::kRefDrain:
        considerDrainStep(/*issuing_ref=*/true, false);
        break;
      case Mode::kAboDrain:
        considerDrainStep(/*issuing_ref=*/false, /*during_backoff=*/true);
        break;
      case Mode::kPreciseDrain: {
        LEAKY_ASSERT(precise_.has_value(), "precise drain without task");
        // Drain steps (PREA) may proceed immediately, but the REF/RFM
        // itself is gated on the scheduled tick: before precise_->at,
        // only the deadline itself is a valid wake-up for it.
        for (std::uint32_t r = 0; r < ranks; ++r) {
            Address a;
            a.channel = channel_id_;
            a.rank = r;
            if (!chan_.allBanksClosed(r)) {
                consider(chan_.earliestIssue(Command::kPreAll, a));
            } else if (!ref_issued_[r] && now >= precise_->at) {
                consider(chan_.earliestIssue(
                    precise_->is_ref ? Command::kRef : Command::kRfmAll,
                    a));
            }
        }
        if (now < precise_->at)
            consider(precise_->at);
        break;
      }
      case Mode::kNormal: {
        // Queued requests. If serveQueues() already ran this tick and
        // issued nothing, its decision is still valid; otherwise scan.
        auto &q = activeQueue();
        const std::optional<SchedDecision> d =
            idle_pick_valid_ ? idle_pick_
                             : sched_.pick(q, chan_, bankFilter(now), now);
        if (d) {
            // Early out: the final wake is max(min(candidates),
            // next_cmd_at_), so any candidate at or before
            // next_cmd_at_ pins it there exactly -- the remaining
            // candidates can only lower the (clamped-away) minimum.
            if (d->earliest <= next_cmd_at_)
                return next_cmd_at_;
            consider(d->earliest);
        }

        // Bank tasks (RFMsb / bank back-offs).
        for (const auto &task : bank_tasks_) {
            if (now < task.active_after) {
                consider(task.active_after);
                continue;
            }
            bool any_open = false;
            for (const Address &b : taskBanks(task)) {
                if (chan_.openRow(b) != dram::DramChannel::kNoRow) {
                    any_open = true;
                    consider(chan_.earliestIssue(Command::kPre, b));
                }
            }
            if (!any_open)
                consider(chan_.earliestIssue(task.rfm.kind,
                                             task.rfm.target));
        }

        // Refresh and defense timers.
        if (cfg_.deterministic_refresh) {
            consider(next_det_ref_ > cfg_.drain_lead
                         ? next_det_ref_ - cfg_.drain_lead
                         : 0);
        } else {
            consider(refresh_.nextDue());
            if (refresh_.canRefresh() && read_q_.empty() &&
                write_q_.empty() && bank_tasks_.empty()) {
                consider(last_activity_ + cfg_.refresh_idle_threshold);
            }
        }
        consider(defense_->nextEventTick(now));
        break;
      }
    }

    if (wake == kTickMax)
        return kTickMax;
    return std::max(wake, next_cmd_at_);
}

} // namespace leaky::ctrl
