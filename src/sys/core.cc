#include "sys/core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace leaky::sys {

TraceCore::TraceCore(System &system, const CoreConfig &cfg,
                     SharedTrace trace, std::int32_t)
    : system_(system), cfg_(cfg), trace_(std::move(trace)),
      caches_(cfg.caches)
{
    LEAKY_ASSERT(trace_ && !trace_->empty(), "core has an empty trace");
    outstanding_.reserve(cfg_.mshrs);
    waiters_.reserve(cfg_.mshrs);
    woken_.reserve(cfg_.mshrs);
    fill_.writebacks.reserve(1); // Only the LLC victim is written back.
}

TraceCore::TraceCore(System &system, const CoreConfig &cfg,
                     std::vector<TraceEntry> trace, std::int32_t)
    : TraceCore(system, cfg,
                std::make_shared<const std::vector<TraceEntry>>(
                    std::move(trace)))
{
}

Tick
TraceCore::instTicks(std::uint64_t insts) const
{
    const double ticks_per_inst =
        1000.0 / (cfg_.issue_ipc * cfg_.freq_ghz);
    return static_cast<Tick>(static_cast<double>(insts) * ticks_per_inst);
}

void
TraceCore::start()
{
    start_tick_ = system_.now();
    ready_time_ = start_tick_;
    dispatch();
}

void
TraceCore::retire(std::uint64_t insts)
{
    insts_retired_ += insts;
    if (finish_tick_ == 0 && insts_retired_ >= cfg_.inst_budget)
        finish_tick_ = std::max<Tick>(system_.now(), ready_time_);
}

double
TraceCore::measuredIpc() const
{
    LEAKY_ASSERT(finish_tick_ > start_tick_, "IPC queried before finish");
    const double cycles = static_cast<double>(finish_tick_ - start_tick_) *
                          cfg_.freq_ghz / 1000.0;
    return static_cast<double>(cfg_.inst_budget) / cycles;
}

double
TraceCore::ipcAt(Tick now) const
{
    if (budgetDone())
        return measuredIpc();
    if (now <= start_tick_)
        return 0.0;
    const double cycles = static_cast<double>(now - start_tick_) *
                          cfg_.freq_ghz / 1000.0;
    const auto insts = std::min(insts_retired_, cfg_.inst_budget);
    return static_cast<double>(insts) / cycles;
}

void
TraceCore::install(std::uint64_t addr, bool dirty)
{
    fill_.writebacks.clear();
    caches_.fill(addr, dirty, fill_);
    for (auto wb : fill_.writebacks)
        system_.issueWrite(wb);
}

void
TraceCore::issuePrefetch(std::uint64_t line_addr)
{
    const std::uint64_t addr = line_addr * 64;
    system_.issueRead(addr, [this, addr] {
        install(addr, false);
        prefetcher_.onFill(addr / 64);
    });
}

void
TraceCore::onFill(std::uint64_t addr)
{
    const std::uint64_t line = addr / 64;
    install(addr, false);
    if (cfg_.enable_prefetcher)
        prefetcher_.onFill(line);
    // Detach every waiter of this fill before waking any: a woken load
    // may miss on the same line again, and that needs a new fill.
    woken_.clear();
    std::size_t kept = 0;
    for (const Waiter &w : waiters_) {
        if (w.line == line)
            woken_.push_back(w.inst);
        else
            waiters_[kept++] = w;
    }
    waiters_.resize(kept);
    for (auto inst : woken_)
        onLoadDone(inst);
}

void
TraceCore::onLoadDone(std::uint64_t inst_index)
{
    const auto it = std::find(outstanding_.begin(), outstanding_.end(),
                              inst_index);
    LEAKY_ASSERT(it != outstanding_.end(), "unknown load completion");
    outstanding_.erase(it);
    retire(1);
    dispatch();
}

void
TraceCore::dispatch()
{
    const Tick now = system_.now();
    if (ready_time_ < now)
        ready_time_ = now;

    while (true) {
        // One event per trace record: once the dispatch clock moves past
        // "now", yield and resume via a scheduled wake-up. The pending
        // flag stays set until that wake fires, so dispatch() calls
        // from load completions do not schedule duplicates.
        if (ready_time_ > now) {
            if (!wake_pending_) {
                wake_pending_ = true;
                system_.schedule(ready_time_ - now, [this] {
                    wake_pending_ = false;
                    dispatch();
                });
            }
            return;
        }

        const TraceEntry &entry = (*trace_)[trace_pos_];
        const std::uint64_t last_inst =
            insts_dispatched_ + entry.non_mem_insts + 1;

        // Instruction-window limit past the oldest outstanding load.
        if (!outstanding_.empty() &&
            last_inst - outstanding_.front() > cfg_.window) {
            return; // Resumed by onLoadDone().
        }
        const bool is_load = !entry.is_write;
        if (is_load && outstanding_.size() >= cfg_.mshrs)
            return; // Resumed by onLoadDone().

        // Consume the compute burst.
        ready_time_ += instTicks(entry.non_mem_insts);
        retire(entry.non_mem_insts);

        if (is_load) {
            auto result = caches_.access(entry.addr, false);
            outstanding_.push_back(last_inst);
            if (result.hit) {
                const Tick done = ready_time_ + result.latency;
                system_.schedule(done - now, [this, last_inst] {
                    onLoadDone(last_inst);
                });
            } else {
                const std::uint64_t addr = entry.addr;
                const std::uint64_t line = addr / 64;
                // Coalesce when an MSHR already tracks this line.
                const bool in_flight = std::any_of(
                    waiters_.begin(), waiters_.end(),
                    [line](const Waiter &w) { return w.line == line; });
                waiters_.push_back({line, last_inst});
                if (!in_flight) {
                    mem_reads_ += 1;
                    const Tick issue_delay =
                        (ready_time_ - now) + result.latency;
                    system_.schedule(issue_delay, [this, addr] {
                        system_.issueRead(addr,
                                          [this, addr] { onFill(addr); });
                    });
                }
                if (cfg_.enable_prefetcher) {
                    if (auto pf = prefetcher_.onDemandMiss(addr / 64)) {
                        if (!caches_.access(*pf * 64, false).hit)
                            issuePrefetch(*pf);
                    }
                }
            }
        } else {
            // Store: write-allocate without a blocking fetch.
            if (!caches_.access(entry.addr, true).hit) {
                install(entry.addr, true);
                mem_writes_ += 1;
            }
            retire(1);
        }

        insts_dispatched_ = last_inst;
        if (++trace_pos_ == trace_->size())
            trace_pos_ = 0;
    }
}

} // namespace leaky::sys
