/**
 * @file
 * Trace-driven core model (the gem5 substitute, §5.1). Replays a trace
 * of (non-memory instruction count, memory access) records through a
 * private cache hierarchy with an instruction-window + MSHR limit, the
 * standard simplified out-of-order front-end used with DRAM simulators:
 * the core runs ahead up to `window` instructions past the oldest
 * outstanding load and sustains up to `mshrs` parallel misses.
 *
 * Cores loop their trace forever (to keep exerting pressure in multi-
 * programmed mixes) but record the tick at which they retire their
 * measurement budget; IPC over that budget feeds weighted speedup
 * (Fig. 13).
 */

#ifndef LEAKY_SYS_CORE_HH
#define LEAKY_SYS_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sys/cache.hh"
#include "sys/prefetcher.hh"
#include "sys/system.hh"

namespace leaky::sys {

/** One trace record: compute burst followed by one memory access. */
struct TraceEntry {
    std::uint64_t addr = 0;
    std::uint32_t non_mem_insts = 0;
    bool is_write = false;
};
static_assert(sizeof(TraceEntry) == 16, "a trace record is 16 bytes");

/** An immutable trace that any number of cores replay at once (the
 *  Fig. 13 cells of one mix share one copy per app). */
using SharedTrace = std::shared_ptr<const std::vector<TraceEntry>>;

/** Core model parameters (paper Table 1: 4-wide OoO at 3 GHz). */
struct CoreConfig {
    double issue_ipc = 4.0;       ///< Peak instructions per cycle.
    double freq_ghz = 3.0;
    std::uint32_t window = 192;   ///< Max insts past oldest pending load.
    std::uint32_t mshrs = 16;     ///< Max outstanding memory reads.
    std::uint64_t inst_budget = 1'000'000; ///< Measurement length.
    bool enable_prefetcher = false;
    CacheHierarchyConfig caches = CacheHierarchyConfig::paperDefault();
};

/** Trace-replaying core. */
class TraceCore
{
  public:
    /** Replay @p trace, which the core shares and never modifies.
     *  The trailing int (a requestor id nothing reads) is ignored; it
     *  is kept only while figbench/layers.cc still passes it. */
    TraceCore(System &system, const CoreConfig &cfg, SharedTrace trace,
              std::int32_t = 0);

    /** Replay a trace of the core's own (trailing int ignored, as
     *  above). */
    TraceCore(System &system, const CoreConfig &cfg,
              std::vector<TraceEntry> trace, std::int32_t = 0);

    /** Begin execution at the current simulation time. */
    void start();

    /** Instructions retired so far. */
    std::uint64_t instsRetired() const { return insts_retired_; }

    /** True once the measurement budget has been retired. */
    bool budgetDone() const { return finish_tick_ != 0; }

    /** Tick at which the budget was retired (0 if not yet). */
    Tick finishTick() const { return finish_tick_; }

    /** Tick at which the core started executing. */

    /** IPC over the measurement budget (valid once budgetDone()). */
    double measuredIpc() const;

    /** IPC of whatever has retired by @p now (for capped runs). */
    double ipcAt(Tick now) const;

    const CacheHierarchy &caches() const { return caches_; }
    std::uint64_t memReads() const { return mem_reads_; }
    std::uint64_t memWrites() const { return mem_writes_; }

  private:
    void dispatch();
    void onLoadDone(std::uint64_t inst_index);
    void onFill(std::uint64_t addr);
    void install(std::uint64_t addr, bool dirty);
    void retire(std::uint64_t insts);
    Tick instTicks(std::uint64_t insts) const;
    void issuePrefetch(std::uint64_t line_addr);

    /** A load waiting on an in-flight line fill (MSHR coalescing). */
    struct Waiter {
        std::uint64_t line;
        std::uint64_t inst;
    };

    System &system_;
    CoreConfig cfg_;
    SharedTrace trace_;
    CacheHierarchy caches_;
    BestOffsetPrefetcher prefetcher_;

    std::size_t trace_pos_ = 0;
    std::uint64_t insts_dispatched_ = 0;
    std::uint64_t insts_retired_ = 0;
    Tick ready_time_ = 0;           ///< Core-local dispatch clock.
    // Flat and reserved to `mshrs` (outstanding loads never exceed
    // it), so steady-state dispatch does not allocate.
    std::vector<std::uint64_t> outstanding_; ///< Load insts, oldest first.
    std::vector<Waiter> waiters_;            ///< In issue order.
    std::vector<std::uint64_t> woken_;       ///< Scratch for onFill().
    CacheHierarchy::Result fill_;            ///< Reused writeback list.
    bool wake_pending_ = false;
    Tick start_tick_ = 0;
    Tick finish_tick_ = 0;
    std::uint64_t mem_reads_ = 0;
    std::uint64_t mem_writes_ = 0;
};

} // namespace leaky::sys

#endif // LEAKY_SYS_CORE_HH
