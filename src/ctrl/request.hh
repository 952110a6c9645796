/**
 * @file
 * Memory requests as seen by the memory controller, plus per-controller
 * statistics used by tests and benchmarks.
 */

#ifndef LEAKY_CTRL_REQUEST_HH
#define LEAKY_CTRL_REQUEST_HH

#include <cstdint>
#include <tuple>

#include "dram/types.hh"
#include "sim/event_queue.hh"

namespace leaky::ctrl {

using dram::Address;
using sim::Tick;

/** A cache-line read or write presented to the controller. */
struct Request {
    enum class Type : std::uint8_t { kRead, kWrite };

    // Ordered so these fields pack ahead of the 16-aligned SmallFn
    // without a padding hole.
    std::uint64_t phys_addr = 0;
    Address addr; ///< Decoded coordinates (filled by the system front-end).
    Type type = Type::kRead;

    /** Invoked when the data burst completes (reads) or when the write is
     *  accepted into the queue (posted writes); now() is that tick. The
     *  controller moves it into the completion event as is. */
    sim::SmallFn on_complete;
};

/** Aggregate controller statistics. */
struct CtrlStats {
    std::uint64_t reads_served = 0;
    std::uint64_t writes_served = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;   ///< Activations from empty banks.
    std::uint64_t row_conflicts = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rfms = 0;          ///< All RFM kinds.
    std::uint64_t targeted_refreshes = 0; ///< VRRs (tracker defenses).
    std::uint64_t counter_fetches = 0; ///< Hydra counter-cache fills.
    std::uint64_t backoffs = 0;      ///< ABO recoveries (channel scope).
    std::uint64_t bank_backoffs = 0; ///< Bank-Level PRAC recoveries.
    std::uint64_t precise_slips = 0; ///< Precise REF/RFMs issued late.
    Tick read_latency_sum = 0;       ///< Enqueue -> data completion.

    /** Activation-triggered preventive actions of every kind — the
     *  union of observables the covert receivers key on. */
    std::uint64_t
    preventiveActions() const
    {
        return backoffs + bank_backoffs + rfms + targeted_refreshes;
    }

    /** All fields as one tuple — THE canonical field list. A new
     *  counter must be added here, to operator+= below, and to the
     *  static_assert after the struct (which fails the build until
     *  both are visited). */
    auto
    tied() const
    {
        return std::tie(reads_served, writes_served, row_hits,
                        row_misses, row_conflicts, refreshes, rfms,
                        targeted_refreshes, counter_fetches, backoffs,
                        bank_backoffs, precise_slips,
                        read_latency_sum);
    }

    /** Full field-wise equality (aggregation self-checks). */
    bool
    operator==(const CtrlStats &o) const
    {
        return tied() == o.tied();
    }

    /** Field-wise accumulation (per-channel -> system aggregate). */
    CtrlStats &
    operator+=(const CtrlStats &o)
    {
        reads_served += o.reads_served;
        writes_served += o.writes_served;
        row_hits += o.row_hits;
        row_misses += o.row_misses;
        row_conflicts += o.row_conflicts;
        refreshes += o.refreshes;
        rfms += o.rfms;
        targeted_refreshes += o.targeted_refreshes;
        counter_fetches += o.counter_fetches;
        backoffs += o.backoffs;
        bank_backoffs += o.bank_backoffs;
        precise_slips += o.precise_slips;
        read_latency_sum += o.read_latency_sum;
        return *this;
    }
};

/** Field-drift guard: adding a CtrlStats counter changes the size and
 *  fails this assert until tied() and operator+= visit the field. */
static_assert(sizeof(CtrlStats) == 13 * sizeof(std::uint64_t),
              "update CtrlStats::tied() and operator+= for the new "
              "field, then adjust this size guard");

} // namespace leaky::ctrl

#endif // LEAKY_CTRL_REQUEST_HH
