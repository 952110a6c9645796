/**
 * @file
 * Discrete-event simulation kernel. Components schedule callbacks at
 * absolute ticks; the queue executes them in (tick, insertion-order)
 * order so simulations are fully deterministic.
 *
 * The kernel is intrusive and slab-allocated: every scheduled occurrence
 * lives in a pooled Record (stable index, free-list reuse) identified
 * by a generation-counted handle. Steady-state scheduling performs no
 * heap allocation:
 *
 *  - reusable, member-bound Events (see sim::Event) carry only an
 *    object pointer and a function-pointer thunk;
 *  - one-shot callables are stored in a small-buffer SmallFn; only
 *    captures larger than SmallFn::kInlineBytes spill to the heap
 *    (counted in KernelStats::one_shot_spills);
 *  - cancellation unlinks the record at once and bumps its generation,
 *    so stale handles are refused instead of looked up in a map.
 *
 * Order comes from one indexed 4-ary min-heap of same-tick runs. A run
 * is an intrusive FIFO of live records that share one tick, in
 * schedule order. A schedule appends to the newest run of its tick,
 * found through a small fixed tick->run index, or starts a new run
 * with the next seq; the heap keys each run by (tick, start seq). Only
 * the newest run of a tick ever grows, so everything in an older run
 * of a tick was scheduled before everything in a newer one, and
 * draining the root run head first is exactly the global (tick,
 * schedule order) order. Popping or cancelling a record re-keys
 * nothing; only starting, moving or emptying a run touches the heap,
 * so a same-tick storm (thousands of retries on one tick) is O(1) per
 * pop. See docs/ARCHITECTURE.md ("Event order: a heap of same-tick
 * runs").
 */

#ifndef LEAKY_SIM_EVENT_QUEUE_HH
#define LEAKY_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/tick.hh"

namespace leaky::sim {

/** Identifier of one scheduled occurrence, usable for cancellation.
 *  Encodes (slot generation << 32) | (slot index + 1). */
using EventHandle = std::uint64_t;

/** Sentinel handle meaning "no event". */
inline constexpr EventHandle kNoEvent = 0;

class EventQueue;

/**
 * Type-erased move-only callable with a small inline buffer. Callables
 * up to kInlineBytes are stored in place (no heap allocation); larger
 * ones spill to a single heap cell.
 */
class SmallFn
{
  public:
    static constexpr std::size_t kInlineBytes = 48;

    SmallFn() = default;

    /** Wrap @p fn, e.g. `request.on_complete = [this] { ... };`. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn>>>
    SmallFn(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    SmallFn(SmallFn &&other) noexcept { moveFrom(other); }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    ~SmallFn() { reset(); }

    /** Store @p fn. @return true when it fit the inline buffer. */
    template <typename F>
    bool
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &>,
                      "SmallFn payload must be callable with no args");
        reset();
        // Inline storage requires a nothrow move: relocation happens
        // inside noexcept moves (and slab growth); a throwing-move
        // payload goes to the heap cell, whose relocation only copies
        // a pointer.
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
            return true;
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &kHeapOps<Fn>;
            return false;
        }
    }

    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** True when the payload lives in a heap cell (did not fit). */
    bool spilled() const { return ops_ != nullptr && ops_->spilled; }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src); ///< Move + destroy src.
        void (*destroy)(void *);
        bool spilled;
    };

    template <typename Fn> static const Ops kInlineOps;
    template <typename Fn> static const Ops kHeapOps;

    void
    moveFrom(SmallFn &other)
    {
        ops_ = other.ops_;
        if (ops_)
            ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

template <typename Fn>
const SmallFn::Ops SmallFn::kInlineOps = {
    [](void *p) { (*static_cast<Fn *>(p))(); },
    [](void *dst, void *src) {
        ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
        static_cast<Fn *>(src)->~Fn();
    },
    [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    false,
};

template <typename Fn>
const SmallFn::Ops SmallFn::kHeapOps = {
    [](void *p) { (**static_cast<Fn **>(p))(); },
    [](void *dst, void *src) {
        ::new (dst) Fn *(*static_cast<Fn **>(src));
    },
    [](void *p) { delete *static_cast<Fn **>(p); },
    true,
};

/**
 * A reusable, member-bound event: one object a component owns for its
 * lifetime and schedules over and over (self-clock ticks, deadlines,
 * timers). Scheduling a bound Event never allocates: the kernel stores
 * only the (context, thunk) pair. An Event may be scheduled at most
 * once at a time; use EventQueue::reschedule to move a pending one.
 *
 * Events must not outlive the queue they are scheduled on.
 */
class Event
{
  public:
    using Fn = void (*)(void *ctx);

    Event() = default;
    Event(void *ctx, Fn fn) : ctx_(ctx), fn_(fn) {}
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    inline ~Event(); ///< Deschedules itself if still pending.

    /** (Re)bind the callback; only valid while not scheduled. */
    void
    bind(void *ctx, Fn fn)
    {
        ctx_ = ctx;
        fn_ = fn;
    }

    bool scheduled() const { return handle_ != kNoEvent; }

    /** Tick of the pending occurrence (valid only while scheduled()). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    void *ctx_ = nullptr;
    Fn fn_ = nullptr;
    EventQueue *queue_ = nullptr;
    EventHandle handle_ = kNoEvent;
    Tick when_ = 0;
};

/** Build an Event bound to a member function of @p obj, e.g.
 *  `memberEvent<&MemoryController::tick>(this)`. */
template <auto Method, typename T>
Event
memberEvent(T *obj)
{
    return Event(obj, [](void *ctx) { (static_cast<T *>(ctx)->*Method)(); });
}

/**
 * Deterministic discrete-event queue.
 *
 * Events with equal ticks run in schedule order. Cancellation unlinks
 * the occurrence and bumps its slot's generation.
 */
class EventQueue
{
  public:
    /** Kernel health/perf counters (all monotonic). */
    struct KernelStats {
        std::uint64_t events_run = 0;      ///< Callbacks executed.
        std::uint64_t one_shot_spills = 0; ///< Captures too big for SBO.
        std::uint64_t pool_chunks = 0;     ///< Slab chunks allocated.
        /** Always 0: the kernel has no heap fallback any more. Kept
         *  while figbench still reports it as sim.heap_events. */
        std::uint64_t heap_events = 0;
        /** Always 0: the kernel has no timing wheel any more. Kept
         *  while figbench still reports it as sim.wheel_cascades. */
        std::uint64_t wheel_cascades = 0;
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled, unexecuted) events. */
    std::size_t size() const { return live_; }

    /**
     * Schedule @p fn to run at absolute time @p when (>= now()).
     * @return handle for cancel().
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn)
    {
        static_assert(std::is_invocable_v<std::decay_t<F> &>,
                      "event callback must be invocable with no args");
        static_assert(!std::is_same_v<std::decay_t<F>, SmallFn>,
                      "move an already-built SmallFn in");
        checkFuture(when);
        const std::uint32_t idx = claimSlot();
        Record &r = record(idx);
        // Store the callable before the slot is published on the heap:
        // if construction throws (e.g. bad_alloc on a spilled capture),
        // no live-but-empty record must be reachable.
        try {
            if (!fn_slab_[idx].emplace(std::forward<F>(fn)))
                stats_.one_shot_spills += 1;
        } catch (...) {
            abortClaim(idx);
            throw;
        }
        r.has_fn = true;
        commitSlot(idx, when);
        return makeHandle(idx, r.gen);
    }

    /** Schedule an already-built payload by move: it lands in the slab
     *  as is, not wrapped in a second SmallFn (which would outgrow the
     *  inline buffer). A spilled payload counts as a one-shot spill. */
    EventHandle schedule(Tick when, SmallFn &&fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleAfter(Tick delay, F &&fn)
    {
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Schedule a bound event at @p when. It must not be pending. */
    void schedule(Event &ev, Tick when);

    /** Schedule a bound event @p delay ticks from now. */
    void scheduleAfter(Event &ev, Tick delay) { schedule(ev, now_ + delay); }

    /** Move a bound event to @p when, whether or not it is pending. */
    void reschedule(Event &ev, Tick when);

    /** Cancel a pending bound event. @return true if it was pending. */
    bool deschedule(Event &ev);

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was live and is now cancelled; false for
     * stale handles (already executed, cancelled, or slot reused).
     */
    bool cancel(EventHandle handle);

    /** Run a single event. @return false if the queue was empty. */
    bool step();

    /** Run until empty or until @p limit is reached (inclusive). */
    void runUntil(Tick limit);

    /** Run until the queue is empty. */
    void run() { runUntil(kTickMax); }

    /** Tick of the next live event, or kTickMax when empty. */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? kTickMax : heap_.front().when;
    }

    const KernelStats &kernelStats() const { return stats_; }

    /** Total slots in the slab (grows in chunks, never shrinks). */
    std::size_t poolCapacity() const { return slab_.size(); }

    /** Slot of @p when in the tick->run index. Two live ticks that
     *  share a slot each keep their own run; only the later one is
     *  found by appends. Public so tests can aim at a shared slot. */
    static std::uint32_t
    runIndexSlot(Tick when)
    {
        // Fibonacci hashing: the top bits of a golden-ratio product
        // spread multiples of tCK (416 = 13 x 32 ticks) over every
        // slot, where the low bits alone would use one slot in eight.
        return static_cast<std::uint32_t>(
            (when * 0x9E3779B97F4A7C15ull) >> (64 - kIndexBits));
    }

  private:
    static constexpr std::uint32_t kChunkSize = 256; ///< Pool growth step.
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    /** next_free value marking a live (allocated) record. */
    static constexpr std::uint32_t kLiveMark = kNone - 1;
    static constexpr int kIndexBits = 8; ///< 256-slot tick->run index.

    /**
     * One pooled occurrence, linked into the FIFO of its run. Two
     * records share a cache line and none straddles one; a one-shot's
     * SmallFn payload lives in the parallel fn_slab_ (same index) and
     * is only touched when has_fn says so, so a member-bound event's
     * whole schedule, cancel and run cycle stays within one line.
     */
    struct alignas(32) Record {
        std::uint32_t gen = 1;  ///< Bumped on free; validates handles.
        std::uint32_t next_free = kNone;
        std::uint32_t run = kNone;  ///< The run holding this record.
        std::uint32_t next = kNone; ///< Run FIFO links.
        std::uint32_t prev = kNone;
        bool has_fn = false;    ///< fn_slab_[idx] holds a payload.
        Event *bound = nullptr; ///< Non-null for member-bound events.
    };
    static_assert(sizeof(Record) == 32, "two records per cache line");

    /** Live records of one tick, in schedule order. */
    struct Run {
        Tick when = 0;
        std::uint32_t head = kNone; ///< kNone while the run is free.
        std::uint32_t tail = kNone;
        std::uint32_t pos = 0;      ///< Index of its entry in heap_.
        std::uint32_t next_free = kNone;
    };

    /**
     * A run's heap key: its tick, then the seq it got when it started
     * (or moved). Runs of one tick never interleave in schedule order
     * (see link()), so the start seq orders them as their heads would,
     * and popping or cancelling a record never re-keys its run.
     */
    struct HeapEntry {
        Tick when;
        std::uint64_t seq;
        std::uint32_t run;

        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    Record &record(std::uint32_t idx) { return slab_[idx]; }
    const Record &record(std::uint32_t idx) const { return slab_[idx]; }

    static EventHandle
    makeHandle(std::uint32_t idx, std::uint32_t gen)
    {
        return (static_cast<EventHandle>(gen) << 32) |
               (static_cast<EventHandle>(idx) + 1);
    }

    static std::uint32_t
    handleSlot(EventHandle handle)
    {
        return static_cast<std::uint32_t>(handle & 0xffffffffu) - 1;
    }

    /** Panic unless @p when is not in the past. Inline so schedulers
     *  pay only a compare on the hot path. */
    void
    checkFuture(Tick when) const
    {
        if (when < now_)
            failPast(when);
    }
    [[noreturn]] void failPast(Tick when) const;

    /** Pop a free slot off the free list (growing the pool first if
     *  needed) and mark it live. It joins no run yet. */
    std::uint32_t claimSlot();

    /** Publish a claimed slot: link it at @p when and count it live. */
    void commitSlot(std::uint32_t idx, Tick when);

    /** Return a claimed-but-unpublished slot to the free list. */
    void abortClaim(std::uint32_t idx);

    /** Release a slot: destroy payload, bump generation, link free. */
    void freeSlot(std::uint32_t idx);

    void growPool();

    /** Append record @p idx to the newest live run of @p when, or
     *  start a new run for it with the next seq. */
    void link(std::uint32_t idx, Tick when);
    /** Take record @p idx out of its run; drop the run from the heap
     *  and free it if it is now empty. */
    void unlink(std::uint32_t idx);

    /** Store @p e at heap position @p pos and tell its run. */
    void
    place(std::size_t pos, const HeapEntry &e)
    {
        heap_[pos] = e;
        runs_[e.run].pos = static_cast<std::uint32_t>(pos);
    }
    void siftUp(std::size_t pos, const HeapEntry &e);
    void siftDown(std::size_t pos, const HeapEntry &e);
    /** Put @p e into the hole at @p pos, sifting whichever way its key
     *  needs. */
    void resift(std::size_t pos, const HeapEntry &e);

    /** Execute record @p idx (slot is freed before invocation so the
     *  callback can reschedule the same bound event). */
    void runRecord(std::uint32_t idx);
    /** Run the earliest event if its tick is <= @p limit.
     *  @return false when nothing ran. */
    bool runNext(Tick limit);

    Tick now_ = 0;
    std::uint64_t next_seq_ = 1; ///< Next run start (or move) seq.
    std::size_t live_ = 0;
    std::uint32_t free_head_ = kNone;
    std::uint32_t free_run_ = kNone;
    /**
     * Record pool. Indexed by handle, so it may reallocate on growth
     * (records are movable); a chunk-sized reserve at a time keeps that
     * rare and steady-state scheduling allocation-free.
     */
    std::vector<Record> slab_;
    /** One-shot payloads, parallel to slab_ (same index). Kept out of
     *  Record so bound events never touch these lines (see Record). */
    std::vector<SmallFn> fn_slab_;
    /** Run pool, as long as slab_: every run holds a live record, so
     *  runs (and heap entries) never outnumber records. */
    std::vector<Run> runs_;
    std::vector<HeapEntry> heap_; ///< 4-ary min-heap, one entry per run.
    /** The last run started (or moved) in one index slot, and the tick
     *  it was entered at. Only a hint: the run may since have emptied
     *  or moved, so a match is checked against the run itself. */
    struct IndexEntry {
        Tick when = kTickMax;
        std::uint32_t run = 0;
    };
    std::array<IndexEntry, std::size_t{1} << kIndexBits> run_index_{};
    KernelStats stats_;
};

inline Event::~Event()
{
    if (queue_ && handle_ != kNoEvent)
        queue_->deschedule(*this);
}

} // namespace leaky::sim

#endif // LEAKY_SIM_EVENT_QUEUE_HH
