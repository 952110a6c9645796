/**
 * @file
 * Discrete-event simulation kernel. Components schedule callbacks at
 * absolute ticks; the queue executes them in (tick, insertion-order)
 * order so simulations are fully deterministic.
 *
 * The kernel is intrusive and slab-allocated: every scheduled occurrence
 * lives in a pooled Record (chunked slab, stable addresses, free-list
 * reuse) identified by a generation-counted handle, and a binary heap of
 * record indices orders execution. Steady-state scheduling performs no
 * heap allocation:
 *
 *  - reusable, member-bound Events (see sim::Event) carry only an
 *    object pointer and a function-pointer thunk;
 *  - one-shot callables are stored in a small-buffer SmallFn; only
 *    captures larger than SmallFn::kInlineBytes spill to the heap
 *    (counted in KernelStats::one_shot_spills);
 *  - cancellation bumps the record's generation instead of erasing from
 *    a map; stale heap entries are skipped lazily at pop time.
 *
 * Ordering is maintained by two structures that agree on one global
 * (tick, seq) total order:
 *
 *  - a hierarchical timing wheel (6 levels x 256 slots of 8 bits each,
 *    covering any deadline within 2^48 ticks of the wheel's reference
 *    time) gives O(1) schedule and cancel for the overwhelming
 *    majority of events — controller self-clocks, refresh and ABO
 *    timers, request retries;
 *  - the binary heap remains as the fallback for deadlines outside
 *    the wheel's range, and for events scheduled below the wheel's
 *    reference time after it has been advanced ahead of now().
 *
 * The pop path merges both sources exactly: a level-0 wheel slot holds
 * events of one identical tick in ascending seq order (appends and
 * cascades both preserve insertion order), so comparing the slot head
 * against the heap top by (tick, seq) reproduces the single-heap
 * execution order bit for bit. See docs/ARCHITECTURE.md ("Controller
 * hot loop") for the invariant argument.
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
 * Events with equal ticks run in schedule order. Cancellation bumps the
 * slot's generation; stale heap entries are skipped when popped.
 */
class EventQueue
{
  public:
    /** Kernel health/perf counters (all monotonic). */
    struct KernelStats {
        std::uint64_t events_run = 0;      ///< Callbacks executed.
        std::uint64_t one_shot_spills = 0; ///< Captures too big for SBO.
        std::uint64_t pool_chunks = 0;     ///< Slab chunks allocated.
        std::uint64_t wheel_events = 0;    ///< Scheduled via the wheel.
        std::uint64_t heap_events = 0;     ///< Heap-fallback schedules.
        std::uint64_t wheel_cascades = 0;  ///< Entries moved by cascades.
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
    Tick nextEventTick() const;

    const KernelStats &kernelStats() const { return stats_; }

    /** Total slots in the slab (grows in chunks, never shrinks). */
    std::size_t poolCapacity() const { return slab_.size(); }

  private:
    static constexpr std::uint32_t kChunkSize = 256; ///< Pool growth step.
    static constexpr std::uint32_t kNoFreeSlot = ~std::uint32_t{0};
    /** next_free value marking a live (allocated) record. */
    static constexpr std::uint32_t kLiveMark = kNoFreeSlot - 1;

    /**
     * One pooled occurrence. For heap-routed events the ordering keys
     * (tick, seq) live only in the heap entry; wheel-routed events
     * carry them here, together with the intrusive doubly-linked slot
     * list the wheel threads through the slab.
     *
     * The record is exactly one cache line; a one-shot's SmallFn
     * payload lives in the parallel fn_slab_ (same index) and is only
     * touched when has_fn says so. A member-bound event's whole
     * schedule/cancel/run cycle therefore stays within this line — at
     * thousands of pending timers (request-retry storms) that halves
     * the slab working set versus embedding the 56-byte SmallFn.
     */
    struct alignas(64) Record {
        std::uint32_t gen = 1;  ///< Bumped on free; validates handles.
        std::uint32_t next_free = kNoFreeSlot;
        Tick when = 0;          ///< Wheel entries: the deadline.
        std::uint64_t seq = 0;  ///< Wheel entries: global tie-break.
        std::uint32_t wheel_next = kNoFreeSlot; ///< Slot list links.
        std::uint32_t wheel_prev = kNoFreeSlot;
        bool in_wheel = false;  ///< Eagerly cleared on cancel/run.
        bool has_fn = false;    ///< fn_slab_[idx] holds a payload.
        Event *bound = nullptr; ///< Non-null for member-bound events.
    };
    static_assert(sizeof(Record) == 64, "Record must stay one line");

    struct HeapEntry {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;
        std::uint32_t gen;

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
     *  needed) and mark it live. No heap entry exists yet. */
    std::uint32_t claimSlot();

    /** Publish a claimed slot: push its (when, seq) heap entry. */
    void commitSlot(std::uint32_t idx, Tick when);

    /** Return a claimed-but-unpublished slot to the free list. */
    void abortClaim(std::uint32_t idx);

    /** Release a slot: destroy payload, bump generation, link free. */
    void freeSlot(std::uint32_t idx);

    void growPool();
    void pushHeap(Tick when, std::uint64_t seq, std::uint32_t idx,
                  std::uint32_t gen);
    void popHeap() const;
    /** Drop stale heap entries. @return false when the heap is empty. */
    bool skipDead() const;
    /** Execute the heap top (which must be live). */
    void runTop();

    // ---------------------------------------------------- timing wheel
    // 8-bit levels: the paper-scale deltas that dominate the hot loop
    // (retry intervals, CAS latencies, both in the tens of thousands of
    // femtosecond-scale ticks) then sit one level up (256..65535) and
    // cascade exactly once, instead of twice with 6-bit levels.
    static constexpr int kWheelBits = 8;
    static constexpr int kWheelLevels = 6;
    static constexpr std::uint32_t kWheelSlots = 1u << kWheelBits;
    static constexpr int kWheelWords = kWheelSlots / 64;
    /** Per-level slot-occupancy bitmap (kWheelSlots bits). */
    using OccMask = std::array<std::uint64_t, kWheelWords>;

    struct WheelSlot {
        std::uint32_t head = kNoFreeSlot;
        std::uint32_t tail = kNoFreeSlot;
    };

    /** The wheel level an entry @p diff ticks of XOR distance away
     *  belongs to: the highest differing 8-bit group vs wheel_now_.
     *  kWheelLevels and up means "outside the wheel" (heap). */
    static int
    wheelLevel(Tick diff)
    {
        return diff == 0 ? 0 : (63 - __builtin_clzll(diff)) / kWheelBits;
    }

    /** Lowest set slot in @p m, or -1 when the level is empty. */
    static int
    lowestSlot(const OccMask &m)
    {
        for (int w = 0; w < kWheelWords; ++w)
            if (m[w] != 0)
                return w * 64 + __builtin_ctzll(m[w]);
        return -1;
    }

    static void
    setOcc(OccMask &m, std::uint32_t slot)
    {
        m[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }

    static void
    clearOcc(OccMask &m, std::uint32_t slot)
    {
        m[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }

    /** Link @p idx at the tail of its slot under the current
     *  wheel_now_ (record(idx).when must be >= wheel_now_). */
    void wheelInsert(std::uint32_t idx);
    /** Same with the level already computed by the caller. */
    void wheelInsertAt(std::uint32_t idx, int level);
    /** Eagerly unlink @p idx from its slot (O(1)). */
    void wheelRemove(std::uint32_t idx);
    /** Move the wheel's reference time forward to @p t, cascading the
     *  one newly-current slot so every entry's (level, slot) placement
     *  is again a pure function of (when, wheel_now_). All slots this
     *  skips over are provably empty: no live entry's deadline may lie
     *  below @p t when the caller advances. */
    void advanceWheel(Tick t);
    /**
     * Index of the earliest wheel entry, cascading higher-level slots
     * down until it sits in a level-0 slot (where list head == lowest
     * seq of the earliest tick). Returns kNoFreeSlot when the wheel is
     * empty or when its lower bound alone proves no wheel entry can
     * run at or before @p cap (the heap top's tick) — in that case no
     * cascade work is done.
     */
    std::uint32_t wheelHead(Tick cap, std::uint32_t *slot_out);
    /** Exact earliest wheel tick without mutating (scans the first
     *  occupied slot of the lowest non-empty level). */
    Tick wheelMinTick() const;
    /** Unlink the level-0 slot-@p slot head @p idx and execute it. */
    void runWheelHead(std::uint32_t idx, std::uint32_t slot);
    /** Execute record @p idx (slot is freed before invocation so the
     *  callback can reschedule the same bound event). */
    void runRecord(std::uint32_t idx);
    /** Run the earliest of (wheel, heap) if its tick is <= @p limit.
     *  @return false when nothing ran. */
    bool runNext(Tick limit);

    Tick wheel_now_ = 0; ///< Wheel reference time (may lead now_).
    std::size_t wheel_live_ = 0;
    std::array<OccMask, kWheelLevels> wheel_occupied_{};
    std::array<std::array<WheelSlot, kWheelSlots>, kWheelLevels> wheel_{};

    Tick now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::size_t live_ = 0;
    std::uint32_t free_head_ = kNoFreeSlot;
    /**
     * Record pool. Indexed by handle, so it may reallocate on growth
     * (records are movable); a chunk-sized reserve at a time keeps that
     * rare and steady-state scheduling allocation-free.
     */
    std::vector<Record> slab_;
    /** One-shot payloads, parallel to slab_ (same index). Kept out of
     *  Record so bound events never touch these lines (see Record). */
    std::vector<SmallFn> fn_slab_;
    mutable std::vector<HeapEntry> heap_;
    KernelStats stats_;
};

inline Event::~Event()
{
    if (queue_ && handle_ != kNoEvent)
        queue_->deschedule(*this);
}

} // namespace leaky::sim

#endif // LEAKY_SIM_EVENT_QUEUE_HH
