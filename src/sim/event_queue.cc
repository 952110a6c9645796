#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace leaky::sim {

EventQueue::~EventQueue()
{
    // Unbind pending member events so their destructors do not call
    // back into this (already dying) queue.
    for (Record &r : slab_) {
        if (r.next_free == kLiveMark && r.bound) {
            r.bound->handle_ = kNoEvent;
            r.bound->queue_ = nullptr;
        }
    }
    // fn_slab_ destruction runs ~SmallFn on any undelivered one-shots.
}

void
EventQueue::failPast(Tick when) const
{
    panic("scheduling into the past (%llu < %llu)",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now_));
}

std::uint32_t
EventQueue::claimSlot()
{
    if (free_head_ == kNoFreeSlot)
        growPool();
    const std::uint32_t idx = free_head_;
    Record &r = record(idx);
    free_head_ = r.next_free;
    r.next_free = kLiveMark;
    // Free-list invariant: bound == nullptr, in_wheel == false and
    // has_fn == false already hold (freeSlot/growPool established them),
    // so a claim writes nothing but the list link.
    return idx;
}

void
EventQueue::commitSlot(std::uint32_t idx, Tick when)
{
    // Keep the wheel's reference time current first, so the placement
    // of every wheel entry stays a pure function of (when, wheel_now_)
    // — cancel() relies on recomputing it. The level-0 case (now_ in
    // the same 256-tick block, no placement changes) stays inline.
    if (now_ > wheel_now_) {
        if ((now_ ^ wheel_now_) < kWheelSlots)
            wheel_now_ = now_;
        else
            advanceWheel(now_);
    }
    Record &r = record(idx);
    const std::uint64_t seq = next_seq_++;
    const int level =
        when >= wheel_now_ ? wheelLevel(when ^ wheel_now_) : kWheelLevels;
    if (level < kWheelLevels) {
        r.when = when;
        r.seq = seq;
        wheelInsertAt(idx, level);
        stats_.wheel_events += 1;
    } else {
        // Beyond the wheel horizon (2^48 ticks out), or below the
        // wheel's reference time after a cascade-on-query advanced it
        // past now(). The heap carries these; the pop path merges the
        // two sources by exact (tick, seq).
        pushHeap(when, seq, idx, r.gen);
        stats_.heap_events += 1;
    }
    live_ += 1;
}

EventHandle
EventQueue::schedule(Tick when, SmallFn &&fn)
{
    checkFuture(when);
    const std::uint32_t idx = claimSlot();
    Record &r = record(idx);
    if (fn.spilled())
        stats_.one_shot_spills += 1;
    fn_slab_[idx] = std::move(fn);
    r.has_fn = true;
    commitSlot(idx, when);
    return makeHandle(idx, r.gen);
}

void
EventQueue::abortClaim(std::uint32_t idx)
{
    // The slot was never published; its generation never escaped, so
    // no bump is needed.
    Record &r = record(idx);
    r.next_free = free_head_;
    free_head_ = idx;
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Record &r = record(idx);
    if (r.has_fn) {
        fn_slab_[idx].reset();
        r.has_fn = false;
    }
    r.bound = nullptr;
    r.gen += 1;
    r.next_free = free_head_;
    free_head_ = idx;
}

void
EventQueue::growPool()
{
    const std::size_t base = slab_.size();
    LEAKY_ASSERT(base + kChunkSize < kLiveMark, "event pool exhausted");
    slab_.resize(base + kChunkSize);
    fn_slab_.resize(base + kChunkSize);
    // Give the heap fallback a floor while already allocating, so the
    // occasional below-wheel_now_ event does not break the steady-state
    // zero-allocation invariant by growing heap_ one doubling at a time.
    if (heap_.capacity() < kWheelSlots)
        heap_.reserve(kWheelSlots);
    stats_.pool_chunks += 1;
    // Link the fresh records onto the free list, preserving index order.
    for (std::size_t i = base + kChunkSize; i > base; --i) {
        slab_[i - 1].next_free = free_head_;
        free_head_ = static_cast<std::uint32_t>(i - 1);
    }
}

void
EventQueue::pushHeap(Tick when, std::uint64_t seq, std::uint32_t idx,
                     std::uint32_t gen)
{
    // Sift up with a hole instead of repeated swaps.
    heap_.emplace_back();
    std::size_t hole = heap_.size() - 1;
    const HeapEntry entry{when, seq, idx, gen};
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!entry.before(heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = entry;
}

void
EventQueue::popHeap() const
{
    // Move the last entry into a hole sifted down from the root.
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return;
    std::size_t hole = 0;
    while (true) {
        std::size_t child = 2 * hole + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1].before(heap_[child]))
            child += 1;
        if (!heap_[child].before(last))
            break;
        heap_[hole] = heap_[child];
        hole = child;
    }
    heap_[hole] = last;
}

// ------------------------------------------------------- timing wheel

void
EventQueue::wheelInsert(std::uint32_t idx)
{
    wheelInsertAt(idx, wheelLevel(record(idx).when ^ wheel_now_));
}

void
EventQueue::wheelInsertAt(std::uint32_t idx, int level)
{
    Record &r = record(idx);
    const std::uint32_t slot =
        static_cast<std::uint32_t>(r.when >> (kWheelBits * level)) &
        (kWheelSlots - 1);
    WheelSlot &s = wheel_[level][slot];
    r.wheel_prev = s.tail;
    r.wheel_next = kNoFreeSlot;
    if (s.tail == kNoFreeSlot)
        s.head = idx;
    else
        record(s.tail).wheel_next = idx;
    s.tail = idx;
    setOcc(wheel_occupied_[level], slot);
    r.in_wheel = true;
    wheel_live_ += 1;
}

void
EventQueue::wheelRemove(std::uint32_t idx)
{
    Record &r = record(idx);
    const int level = wheelLevel(r.when ^ wheel_now_);
    const std::uint32_t slot =
        static_cast<std::uint32_t>(r.when >> (kWheelBits * level)) &
        (kWheelSlots - 1);
    WheelSlot &s = wheel_[level][slot];
    if (r.wheel_prev != kNoFreeSlot)
        record(r.wheel_prev).wheel_next = r.wheel_next;
    else
        s.head = r.wheel_next;
    if (r.wheel_next != kNoFreeSlot)
        record(r.wheel_next).wheel_prev = r.wheel_prev;
    else
        s.tail = r.wheel_prev;
    if (s.head == kNoFreeSlot)
        clearOcc(wheel_occupied_[level], slot);
    r.in_wheel = false;
    wheel_live_ -= 1;
}

void
EventQueue::advanceWheel(Tick t)
{
    if (t <= wheel_now_)
        return;
    const int level = wheelLevel(wheel_now_ ^ t);
    if (level >= kWheelLevels) {
        // Crossing a whole wheel horizon: any entry still linked would
        // have a deadline in the past, so the wheel must be empty.
        LEAKY_DCHECK(wheel_live_ == 0,
                     "wheel horizon crossed with %zu live entries",
                     wheel_live_);
        wheel_now_ = t;
        return;
    }
    wheel_now_ = t;
    if (level == 0)
        return; // Same level-1 block: every placement is unchanged.
#ifdef LEAKY_DCHECKS_ENABLED
    // Every slot this advance skips over lies strictly in the past of
    // @p t; the caller guarantees no live deadline is below @p t, so
    // all levels under the cascade level must already be empty.
    for (int l = 0; l < level; ++l)
        LEAKY_DCHECK(lowestSlot(wheel_occupied_[l]) < 0,
                     "advance over non-empty wheel level %d", l);
#endif
    // Exactly one slot becomes "current" at the cascade level: the one
    // containing @p t. Its entries now agree with wheel_now_ above
    // that level, so each re-inserts at a strictly lower level — and
    // the targets are empty (see the DCHECK above), which keeps every
    // slot list in ascending seq order by construction.
    const std::uint32_t slot =
        static_cast<std::uint32_t>(t >> (kWheelBits * level)) &
        (kWheelSlots - 1);
    WheelSlot &s = wheel_[level][slot];
    std::uint32_t idx = s.head;
    if (idx == kNoFreeSlot)
        return;
    s.head = kNoFreeSlot;
    s.tail = kNoFreeSlot;
    clearOcc(wheel_occupied_[level], slot);
    // Splice maximal runs that share a destination slot instead of
    // re-linking entry by entry: within a run the next/prev links are
    // already correct, so only the run endpoints and the destination
    // tail need writes. The common case — a same-tick batch of
    // timers cascading together — moves as one run, making a cascade
    // O(runs) writes rather than O(entries).
    while (idx != kNoFreeSlot) {
        const std::uint32_t run_head = idx;
        const Record &r = record(idx);
        const int dl = wheelLevel(r.when ^ wheel_now_);
        const std::uint32_t dslot =
            static_cast<std::uint32_t>(r.when >> (kWheelBits * dl)) &
            (kWheelSlots - 1);
        std::uint32_t run_tail = idx;
        std::uint64_t count = 1;
        for (std::uint32_t n = r.wheel_next; n != kNoFreeSlot;
             n = record(n).wheel_next) {
            const Record &rn = record(n);
            const int nl = wheelLevel(rn.when ^ wheel_now_);
            if (nl != dl ||
                (static_cast<std::uint32_t>(
                     rn.when >> (kWheelBits * nl)) &
                 (kWheelSlots - 1)) != dslot)
                break;
            run_tail = n;
            count += 1;
        }
        const std::uint32_t after = record(run_tail).wheel_next;
        WheelSlot &d = wheel_[dl][dslot];
        record(run_head).wheel_prev = d.tail;
        if (d.tail == kNoFreeSlot)
            d.head = run_head;
        else
            record(d.tail).wheel_next = run_head;
        record(run_tail).wheel_next = kNoFreeSlot;
        d.tail = run_tail;
        setOcc(wheel_occupied_[dl], dslot);
        stats_.wheel_cascades += count;
        idx = after;
    }
}

std::uint32_t
EventQueue::wheelHead(Tick cap, std::uint32_t *slot_out)
{
    while (wheel_live_ > 0) {
        int level = 0;
        int found = -1;
        while (level < kWheelLevels &&
               (found = lowestSlot(wheel_occupied_[level])) < 0)
            ++level;
        LEAKY_ASSERT(level < kWheelLevels,
                     "wheel_live_ without occupancy");
        const auto slot = static_cast<std::uint32_t>(found);
        if (level == 0) {
            *slot_out = slot;
            return wheel_[0][slot].head;
        }
        // The earliest entry hides in this higher-level slot; its
        // lower bound already tells us whether the heap top wins
        // outright, in which case the cascade is deferred entirely.
        const Tick span = Tick{1} << (kWheelBits * level);
        const Tick base = (wheel_now_ & ~(span * kWheelSlots - 1)) |
                          (Tick{slot} << (kWheelBits * level));
        if (base > cap)
            return kNoFreeSlot;
        advanceWheel(base);
    }
    return kNoFreeSlot;
}

Tick
EventQueue::wheelMinTick() const
{
    if (wheel_live_ == 0)
        return kTickMax;
    int level = 0;
    int found = -1;
    while (level < kWheelLevels &&
           (found = lowestSlot(wheel_occupied_[level])) < 0)
        ++level;
    LEAKY_ASSERT(level < kWheelLevels, "wheel_live_ without occupancy");
    const auto slot = static_cast<std::uint32_t>(found);
    if (level == 0)
        return (wheel_now_ & ~Tick{kWheelSlots - 1}) | slot;
    // A higher-level slot only bounds its entries to a range; walk the
    // (short) list for the exact minimum without cascading, so this
    // stays const and allocation-free.
    Tick best = kTickMax;
    for (std::uint32_t idx = wheel_[level][slot].head;
         idx != kNoFreeSlot; idx = record(idx).wheel_next)
        if (record(idx).when < best)
            best = record(idx).when;
    return best;
}

bool
EventQueue::skipDead() const
{
    while (!heap_.empty()) {
        const HeapEntry &top = heap_.front();
        const Record &r = record(top.idx);
        if (r.gen == top.gen && r.next_free == kLiveMark)
            return true;
        popHeap();
    }
    return false;
}

bool
EventQueue::cancel(EventHandle handle)
{
    if (handle == kNoEvent)
        return false;
    const std::uint32_t idx =
        static_cast<std::uint32_t>(handle & 0xffffffffu) - 1;
    const std::uint32_t gen = static_cast<std::uint32_t>(handle >> 32);
    if (idx >= slab_.size())
        return false;
    Record &r = record(idx);
    if (r.next_free != kLiveMark || r.gen != gen)
        return false; // Stale: executed, cancelled, or slot reused.
    if (r.bound) {
        r.bound->handle_ = kNoEvent;
        r.bound->queue_ = nullptr;
    }
    // Wheel entries unlink eagerly (O(1) via the doubly-linked slot
    // list) — the cascade empty-target invariant depends on cancelled
    // entries never lingering. Heap entries stay lazy as before.
    if (r.in_wheel)
        wheelRemove(idx);
    freeSlot(idx);
    live_ -= 1;
    return true;
}

void
EventQueue::schedule(Event &ev, Tick when)
{
    LEAKY_ASSERT(ev.fn_ != nullptr, "scheduling an unbound event");
    LEAKY_ASSERT(!ev.scheduled(),
                 "event already scheduled (use reschedule)");
    checkFuture(when);
    const std::uint32_t idx = claimSlot();
    Record &r = record(idx);
    r.bound = &ev;
    ev.queue_ = this;
    ev.handle_ = makeHandle(idx, r.gen);
    ev.when_ = when;
    commitSlot(idx, when);
}

void
EventQueue::reschedule(Event &ev, Tick when)
{
    if (ev.scheduled())
        deschedule(ev);
    schedule(ev, when);
}

bool
EventQueue::deschedule(Event &ev)
{
    if (!ev.scheduled())
        return false;
    LEAKY_ASSERT(ev.queue_ == this,
                 "descheduling an event pending on another queue");
    const bool cancelled = cancel(ev.handle_);
    LEAKY_ASSERT(cancelled, "scheduled event had a stale handle");
    return true;
}

Tick
EventQueue::nextEventTick() const
{
    const Tick heap_when = skipDead() ? heap_.front().when : kTickMax;
    const Tick wheel_when = wheelMinTick();
    return heap_when < wheel_when ? heap_when : wheel_when;
}

void
EventQueue::runRecord(std::uint32_t idx)
{
    Record &r = record(idx);
    if (Event *ev = r.bound) {
        // Release the slot and clear the handle before invoking so the
        // callback can immediately reschedule the same event.
        freeSlot(idx);
        ev->handle_ = kNoEvent;
        ev->queue_ = nullptr;
        ev->fn_(ev->ctx_);
    } else {
        SmallFn fn = std::move(fn_slab_[idx]);
        freeSlot(idx);
        fn();
    }
}

void
EventQueue::runTop()
{
    const HeapEntry top = heap_.front();
    popHeap();
    now_ = top.when;
    live_ -= 1;
    stats_.events_run += 1;
    runRecord(top.idx);
}

void
EventQueue::runWheelHead(std::uint32_t idx, std::uint32_t slot)
{
    // Specialised unlink: the entry is known to be a level-0 slot
    // head, so no level/slot recomputation and no prev relink.
    Record &r = record(idx);
    WheelSlot &s = wheel_[0][slot];
    s.head = r.wheel_next;
    if (r.wheel_next != kNoFreeSlot)
        record(r.wheel_next).wheel_prev = kNoFreeSlot;
    else
        s.tail = kNoFreeSlot;
    if (s.head == kNoFreeSlot)
        clearOcc(wheel_occupied_[0], slot);
    r.in_wheel = false;
    wheel_live_ -= 1;
    now_ = r.when;
    live_ -= 1;
    stats_.events_run += 1;
    runRecord(idx);
}

bool
EventQueue::runNext(Tick limit)
{
    const bool heap_ok = skipDead();
    const Tick heap_when = heap_ok ? heap_.front().when : kTickMax;
    std::uint32_t wslot = 0;
    const std::uint32_t widx = wheelHead(heap_when, &wslot);
    bool use_heap;
    if (widx == kNoFreeSlot) {
        if (!heap_ok)
            return false;
        use_heap = true;
    } else if (!heap_ok) {
        use_heap = false;
    } else {
        // Both sources are live: the merge point of the global
        // (tick, seq) order. A level-0 slot head is its tick's lowest
        // seq, so this comparison is exact.
        const Record &r = record(widx);
        use_heap = heap_when != r.when ? heap_when < r.when
                                       : heap_.front().seq < r.seq;
    }
    const Tick when = use_heap ? heap_when : record(widx).when;
    if (when > limit)
        return false;
    if (use_heap)
        runTop();
    else
        runWheelHead(widx, wslot);
    return true;
}

bool
EventQueue::step()
{
    return runNext(kTickMax);
}

void
EventQueue::runUntil(Tick limit)
{
    while (runNext(limit)) {
    }
    // All remaining events (if any) lie strictly after the limit, so the
    // clock can safely advance to it.
    if (limit != kTickMax && now_ < limit)
        now_ = limit;
}

} // namespace leaky::sim
