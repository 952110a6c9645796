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
    if (free_head_ == kNone)
        growPool();
    const std::uint32_t idx = free_head_;
    Record &r = record(idx);
    free_head_ = r.next_free;
    r.next_free = kLiveMark;
    // Free-list invariant: bound == nullptr and has_fn == false already
    // hold (freeSlot/growPool established them), so a claim writes
    // nothing but the list link.
    return idx;
}

void
EventQueue::commitSlot(std::uint32_t idx, Tick when)
{
    link(idx, when);
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
    runs_.resize(base + kChunkSize);
    heap_.reserve(base + kChunkSize);
    stats_.pool_chunks += 1;
    // Link the fresh records and runs onto their free lists, preserving
    // index order.
    for (std::size_t i = base + kChunkSize; i > base; --i) {
        const auto idx = static_cast<std::uint32_t>(i - 1);
        slab_[idx].next_free = free_head_;
        free_head_ = idx;
        runs_[idx].next_free = free_run_;
        free_run_ = idx;
    }
}

// ------------------------------------------------------ same-tick runs

void
EventQueue::link(std::uint32_t idx, Tick when)
{
    Record &r = record(idx);
    r.next = kNone;
    IndexEntry &newest = run_index_[runIndexSlot(when)];
    if (newest.when == when) {
        // The index only ever names the newest run of a tick: a run is
        // entered when it starts or moves, and then has the largest
        // seq. Older runs of the tick therefore never grow again.
        Run &found = runs_[newest.run];
        if (found.when == when && found.head != kNone) {
            r.run = newest.run;
            r.prev = found.tail;
            record(found.tail).next = idx;
            found.tail = idx;
            return;
        }
    }
    const std::uint32_t ri = free_run_;
    Run &run = runs_[ri];
    free_run_ = run.next_free;
    run.when = when;
    run.head = idx;
    run.tail = idx;
    r.run = ri;
    r.prev = kNone;
    newest = {when, ri};
    const HeapEntry e{when, next_seq_++, ri};
    const std::size_t pos = heap_.size();
    heap_.push_back(e); // Within the capacity growPool reserved.
    if (pos > 0 && e.before(heap_[(pos - 1) / 4]))
        siftUp(pos, e);
    else
        run.pos = static_cast<std::uint32_t>(pos);
}

void
EventQueue::unlink(std::uint32_t idx)
{
    const Record &r = record(idx);
    const std::uint32_t ri = r.run;
    Run &run = runs_[ri];
    if (r.next != kNone)
        record(r.next).prev = r.prev;
    else
        run.tail = r.prev;
    if (r.prev != kNone)
        record(r.prev).next = r.next;
    else
        run.head = r.next;
    // A run keeps its heap key while it holds any record (see link()).
    if (run.head != kNone)
        return;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (run.pos < heap_.size())
        resift(run.pos, last);
    run.next_free = free_run_;
    free_run_ = ri;
}

void
EventQueue::siftUp(std::size_t pos, const HeapEntry &e)
{
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 4;
        if (!e.before(heap_[parent]))
            break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, e);
}

void
EventQueue::siftDown(std::size_t pos, const HeapEntry &e)
{
    const std::size_t n = heap_.size();
    while (true) {
        const std::size_t first = 4 * pos + 1;
        if (first >= n)
            break;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c)
            if (heap_[c].before(heap_[best]))
                best = c;
        if (!heap_[best].before(e))
            break;
        place(pos, heap_[best]);
        pos = best;
    }
    place(pos, e);
}

void
EventQueue::resift(std::size_t pos, const HeapEntry &e)
{
    if (pos > 0 && e.before(heap_[(pos - 1) / 4]))
        siftUp(pos, e);
    else
        siftDown(pos, e);
}

bool
EventQueue::cancel(EventHandle handle)
{
    if (handle == kNoEvent)
        return false;
    const std::uint32_t idx = handleSlot(handle);
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
    unlink(idx);
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
    if (!ev.scheduled()) {
        schedule(ev, when);
        return;
    }
    LEAKY_ASSERT(ev.queue_ == this,
                 "rescheduling an event pending on another queue");
    checkFuture(when);
    const std::uint32_t idx = handleSlot(ev.handle_);
    const Record &r = record(idx);
    Run &run = runs_[r.run];
    ev.when_ = when;
    if (run.head != idx || run.tail != idx) {
        unlink(idx);
        link(idx, when);
        return;
    }
    // Alone in its run: move the run itself. It becomes the newest run
    // of its new tick, as a cancel and a new schedule would make it.
    run.when = when;
    run_index_[runIndexSlot(when)] = {when, r.run};
    resift(run.pos, {when, next_seq_++, r.run});
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

bool
EventQueue::runNext(Tick limit)
{
    if (heap_.empty() || heap_.front().when > limit)
        return false;
    const HeapEntry &top = heap_.front();
    now_ = top.when;
    const std::uint32_t ri = top.run;
    Run &run = runs_[ri];
    const std::uint32_t idx = run.head;
    // unlink() specialised to a run head at the heap root.
    run.head = record(idx).next;
    if (run.head != kNone) {
        record(run.head).prev = kNone;
    } else {
        const HeapEntry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0, last);
        run.next_free = free_run_;
        free_run_ = ri;
    }
    live_ -= 1;
    stats_.events_run += 1;
    runRecord(idx);
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
