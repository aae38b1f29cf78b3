#include "sim/event_queue.hh"

#include <limits>

#include "sim/log.hh"

namespace ida::sim {

std::uint32_t
EventQueue::growPool()
{
    // Far above any plausible pending population; a runaway scheduler
    // loop hits this instead of exhausting memory. It is also the width
    // of the slot field in a heap key.
    if (poolCount_ >= (std::uint32_t{1} << kSlotBits))
        fatal("EventQueue: more than 2^" + std::to_string(kSlotBits) +
              " events pending");
    if ((poolCount_ & kChunkMask) == 0)
        // Amortized slab growth: one chunk per kChunkNodes events,
        // never per-dispatch. ida-lint: allow(IDA010)
        chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    return poolCount_++;
}

void
EventQueue::seqExhausted()
{
    // Wrapping would hand out seqs older than pending events and
    // silently reorder same-tick dispatch.
    fatal("EventQueue: sequence numbers exhausted; one queue schedules "
          "at most 2^" + std::to_string(kSeqBits) + " events");
}

void
EventQueue::notePastSchedule(Time when)
{
    ++pastSchedules_;
    if (pastPolicy_ == PastSchedulePolicy::Panic) {
        // A past-time schedule is a causality violation: either a model
        // bug, or — in a fleet run — a sub-request staged after its
        // member already advanced past the arrival. Clamping would
        // silently alter results, so the default is to die naming both
        // timestamps.
        panic("EventQueue::schedule: past-time event (when=" +
              std::to_string(when.count()) +
              " < now=" + std::to_string(now_.count()) +
              "); horizon violation or model bug");
    }
#ifndef NDEBUG
    // Warn once per queue: a flow that schedules into the past usually
    // does so on every event it emits, and per-occurrence warnings
    // drown out everything else in audit-replay logs. The total stays
    // available through pastSchedules().
    if (pastSchedules_ == 1) {
        warn("EventQueue::schedule: past-time event clamped to now() "
             "(warning once; see pastSchedules() for the total)");
    }
#endif
}

bool
EventQueue::validateHeap(std::string *why) const
{
    const auto fail = [why](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    std::vector<char> claimed(poolCount_, 0);
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        const Entry &e = heap_[i];
        if (i > 0 && earlier(e, heap_[(i - 1) / 4]))
            return fail("heap entry " + std::to_string(i) +
                        " dispatches before its parent");
        if (Time{e.when} < now_)
            return fail("pending event at heap entry " +
                        std::to_string(i) + " is behind now()");
        if (e.seq() >= nextSeq_)
            return fail("entry sequence beyond allocation cursor");
        if (e.slot() >= poolCount_)
            return fail("heap entry slot out of pool range");
        if (claimed[e.slot()])
            return fail("pool slot " + std::to_string(e.slot()) +
                        " claimed by two heap entries");
        claimed[e.slot()] = 1;
    }

    // Free-list accounting: together with the heap entries, every pool
    // slot must be claimed exactly once.
    std::size_t freeLen = 0;
    for (std::uint32_t n = freeHead_; n != kNil; n = node(n).next) {
        if (n >= poolCount_)
            return fail("free-list link out of pool range");
        if (claimed[n])
            return fail("pool slot " + std::to_string(n) +
                        " claimed twice (free list)");
        claimed[n] = 1;
        ++freeLen;
    }
    if (heap_.size() + freeLen != poolCount_)
        return fail("pool slot leak: " + std::to_string(heap_.size()) +
                    " pending + " + std::to_string(freeLen) +
                    " free != " + std::to_string(poolCount_));
    return true;
}

bool
EventQueue::contains(Time when, std::uint64_t seq) const
{
    for (const Entry &e : heap_)
        if (e.when == when.count() && e.seq() == seq)
            return true;
    return false;
}

void
EventQueue::drain(std::int64_t limit)
{
    while (!heap_.empty() && heap_.front().when <= limit) {
        const Entry top = heap_.front();
        const Entry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0, last);
        now_ = Time{top.when};
        dispatchNode(top.slot());
    }
}

// ida-lint: hot-path-root
Time
EventQueue::run()
{
    drain(std::numeric_limits<std::int64_t>::max());
    return now_;
}

// ida-lint: hot-path-root
Time
EventQueue::runUntil(Time limit)
{
    drain(limit.count());
    if (now_ < limit)
        now_ = limit;
    return now_;
}

} // namespace ida::sim
