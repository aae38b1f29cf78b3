#include "sim/event_queue.hh"

#include <algorithm>
#include <limits>

#include "sim/log.hh"

namespace ida::sim {

std::uint32_t
EventQueue::growPool()
{
    // Far above any plausible pending population; a runaway scheduler
    // loop hits this instead of exhausting memory.
    if (poolCount_ >= (std::uint32_t{1} << 26))
        fatal("EventQueue: more than 2^26 events pending");
    if ((poolCount_ & kChunkMask) == 0)
        // Amortized slab growth: one chunk per kChunkNodes events,
        // never per-dispatch. ida-lint: allow(IDA010)
        chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    return poolCount_++;
}

void
EventQueue::notePastSchedule(Time when)
{
    ++pastSchedules_;
    if (pastPolicy_ == PastSchedulePolicy::Panic) {
        // A past-time schedule is a causality violation: either a model
        // bug, or — in a sharded fleet run — an event injected across a
        // lookahead-horizon boundary after the target queue already
        // advanced past it. Clamping would silently alter results, so
        // the audit posture is to die naming both timestamps.
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

void
EventQueue::appendOverflow(std::uint32_t idx)
{
    node(idx).next = kNil;
    if (overflowTail_ == kNil)
        overflowHead_ = idx;
    else
        node(overflowTail_).next = idx;
    overflowTail_ = idx;
}

void
EventQueue::insertOverflow(std::uint32_t idx)
{
    if (overflowTail_ != kNil && node(overflowTail_).seq > node(idx).seq)
        linkBeforeYounger(overflowHead_, idx);
    else
        appendOverflow(idx);
}

void
EventQueue::linkBeforeYounger(std::uint32_t &head, std::uint32_t idx)
{
    Node &n = node(idx);
    if (node(head).seq > n.seq) {
        n.next = head;
        head = idx;
        return;
    }
    // A younger node follows, so the walk stops before the list's end
    // (whose link is dead in a tail-terminated bucket).
    std::uint32_t prev = head;
    while (node(node(prev).next).seq < n.seq)
        prev = node(prev).next;
    n.next = node(prev).next;
    node(prev).next = idx;
}

void
EventQueue::cascadeBucket(unsigned level, std::uint32_t slot)
{
    Bucket &b = bucket(level, slot);
    std::uint32_t idx = b.head;
    const std::uint32_t tail = b.tail;
    b.head = kNil;
    b.tail = kNil;
    clearOccupied(level, slot);
    // Re-place in list order: every target bucket receives its nodes in
    // the same relative order they were appended, keeping each list
    // sorted by seq (the FIFO-within-a-tick guarantee). The list is
    // tail-terminated, so read the link before placeNode() relinks the
    // node and stop at the recorded tail.
    for (;;) {
        const bool last = idx == tail;
        const std::uint32_t next = last ? kNil : node(idx).next;
        placeNode(idx);
        if (last)
            break;
        idx = next;
    }
}

void
EventQueue::cascadeOverflow()
{
    const auto top = static_cast<std::uint64_t>(cur_) >> kTopShift;
    std::uint32_t idx = overflowHead_;
    overflowHead_ = kNil;
    overflowTail_ = kNil;
    while (idx != kNil) {
        const std::uint32_t next = node(idx).next;
        const auto nodeTop =
            static_cast<std::uint64_t>(node(idx).when) >> kTopShift;
        if (nodeTop == top)
            placeNode(idx);
        else
            appendOverflow(idx);
        idx = next;
    }
}

bool
EventQueue::openNextWindow(std::int64_t limit)
{
    const auto c = static_cast<std::uint64_t>(cur_);
    // Nearest level first: higher-level slots only ever hold later
    // times than every remaining lower-level slot.
    for (unsigned l = 1; l < kLevels; ++l) {
        std::uint32_t s;
        if (!findSlot(l, slotOf(cur_, l), s))
            continue;
        const unsigned shift = shiftOf(l);
        const std::uint64_t base =
            ((c >> (shift + kLevelBits)) << (shift + kLevelBits)) |
            (std::uint64_t{s} << shift);
        // Never open a window past the limit: the cursor must not
        // advance beyond times the caller allowed, or placement of
        // later schedule() calls would disagree with the contents.
        if (static_cast<std::int64_t>(base) > limit)
            return false;
        cur_ = static_cast<std::int64_t>(base);
        cascadeBucket(l, s);
        return true;
    }
    // Wheel empty but events pending: they sit past the wheel's
    // 2^60-tick horizon. Jump to the earliest overflow top-window.
    if (overflowHead_ == kNil)
        return false;
    auto minTop = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t i = overflowHead_; i != kNil; i = node(i).next) {
        minTop = std::min(minTop,
                          static_cast<std::uint64_t>(node(i).when) >>
                              kTopShift);
    }
    const std::uint64_t base = minTop << kTopShift;
    if (static_cast<std::int64_t>(base) > limit)
        return false;
    cur_ = static_cast<std::int64_t>(base);
    cascadeOverflow();
    return true;
}

bool
EventQueue::validateHeap(std::string *why) const
{
    const auto fail = [why](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    std::vector<char> referenced(poolCount_, 0);
    std::size_t inBuckets = 0;
    for (unsigned l = 0; l < kLevels; ++l) {
        for (std::uint32_t s = 0; s < slotCount(l); ++s) {
            const Bucket &b = bucket(l, s);
            const bool bit =
                (words_[wordBase(l) + s / 64] >> (s % 64)) & 1;
            if ((b.head != kNil) != bit)
                return fail("occupancy bit disagrees with bucket L" +
                            std::to_string(l) + " slot " +
                            std::to_string(s));
            if (b.head == kNil) {
                if (b.tail != kNil)
                    return fail("empty bucket with a stale tail");
                continue;
            }
            // Bucket lists are tail-terminated: walk until the node the
            // tail names (the tail node's link is dead, never kNil).
            std::uint64_t prevSeq = 0;
            bool first = true;
            for (std::uint32_t n = b.head;;) {
                if (n >= poolCount_)
                    return fail("bucket link out of pool range");
                if (referenced[n])
                    return fail("pool slot " + std::to_string(n) +
                                " referenced twice");
                referenced[n] = 1;
                if (++inBuckets > poolCount_)
                    return fail("bucket list is cyclic or misses its "
                                "tail");
                const Node &nd = node(n);
                if (Time{nd.when} < now_)
                    return fail("pending event in L" +
                                std::to_string(l) + " slot " +
                                std::to_string(s) + " is behind now()");
                if (nd.seq >= nextSeq_)
                    return fail("entry sequence beyond allocation "
                                "cursor");
                if (levelOf(nd.when, cur_) != l)
                    return fail("node level disagrees with the "
                                "placement rule");
                if (slotOf(nd.when, l) != s)
                    return fail("node timestamp does not match its "
                                "slot");
                if (!first && nd.seq <= prevSeq)
                    return fail("bucket list breaks FIFO seq order");
                prevSeq = nd.seq;
                first = false;
                if (n == b.tail)
                    break;
                n = nd.next;
            }
        }
        for (std::uint32_t wi = 0; wi < wordCount(l); ++wi) {
            const bool sbit =
                (summary_[sumBase(l) + wi / 64] >> (wi % 64)) & 1;
            if ((words_[wordBase(l) + wi] != 0) != sbit)
                return fail("summary bit disagrees with occupancy "
                            "word");
        }
    }

    std::size_t inOverflow = 0;
    std::uint32_t lastOv = kNil;
    for (std::uint32_t n = overflowHead_; n != kNil; n = node(n).next) {
        if (n >= poolCount_)
            return fail("overflow link out of pool range");
        if (referenced[n])
            return fail("pool slot " + std::to_string(n) +
                        " referenced twice (overflow)");
        referenced[n] = 1;
        if (++inOverflow > poolCount_)
            return fail("overflow list is cyclic");
        if (levelOf(node(n).when, cur_) < kLevels)
            return fail("overflow node belongs in the wheel");
        if (lastOv != kNil && node(n).seq <= node(lastOv).seq)
            return fail("overflow list breaks seq order");
        lastOv = n;
    }
    if (lastOv != overflowTail_)
        return fail("overflow tail does not terminate its list");
    if (inBuckets + inOverflow != pendingCount_)
        return fail("pending-count drift: " + std::to_string(inBuckets) +
                    " in buckets + " + std::to_string(inOverflow) +
                    " overflow != " + std::to_string(pendingCount_));

    // Free-list accounting: together with the bucket references, every
    // pool slot must be claimed exactly once.
    std::size_t freeLen = 0;
    for (std::uint32_t n = freeHead_; n != kNil; n = node(n).next) {
        if (n >= poolCount_)
            return fail("free-list link out of pool range");
        if (referenced[n])
            return fail("pool slot " + std::to_string(n) +
                        " on the free list and in a bucket");
        referenced[n] = 1;
        if (++freeLen > poolCount_)
            return fail("free list is cyclic");
    }
    if (pendingCount_ + freeLen != poolCount_)
        return fail("pool slot leak: " + std::to_string(pendingCount_) +
                    " pending + " + std::to_string(freeLen) +
                    " free != " + std::to_string(poolCount_));
    if (cur_ > now_.count())
        return fail("structural cursor ahead of the clock");
    return true;
}

bool
EventQueue::contains(Time when, std::uint64_t seq) const
{
    const std::int64_t w = when.count();
    if (w < cur_)
        return false;
    const auto matches = [&](std::uint32_t n) {
        return node(n).when == w && node(n).seq == seq;
    };
    const unsigned level = levelOf(w, cur_);
    if (level >= kLevels) {
        for (std::uint32_t n = overflowHead_; n != kNil; n = node(n).next)
            if (matches(n))
                return true;
        return false;
    }
    const Bucket &b = bucket(level, slotOf(w, level));
    if (b.head == kNil)
        return false;
    for (std::uint32_t n = b.head;; n = node(n).next) {
        if (matches(n))
            return true;
        if (n == b.tail)
            return false;
    }
}

// ida-lint: hot-path-root
Time
EventQueue::run()
{
    constexpr auto kForever = std::numeric_limits<std::int64_t>::max();
    for (;;) {
        const std::uint32_t idx = popNext(kForever);
        if (idx == kNil)
            break;
        dispatchNode(idx);
    }
    return now_;
}

// ida-lint: hot-path-root
Time
EventQueue::runUntil(Time limit)
{
    for (;;) {
        const std::uint32_t idx = popNext(limit.count());
        if (idx == kNil)
            break;
        dispatchNode(idx);
    }
    if (now_ < limit)
        now_ = limit;
    return now_;
}

} // namespace ida::sim
