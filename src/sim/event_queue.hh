/**
 * @file
 * A minimal discrete-event simulation kernel.
 *
 * The whole SSD model is event driven: flash command completions, periodic
 * refresh scans, and host request arrivals are all events. Events scheduled
 * for the same tick fire in FIFO order (a monotonically increasing sequence
 * number breaks ties), which keeps runs bit-for-bit reproducible.
 *
 * # Hot-path design (see docs/ARCHITECTURE.md, "Simulation kernel
 * internals")
 *
 * Every simulated flash command costs a handful of kernel round trips, so
 * the schedule/pop/dispatch cycle is the floor under every benchmark
 * harness. Three choices keep it allocation-free and cache-friendly:
 *
 *  - Callbacks are sim::InlineCallback (fixed 64-byte inline storage,
 *    compile-time rejection of oversized captures), not std::function:
 *    zero heap traffic per event, guaranteed statically.
 *  - The priority structure is a 4-ary min-heap of 16-byte keys: the
 *    event time, then one word packing the sequence number above the
 *    event's pool slot, compared as one 128-bit integer. Devices hold
 *    about a hundred pending events at most, so the heap stays in L1.
 *  - Callback payloads live in a slab pool recycled through a free list.
 *    The slab grows in fixed-size chunks with stable addresses, so a
 *    popped node's callback is invoked *in place* — no 64-byte move to
 *    a stack temporary per dispatch — even though the callback may
 *    itself grow the pool; in the steady state neither the heap nor
 *    the pool ever grows and the same few slots recycle cache-hot.
 *
 * Dispatch order is exactly (when, seq) lexicographic, pinned
 * byte-for-byte by tests/test_event_order.cc and the trace goldens.
 *
 * Callbacks may freely schedule new events. Past-time scheduling is
 * governed by a PastSchedulePolicy: by default it is a hard simulator
 * bug reported via sim::panic; a queue switched to Clamp instead fires
 * the event at now() and counts it (pastSchedules()). A past-time
 * schedule is either a model bug or, in the fleet layer (src/fleet), a
 * sub-request handed to a member that already ran past its arrival; a
 * silent clamp would absorb it and quietly change results instead of
 * failing loudly.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/time.hh"

namespace ida::audit::testing {
struct EventQueuePeer;
}

namespace ida::sim {

/**
 * How schedule() treats a timestamp behind now().
 *
 * Panic, the default, turns the occurrence into a sim::panic naming both
 * times, because a past-time schedule is either a model bug or, in a
 * fleet run, a sub-request staged behind a member's clock, which must
 * never be absorbed silently. Clamp is the legacy single-device
 * behaviour: the event fires at now() and the occurrence is counted
 * (pastSchedules()).
 */
enum class PastSchedulePolicy { Clamp, Panic };

/**
 * Discrete-event queue with a simulated clock.
 *
 * Not thread safe *within one queue*; each simulated device owns its
 * queue and is single threaded by design (determinism matters more than
 * wall-clock speed at this scale). Distinct queues may be driven from
 * distinct threads — the matrix runner (src/workload/batch.hh) runs
 * one job's device per worker.
 */
class EventQueue
{
  public:
    /**
     * Scheduled-event callback. 64 bytes of inline storage: sized for
     * the deepest kernel capture chain (a flash::DoneCallback plus a
     * `this` pointer, see flash/chip.hh), statically enforced — a
     * capture set that would allocate does not compile.
     */
    using Callback = InlineCallback<void(), 64>;

    EventQueue() = default;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * Scheduling in the past is a programming error. Under the Panic
     * policy (the default) the occurrence is a sim::panic naming both
     * timestamps — see PastSchedulePolicy. Under the Clamp policy the
     * event fires immediately at the current time instead (never
     * rewinds the clock); each occurrence increments pastSchedules()
     * and, in debug builds, emits a sim::warn so the offending flow is
     * visible.
     *
     * Templated so a lambda is constructed directly inside its pooled
     * slot (one placement-new) instead of materializing a Callback and
     * relocating it in; a ready-made Callback moves in the same way.
     */
    template <typename F>
    void
    schedule(Time when, F &&cb)
    {
        push(when, takeSeq(), std::forward<F>(cb));
    }

    /**
     * Hand out the next sequence number now, for an event that is only
     * scheduled later through schedule(when, seq, cb). The event then
     * dispatches where one scheduled at the reservation would have:
     * after same-tick events scheduled before the reservation, before
     * those scheduled after it. This lets a caller park work outside
     * the queue (Ssd's arrival FIFO) without moving its place in the
     * (when, seq) order.
     */
    std::uint64_t reserveSeq() { return takeSeq(); }

    /**
     * schedule() under a sequence number from reserveSeq(); each
     * reserved number may be used once. Past times are clamped or
     * panic exactly as in schedule().
     */
    template <typename F>
    void
    schedule(Time when, std::uint64_t seq, F &&cb)
    {
        assert(seq < nextSeq_ && "seq must come from reserveSeq()");
        push(when, seq, std::forward<F>(cb));
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Time delay, F &&cb)
    {
        schedule(now_ + delay, std::forward<F>(cb));
    }

    /** Run every pending event; returns the final simulated time. */
    Time run();

    /**
     * Run events with timestamps <= @p limit.
     *
     * The clock is left at min(limit, time of last event run); events
     * scheduled beyond the limit remain pending.
     */
    Time runUntil(Time limit);

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events executed since construction (for microbenchmarks). */
    std::uint64_t executed() const { return executed_; }

    /** Times schedule() was handed a past timestamp (clamped to now). */
    std::uint64_t pastSchedules() const { return pastSchedules_; }

    /**
     * Change how past-time schedules are handled. The default is
     * PastSchedulePolicy::Panic; tests that deliberately exercise the
     * counted clamp path select Clamp explicitly.
     */
    void setPastSchedulePolicy(PastSchedulePolicy p) { pastPolicy_ = p; }

    PastSchedulePolicy pastSchedulePolicy() const { return pastPolicy_; }

    /** Pool slots currently allocated (high-water mark diagnostics). */
    std::size_t poolSize() const { return poolCount_; }

    /**
     * Full structural verification, used by the cross-layer auditor
     * (src/audit): the heap order holds, no pending timestamp is behind
     * now(), sequence numbers stay below the allocation cursor, and
     * every pool slot is claimed exactly once, by one heap entry or by
     * the free list. O(pending + pool); never called on the dispatch
     * path.
     *
     * Returns true when every invariant holds; otherwise false, with a
     * description of the first failure in @p why (when non-null).
     */
    bool validateHeap(std::string *why = nullptr) const;

    /**
     * True when an event is pending at exactly (@p when, @p seq). A
     * linear scan of the heap; for audits, never called on the dispatch
     * path.
     */
    bool contains(Time when, std::uint64_t seq) const;

  private:
    friend struct ida::audit::testing::EventQueuePeer;

    /**
     * Key layout: the pool slot takes the low kSlotBits of the tag word
     * (growPool() caps the pool at 2^kSlotBits slots) and the sequence
     * number the rest, so a queue hands out at most 2^kSeqBits of them.
     */
    static constexpr unsigned kSlotBits = 26;
    static constexpr unsigned kSeqBits = 64 - kSlotBits;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;
    static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << kSeqBits;

    /**
     * Slab chunking: nodes live in fixed 2^8-node chunks whose addresses
     * never change, so a callback body can run from its slot while
     * growing the pool (a flat vector would reallocate under it). One
     * 20 KiB chunk covers the deepest queue any workload builds.
     */
    static constexpr unsigned kChunkBits = 8;
    static constexpr std::uint32_t kChunkNodes = 1u << kChunkBits;
    static constexpr std::uint32_t kChunkMask = kChunkNodes - 1;

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** Pooled callback; `next` links the slot into the free list. */
    struct Node
    {
        Callback cb;
        std::uint32_t next = kNil;
    };

    /**
     * Heap entry: (when, seq << kSlotBits | slot). Pending times are
     * never negative (they are clamped to now() >= 0), so the unsigned
     * 128-bit view orders entries exactly as (when, seq).
     */
    struct Entry
    {
        std::int64_t when;
        std::uint64_t tag;

        std::uint64_t seq() const { return tag >> kSlotBits; }
        std::uint32_t slot() const
        {
            return static_cast<std::uint32_t>(tag & kSlotMask);
        }
    };

    static bool
    earlier(const Entry &a, const Entry &b)
    {
        using U128 = unsigned __int128;
        return ((U128{static_cast<std::uint64_t>(a.when)} << 64) | a.tag) <
               ((U128{static_cast<std::uint64_t>(b.when)} << 64) | b.tag);
    }

    Node &
    node(std::uint32_t idx)
    {
        return chunks_[idx >> kChunkBits][idx & kChunkMask];
    }

    const Node &
    node(std::uint32_t idx) const
    {
        return chunks_[idx >> kChunkBits][idx & kChunkMask];
    }

    /** The next sequence number; fatal once the key has no room left. */
    std::uint64_t
    takeSeq()
    {
        if (nextSeq_ >= kSeqLimit) [[unlikely]]
            seqExhausted();
        return nextSeq_++;
    }

    [[noreturn]] static void seqExhausted();

    /**
     * Fill a pool slot with @p cb, clamping a past @p when per the
     * PastSchedulePolicy, and push its key.
     */
    template <typename F>
    void
    push(Time when, std::uint64_t seq, F &&cb)
    {
        if (when < now_) {
            notePastSchedule(when);
            when = now_;
        }
        const std::uint32_t idx = acquireSlot();
        node(idx).cb = std::forward<F>(cb);
        heap_.emplace_back();
        siftUp(heap_.size() - 1,
               Entry{when.count(), (seq << kSlotBits) | idx});
    }

    /** Move @p e up from hole @p i to its place. */
    void
    siftUp(std::size_t i, Entry e)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!earlier(e, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    /** Move @p e down from hole @p i to its place. */
    void
    siftDown(std::size_t i, Entry e)
    {
        const std::size_t n = heap_.size();
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            if (first + 3 < n) {
                // A full group: pick the earliest child with masks, not
                // branches; which child wins is a coin flip per level.
                const Entry *c = &heap_[first];
                const std::size_t a = earlier(c[1], c[0]);
                const std::size_t b = 2 + earlier(c[3], c[2]);
                const std::size_t pickB =
                    -static_cast<std::size_t>(earlier(c[b], c[a]));
                best += a ^ ((a ^ b) & pickB);
            } else {
                for (std::size_t c = first + 1; c < n; ++c)
                    if (earlier(heap_[c], heap_[best]))
                        best = c;
            }
            if (!earlier(heap_[best], e))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = e;
    }

    /** Pop and dispatch events in order while their time <= @p limit. */
    void drain(std::int64_t limit);

    /** Grab a pool slot: free-list head, else grow the slab. */
    std::uint32_t
    acquireSlot()
    {
        if (freeHead_ != kNil) {
            const std::uint32_t idx = freeHead_;
            freeHead_ = node(idx).next;
            return idx;
        }
        return growPool();
    }

    /** Slow path: append a pool slot, enforcing the index width. */
    std::uint32_t growPool();

    void notePastSchedule(Time when);

    /** Run @p idx's callback in place, then recycle the slot. */
    void
    dispatchNode(std::uint32_t idx)
    {
        ++executed_;
        // Invoke straight from the pooled slot: chunk addresses are
        // stable, so the callback can grow the pool (schedule into a
        // full slab) without moving the storage it is executing from.
        // The slot returns to the free list only after the callback
        // finishes, so a schedule() inside it can never clobber it.
        Node &n = node(idx);
        n.cb();
        n.cb = nullptr;
        n.next = freeHead_;
        freeHead_ = idx;
    }

    /** Pending events, a 4-ary min-heap under earlier(). */
    std::vector<Entry> heap_;
    /** Slab chunks (stable addresses; see kChunkBits) + live count. */
    std::vector<std::unique_ptr<Node[]>> chunks_;
    std::uint32_t poolCount_ = 0;
    std::uint32_t freeHead_ = kNil;
    Time now_{};
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t pastSchedules_ = 0;
    PastSchedulePolicy pastPolicy_ = PastSchedulePolicy::Panic;
};

} // namespace ida::sim
