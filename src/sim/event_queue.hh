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
 *  - The priority structure is a hierarchical timing wheel: a wide
 *    2^14-slot single-tick level 0 (so kernel-scale delays land in the
 *    open window directly and rarely cascade) topped by four 2^12-slot
 *    levels, spanning 2^62 ns (~146 years) of absolute simulated time.
 *    Insert is O(1) (xor + count-leading-zeros picks the level, the
 *    slot is a shift/mask, the event is appended to an intrusive
 *    list); pop finds the next occupied slot with a two-level
 *    occupancy bitmap. An event is touched at most once per level it
 *    sinks through when its window opens (a "cascade"), so the
 *    amortized cost per event is a handful of cheap word operations —
 *    unlike a comparison heap there is no O(log n) sift on the
 *    dispatch path.
 *  - Callback payloads live in a slab pool recycled through a free list.
 *    The slab grows in fixed-size chunks with stable addresses, so a
 *    popped node's callback is invoked *in place* — no 64-byte move to
 *    a stack temporary per dispatch — even though the callback may
 *    itself grow the pool; in the steady state neither the wheel nor
 *    the pool ever grows and the same few slots recycle cache-hot.
 *
 * # Why dispatch order is bit-identical to a (when, seq) heap
 *
 * Placement is *strict-hierarchy*: an event lands at the lowest level
 * whose window (timestamp prefix) it shares with the structural cursor
 * `cur_`, and a level-l bucket is redistributed exactly when the cursor
 * enters its window — before anything inside that window can be
 * dispatched and before any new event can be appended directly at a
 * lower level of that window (a new event only places below level l
 * once the cursor shares the window, which is after the cascade).
 * A plain schedule() takes the newest seq and appends; a schedule under
 * a reserved seq (reserveSeq()) is inserted at its seq position in the
 * same bucket (or the overflow list); cascades preserve relative list
 * order. So every bucket list, and the overflow list, is sorted by
 * sequence number, and buckets are drained in strictly increasing time
 * order. Hence dispatch order is exactly (when, seq) lexicographic —
 * the same order the previous 4-ary-heap kernel produced, pinned
 * byte-for-byte by tests/test_event_order.cc and the trace goldens.
 *
 * `runUntil(limit)` never advances the structural cursor into a window
 * whose base lies beyond the limit (the public clock advances to the
 * limit, the cursor stays put), so placement stays consistent across
 * incremental runUntil() driving.
 *
 * The observable contract is unchanged: (when, seq) ordering, callbacks
 * may freely schedule new events. Past-time scheduling is governed by a
 * PastSchedulePolicy: it is always *counted* (pastSchedules()), and
 * either clamped to now() (the legacy behaviour, default in regular
 * builds) or treated as a hard simulator bug via sim::panic (the
 * default under IDA_AUDIT). The panic policy exists for the sharded
 * fleet layer (src/fleet): a cross-shard lookahead-horizon violation
 * manifests exactly as a schedule() into the past, and a silent clamp
 * would absorb it and quietly change results instead of failing loudly.
 */
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#ifdef IDA_AUDIT
// ida-lint: allow(IDA001) audit-only hook; compiled out of default builds
#include <functional>
#endif

#include "sim/inline_callback.hh"
#include "sim/time.hh"

namespace ida::audit::testing {
struct EventQueuePeer;
}

namespace ida::sim {

/**
 * How schedule() treats a timestamp behind now().
 *
 * Clamp is the legacy single-device behaviour: the event fires at now()
 * and the occurrence is counted (pastSchedules()). Panic turns the same
 * occurrence into a sim::panic naming both times — the mode every
 * IDA_AUDIT build defaults to, because a past-time schedule is either a
 * model bug or, in a sharded fleet run, a conservative-lookahead
 * horizon violation that must never be absorbed silently.
 */
enum class PastSchedulePolicy { Clamp, Panic };

/**
 * Discrete-event queue with a simulated clock.
 *
 * Not thread safe *within one queue*; each simulated device owns its
 * queue and is single threaded by design (determinism matters more than
 * wall-clock speed at this scale). Distinct queues may be driven from
 * distinct threads — the sharded fleet layer (src/fleet) runs one
 * device per shard-owned queue and synchronizes only at epoch barriers.
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
     * Scheduling in the past is a programming error. Under the Clamp
     * policy the event fires immediately at the current time instead
     * (never rewinds the clock); each occurrence increments
     * pastSchedules() and, in debug builds, emits a sim::warn so the
     * offending flow is visible. Under the Panic policy (the IDA_AUDIT
     * default) the occurrence is a sim::panic naming both timestamps —
     * see PastSchedulePolicy.
     *
     * Templated so a lambda is constructed directly inside its pooled
     * slot (one placement-new) instead of materializing a Callback and
     * relocating it in; a ready-made Callback moves in the same way.
     */
    template <typename F>
    void
    schedule(Time when, F &&cb)
    {
        placeNode(makeNode(when, nextSeq_++, std::forward<F>(cb)));
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
    std::uint64_t reserveSeq() { return nextSeq_++; }

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
        insertNode(makeNode(when, seq, std::forward<F>(cb)));
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
    bool empty() const { return pendingCount_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return pendingCount_; }

    /** Total events executed since construction (for microbenchmarks). */
    std::uint64_t executed() const { return executed_; }

    /** Times schedule() was handed a past timestamp (clamped to now). */
    std::uint64_t pastSchedules() const { return pastSchedules_; }

    /**
     * Change how past-time schedules are handled. The default is
     * PastSchedulePolicy::Panic in IDA_AUDIT builds and Clamp otherwise;
     * tests that deliberately exercise the clamp path must select Clamp
     * explicitly so they stay meaningful in audit builds.
     */
    void setPastSchedulePolicy(PastSchedulePolicy p) { pastPolicy_ = p; }

    PastSchedulePolicy pastSchedulePolicy() const { return pastPolicy_; }

    /** Pool slots currently allocated (high-water mark diagnostics). */
    std::size_t poolSize() const { return poolCount_; }

    /**
     * Full structural verification of the timing-wheel representation,
     * used by the cross-layer auditor (src/audit): occupancy bitmaps
     * agree with the bucket lists, every node sits in the exact slot
     * and level the placement rule assigns it, bucket lists and the
     * overflow list are sorted by sequence number (the FIFO guarantee,
     * reserved seqs included), no pending timestamp is
     * behind now(), sequence numbers stay below the allocation cursor,
     * and exact node-slot accounting (every pool slot is referenced by
     * exactly one bucket, the overflow list, or one free-list link).
     * O(pending + pool + slots); never called on the dispatch path.
     *
     * Returns true when every invariant holds; otherwise false, with a
     * description of the first failure in @p why (when non-null).
     */
    bool validateHeap(std::string *why = nullptr) const;

    /**
     * True when an event is pending at exactly (@p when, @p seq). Looks
     * only where the placement rule puts such an event, so it is
     * O(one bucket); for audits, never called on the dispatch path.
     */
    bool contains(Time when, std::uint64_t seq) const;

#ifdef IDA_AUDIT
    /**
     * Audit builds only: invoke @p hook every @p every_events executed
     * events (0 disables). The hook runs after the event's callback
     * returns, so it observes a settled state. Compiled out entirely
     * without IDA_AUDIT — the dispatch loop carries no check.
     */
    void
    // ida-lint: allow(IDA001) audit-only hook; compiled out of default builds
    setAuditHook(std::uint64_t every_events, std::function<void()> hook)
    {
        auditEvery_ = every_events;
        auditHook_ = std::move(hook);
        nextAuditAt_ = executed_ + (every_events ? every_events : 0);
    }
#endif

  private:
    friend struct ida::audit::testing::EventQueuePeer;

    /**
     * Wheel geometry: a wide 2^14-slot single-tick level 0 plus four
     * 2^12-slot upper levels — 14 + 4×12 = 62 timestamp bits. Level 0
     * is wider than the upper levels on purpose: kernel-scale delays
     * (flash command phases, same-burst completions — a few thousand
     * ticks) then land directly in the open window instead of parking
     * one level up, cutting the cascade (touch-twice) fraction of the
     * dispatch loop by ~4× for nothing but bucket memory.
     */
    static constexpr unsigned kLevel0Bits = 14;
    static constexpr unsigned kLevelBits = 12;
    static constexpr unsigned kLevels = 5;
    static constexpr std::uint32_t kSlots0 = 1u << kLevel0Bits;
    static constexpr std::uint32_t kSlotsUp = 1u << kLevelBits;
    /** Bits below level @p level (i.e. its slot field's shift). */
    static constexpr unsigned
    shiftOf(unsigned level)
    {
        return level == 0 ? 0 : kLevel0Bits + kLevelBits * (level - 1);
    }
    /** The overflow boundary: timestamp bits the whole wheel resolves. */
    static constexpr unsigned kTopShift =
        kLevel0Bits + kLevelBits * (kLevels - 1);
    static constexpr std::uint32_t
    slotCount(unsigned level)
    {
        return level == 0 ? kSlots0 : kSlotsUp;
    }
    static constexpr std::uint32_t
    slotMask(unsigned level)
    {
        return slotCount(level) - 1;
    }
    /** Flat per-level array bases (buckets / bitmap words / summary). */
    static constexpr std::uint32_t
    bucketBase(unsigned level)
    {
        return level == 0 ? 0 : kSlots0 + (level - 1) * kSlotsUp;
    }
    static constexpr std::uint32_t kBucketTotal =
        kSlots0 + (kLevels - 1) * kSlotsUp;
    /** Occupancy bitmap: 64 slots per word, one summary bit per word. */
    static constexpr std::uint32_t
    wordCount(unsigned level)
    {
        return slotCount(level) / 64;
    }
    static constexpr std::uint32_t
    wordBase(unsigned level)
    {
        return level == 0 ? 0 : wordCount(0) + (level - 1) * wordCount(1);
    }
    static constexpr std::uint32_t kWordTotal =
        kSlots0 / 64 + (kLevels - 1) * (kSlotsUp / 64);
    /** Summary words per level: level 0 has 256 words, so 4 of them. */
    static constexpr std::uint32_t
    sumCount(unsigned level)
    {
        return wordCount(level) / 64;
    }
    static constexpr std::uint32_t
    sumBase(unsigned level)
    {
        return level == 0 ? 0 : sumCount(0) + (level - 1) * sumCount(1);
    }
    static constexpr std::uint32_t kSumTotal =
        kSlots0 / (64 * 64) + (kLevels - 1);
    /**
     * Slab chunking: nodes live in fixed 2^10-node chunks whose
     * addresses never change, so a callback body can run from its slot
     * while growing the pool (a flat vector would reallocate under it).
     */
    static constexpr unsigned kChunkBits = 10;
    static constexpr std::uint32_t kChunkNodes = 1u << kChunkBits;
    static constexpr std::uint32_t kChunkMask = kChunkNodes - 1;

    /**
     * Pooled event: callback payload plus the (when, seq) key and the
     * intrusive bucket link. `next` doubles as the free-list link when
     * the slot is idle. Bucket lists are *tail-terminated* — iteration
     * stops at the node the bucket's tail names, and the tail node's
     * `next` is never read — so appending needs no terminator store
     * (the overflow and free lists, off the hot path, stay
     * kNil-terminated).
     */
    struct Node
    {
        // Key and link first: list walks (bucket drains, cascades, the
        // free list) touch only this leading slice, not the 72-byte
        // callback behind it.
        std::int64_t when = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = kNil;
        Callback cb;
    };

    /** Intrusive FIFO of pool indices (append at tail, pop at head). */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

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

    /**
     * Strict-hierarchy placement: the lowest level whose window
     * (timestamp prefix above that level) @p when shares with @p cur.
     * kLevels and above means the 2^62 top window differs (overflow).
     * Requires when >= cur, which schedule()'s past clamp guarantees.
     */
    static unsigned
    levelOf(std::int64_t when, std::int64_t cur)
    {
        const auto x = static_cast<std::uint64_t>(when) ^
                       static_cast<std::uint64_t>(cur);
        if (x == 0)
            return 0;
        const unsigned msb = 63u - std::countl_zero(x);
        return msb < kLevel0Bits
                   ? 0
                   : 1 + (msb - kLevel0Bits) / kLevelBits;
    }

    static std::uint32_t
    slotOf(std::int64_t when, unsigned level)
    {
        return static_cast<std::uint32_t>(
                   static_cast<std::uint64_t>(when) >> shiftOf(level)) &
               slotMask(level);
    }

    Bucket &
    bucket(unsigned level, std::uint32_t slot)
    {
        return buckets_[bucketBase(level) + slot];
    }

    const Bucket &
    bucket(unsigned level, std::uint32_t slot) const
    {
        return buckets_[bucketBase(level) + slot];
    }

    void
    markOccupied(unsigned level, std::uint32_t slot)
    {
        words_[wordBase(level) + slot / 64] |= std::uint64_t{1}
                                              << (slot % 64);
        summary_[sumBase(level) + slot / (64 * 64)] |=
            std::uint64_t{1} << ((slot / 64) % 64);
    }

    void
    clearOccupied(unsigned level, std::uint32_t slot)
    {
        auto &w = words_[wordBase(level) + slot / 64];
        w &= ~(std::uint64_t{1} << (slot % 64));
        if (w == 0)
            summary_[sumBase(level) + slot / (64 * 64)] &=
                ~(std::uint64_t{1} << ((slot / 64) % 64));
    }

    /**
     * Lowest occupied slot >= @p from at @p level (no wraparound:
     * slots behind the cursor belong to drained windows and are empty).
     * The summary scan is a loop only for level 0 (4 summary words);
     * upper levels constant-fold to the single-word probe.
     */
    bool
    findSlot(unsigned level, std::uint32_t from, std::uint32_t &out) const
    {
        const std::uint64_t *w = words_.data() + wordBase(level);
        std::uint32_t wi = from / 64;
        std::uint64_t word = w[wi] & (~std::uint64_t{0} << (from % 64));
        if (word != 0) {
            out = wi * 64 +
                  static_cast<std::uint32_t>(std::countr_zero(word));
            return true;
        }
        if (wi + 1 >= wordCount(level))
            return false;
        const std::uint64_t *sum = summary_.data() + sumBase(level);
        std::uint32_t si = (wi + 1) / 64;
        std::uint64_t sw = sum[si] & (~std::uint64_t{0} << ((wi + 1) % 64));
        for (;;) {
            if (sw != 0) {
                wi = si * 64 +
                     static_cast<std::uint32_t>(std::countr_zero(sw));
                out = wi * 64 +
                      static_cast<std::uint32_t>(std::countr_zero(w[wi]));
                return true;
            }
            if (++si >= sumCount(level))
                return false;
            sw = sum[si];
        }
    }

    /**
     * Fill a pool slot with (when, seq, cb), clamping a past @p when
     * per the PastSchedulePolicy, and count it pending. The caller
     * links it into the wheel.
     */
    template <typename F>
    std::uint32_t
    makeNode(Time when, std::uint64_t seq, F &&cb)
    {
        if (when < now_) {
            notePastSchedule(when);
            when = now_;
        }
        const std::uint32_t idx = acquireSlot();
        Node &n = node(idx);
        n.cb = std::forward<F>(cb);
        n.when = when.count();
        n.seq = seq;
        ++pendingCount_;
        return idx;
    }

    /**
     * Append node @p idx to the bucket its (when, cur_) placement picks.
     * Only for a node younger than everything in that bucket: a fresh
     * seq, or a cascade replaying a sorted list into emptied buckets.
     */
    void
    placeNode(std::uint32_t idx)
    {
        Node &n = node(idx);
        const unsigned level = levelOf(n.when, cur_);
        if (level >= kLevels) {
            appendOverflow(idx);
            return;
        }
        appendNode(idx, level, slotOf(n.when, level));
    }

    /**
     * Place node @p idx like placeNode(), but at its seq position in
     * the target list: a reserved seq may be older than nodes already
     * there. The common case (it is the youngest) is the plain append.
     */
    void
    insertNode(std::uint32_t idx)
    {
        Node &n = node(idx);
        const unsigned level = levelOf(n.when, cur_);
        if (level >= kLevels) {
            insertOverflow(idx);
            return;
        }
        const std::uint32_t slot = slotOf(n.when, level);
        Bucket &b = bucket(level, slot);
        if (b.tail != kNil && node(b.tail).seq > n.seq)
            linkBeforeYounger(b.head, idx);
        else
            appendNode(idx, level, slot);
    }

    void
    appendNode(std::uint32_t idx, unsigned level, std::uint32_t slot)
    {
        Bucket &b = bucket(level, slot);
        // Branch-free append (both selects compile to cmov): lists are
        // tail-terminated, so the empty bucket needs no special path —
        // the self-link stored for it is never read — and re-marking an
        // occupied slot is an idempotent OR.
        const bool wasEmpty = b.tail == kNil;
        node(wasEmpty ? idx : b.tail).next = idx;
        b.head = wasEmpty ? idx : b.head;
        b.tail = idx;
        markOccupied(level, slot);
    }

    void appendOverflow(std::uint32_t idx);
    void insertOverflow(std::uint32_t idx);

    /**
     * Link @p idx into the seq-sorted list starting at @p head, before
     * its first node younger than @p idx. The list must hold such a
     * node (so the tail is never relinked); @p head is updated when
     * @p idx becomes the new head.
     */
    void linkBeforeYounger(std::uint32_t &head, std::uint32_t idx);

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

    void
    releaseSlot(std::uint32_t idx)
    {
        node(idx).next = freeHead_;
        freeHead_ = idx;
    }

    void notePastSchedule(Time when);

    /**
     * Redistribute every node of bucket (@p level, @p slot) to lower
     * levels after the cursor entered its window, preserving list
     * order (which keeps every target bucket sorted by seq).
     */
    void cascadeBucket(unsigned level, std::uint32_t slot);

    /** Move overflow nodes sharing cur_'s top window into the wheel. */
    void cascadeOverflow();

    /**
     * Advance the structural cursor to the earliest pending event and
     * unlink it, or return kNil if that event (or any window on the way
     * to it) lies beyond @p limit. On success now_ == cur_ == its time.
     *
     * Inline so run()/runUntil() fuse the level-0 fast path (the next
     * event is in the current window — the overwhelmingly common case)
     * into their dispatch loop; the cascade machinery stays in the .cc.
     */
    std::uint32_t
    popNext(std::int64_t limit)
    {
        if (pendingCount_ == 0)
            return kNil;
        for (;;) {
            const auto c = static_cast<std::uint64_t>(cur_);
            std::uint32_t s;
            if (findSlot(0, static_cast<std::uint32_t>(c) & slotMask(0),
                         s)) {
                // Level-0 slots resolve single ticks: the event time is
                // the window base plus the slot, no list scan needed.
                const auto t = static_cast<std::int64_t>(
                    (c & ~std::uint64_t{slotMask(0)}) | s);
                if (t > limit)
                    return kNil;
                Bucket &b = bucket(0, s);
                const std::uint32_t idx = b.head;
                // Singleton pop (the overwhelmingly common case — most
                // ticks carry one event) never loads the node's link;
                // the stale `next` is dead either way, releaseSlot()
                // overwrites it with the free-list link.
                if (idx == b.tail) {
                    b.head = kNil;
                    b.tail = kNil;
                    clearOccupied(0, s);
                } else {
                    b.head = node(idx).next;
                }
                cur_ = t;
                now_ = Time{t};
                --pendingCount_;
                return idx;
            }
            if (!openNextWindow(limit))
                return kNil;
        }
    }

    /**
     * The current level-0 window is drained: cascade the nearest
     * occupied higher-level (or overflow) window whose base is within
     * @p limit into the wheel. False when nothing reachable remains.
     */
    bool openNextWindow(std::int64_t limit);

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
        releaseSlot(idx);
#ifdef IDA_AUDIT
        if (auditEvery_ != 0 && executed_ >= nextAuditAt_) {
            nextAuditAt_ = executed_ + auditEvery_;
            if (auditHook_)
                auditHook_();
        }
#endif
    }

    /** Slab chunks (stable addresses; see kChunkBits) + live count. */
    std::vector<std::unique_ptr<Node[]>> chunks_;
    std::uint32_t poolCount_ = 0;
    /** All levels' intrusive bucket lists, flat (~256 KiB, one alloc). */
    std::vector<Bucket> buckets_{std::size_t{kBucketTotal}};
    std::array<std::uint64_t, kWordTotal> words_{};
    std::array<std::uint64_t, kSumTotal> summary_{};
    std::uint32_t freeHead_ = kNil;
    std::uint32_t overflowHead_ = kNil;
    std::uint32_t overflowTail_ = kNil;
    Time now_{};
    /**
     * Structural cursor: the wheel position placement is relative to.
     * Always <= now_ — runUntil() may advance the public clock to an
     * idle limit, but the cursor only moves through cascades, so bucket
     * contents never need re-placement when the clock idles forward.
     */
    std::int64_t cur_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t pastSchedules_ = 0;
    std::size_t pendingCount_ = 0;
#ifdef IDA_AUDIT
    PastSchedulePolicy pastPolicy_ = PastSchedulePolicy::Panic;
#else
    PastSchedulePolicy pastPolicy_ = PastSchedulePolicy::Clamp;
#endif
#ifdef IDA_AUDIT
    // ida-lint: allow(IDA001) audit-only hook; compiled out of default builds
    std::function<void()> auditHook_;
    std::uint64_t auditEvery_ = 0;
    std::uint64_t nextAuditAt_ = 0;
#endif
};

} // namespace ida::sim
