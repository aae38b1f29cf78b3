/**
 * @file
 * Fault-injection peers for the auditor's negative tests.
 *
 * The auditor is only trustworthy if it *fires* on corrupt state, so
 * these tests need to corrupt state that the production API (correctly)
 * refuses to corrupt. The peer structs are befriended by the hot-path
 * classes (see the forward declarations in sim/event_queue.hh,
 * flash/block.hh and ftl/block_manager.hh) and live in the test tree:
 * nothing outside tests/ can reach the private members through them.
 */
#pragma once

#include <cstdint>
#include <utility>

#include "flash/block.hh"
#include "ftl/block_manager.hh"
#include "sim/event_queue.hh"
#include "ssd/ssd.hh"

namespace ida::audit::testing {

/** Reaches into EventQueue's timing wheel and slab pool. */
struct EventQueuePeer
{
    static std::size_t
    heapSize(const sim::EventQueue &q)
    {
        return q.pendingCount_;
    }

    /**
     * Pool index of the @p i-th pending node, walking buckets in
     * (level, slot, list) order and the overflow list last — i.e. the
     * order the wheel would drain same-window events.
     */
    static std::uint32_t
    nthPending(const sim::EventQueue &q, std::size_t i)
    {
        for (unsigned l = 0; l < sim::EventQueue::kLevels; ++l) {
            for (std::uint32_t s = 0; s < sim::EventQueue::slotCount(l);
                 ++s) {
                // Bucket lists are tail-terminated (see EventQueue::Node).
                for (std::uint32_t n = q.bucket(l, s).head;
                     n != sim::EventQueue::kNil;) {
                    if (i-- == 0)
                        return n;
                    n = n == q.bucket(l, s).tail ? sim::EventQueue::kNil
                                                 : q.node(n).next;
                }
            }
        }
        for (std::uint32_t n = q.overflowHead_;
             n != sim::EventQueue::kNil; n = q.node(n).next) {
            if (i-- == 0)
                return n;
        }
        return sim::EventQueue::kNil;
    }

    /**
     * Break dispatch order by swapping the (when, seq) keys of two
     * pending nodes in place: distinct-tick nodes end up in the wrong
     * slot, same-tick nodes break the list's seq monotonicity.
     */
    static void
    swapEntries(sim::EventQueue &q, std::size_t a, std::size_t b)
    {
        auto &na = q.node(nthPending(q, a));
        auto &nb = q.node(nthPending(q, b));
        std::swap(na.when, nb.when);
        std::swap(na.seq, nb.seq);
    }

    /** Rewrite node @p i's timestamp, keeping its seq and position. */
    static void
    setEntryWhen(sim::EventQueue &q, std::size_t i, sim::Time when)
    {
        q.node(nthPending(q, i)).when = when.count();
    }

    /** Drop the free list, leaking every idle pool slot. */
    static void
    cutFreeList(sim::EventQueue &q)
    {
        q.freeHead_ = sim::EventQueue::kNil;
    }
};

/** Reaches into flash::Block's cached/incremental state. */
struct BlockPeer
{
    static void
    setInvalidMask(flash::Block &b, std::uint32_t wl, flash::LevelMask m)
    {
        b.wlInvalid_[wl] = m;
    }

    static void
    setWordlineMask(flash::Block &b, std::uint32_t wl, flash::LevelMask m)
    {
        b.wlMask_[wl] = m;
    }

    static void
    setIdaFlag(flash::Block &b, bool v)
    {
        b.idaBlock_ = v;
    }

    static void
    setPageState(flash::Block &b, std::uint32_t page, flash::PageState st)
    {
        b.pages_[page] = st;
    }

    static void
    bumpValidCount(flash::Block &b, std::int32_t delta)
    {
        b.validCount_ = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(b.validCount_) + delta);
    }

    static void
    setProgramTime(flash::Block &b, sim::Time t)
    {
        b.programTime_ = t;
    }
};

/** Reaches into ftl::BlockManager's age index. */
struct BlockManagerPeer
{
    /** Store refreshedAt without re-keying the block in the age index. */
    static void
    setRefreshedAtRaw(ftl::BlockManager &m, flash::BlockId b, sim::Time t)
    {
        m.refreshedAt_[b] = t;
    }

    /** Rewrite a block's key and refreshedAt, leaving it where it is. */
    static void
    setAgeKeyInPlace(ftl::BlockManager &m, flash::BlockId b, sim::Time t)
    {
        m.refreshedAt_[b] = t;
        m.age_[b].key = t;
    }
};

/** Reaches into ssd::Ssd's arrival FIFO. */
struct SsdPeer
{
    /** Drop the oldest waiting request without uncounting it. */
    static void
    dropOldestArrival(ssd::Ssd &s)
    {
        s.arrivals_.pop_front();
    }

    /** Rewrite the arrival of the @p i-th waiting request in place. */
    static void
    setArrival(ssd::Ssd &s, std::size_t i, sim::Time t)
    {
        const std::size_t n = s.arrivals_.size();
        for (std::size_t k = 0; k < n; ++k) {
            ssd::Ssd::Arrival a = std::move(s.arrivals_.front());
            s.arrivals_.pop_front();
            if (k == i)
                a.req.arrival = t;
            s.arrivals_.emplace_back() = std::move(a);
        }
    }
};

} // namespace ida::audit::testing
