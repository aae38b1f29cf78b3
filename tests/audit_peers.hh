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

/** Reaches into EventQueue's heap, slab pool and sequence cursor. */
struct EventQueuePeer
{
    static std::size_t
    heapSize(const sim::EventQueue &q)
    {
        return q.heap_.size();
    }

    /** Swap heap entries @p a and @p b, breaking the heap order. */
    static void
    swapEntries(sim::EventQueue &q, std::size_t a, std::size_t b)
    {
        std::swap(q.heap_[a], q.heap_[b]);
    }

    /** Rewrite heap entry @p i's timestamp, keeping its seq and place. */
    static void
    setEntryWhen(sim::EventQueue &q, std::size_t i, sim::Time when)
    {
        q.heap_[i].when = when.count();
    }

    /** Drop the free list, leaking every idle pool slot. */
    static void
    cutFreeList(sim::EventQueue &q)
    {
        q.freeHead_ = sim::EventQueue::kNil;
    }

    /** First sequence number the heap key cannot hold. */
    static std::uint64_t
    seqLimit()
    {
        return sim::EventQueue::kSeqLimit;
    }

    /** Move the sequence cursor, as if @p seq events were scheduled. */
    static void
    setNextSeq(sim::EventQueue &q, std::uint64_t seq)
    {
        q.nextSeq_ = seq;
    }
};

/** Reaches into flash::BlockTable's arrays and per-block records. */
struct BlockPeer
{
    static void
    setInvalidMask(flash::BlockTable &t, flash::BlockId b, std::uint32_t wl,
                   flash::LevelMask m)
    {
        t.wlInvalid_[b * t.wordlinesPerBlock_ + wl] = m;
    }

    static void
    setWordlineMask(flash::BlockTable &t, flash::BlockId b,
                    std::uint32_t wl, flash::LevelMask m)
    {
        t.wlMask_[b * t.wordlinesPerBlock_ + wl] = m;
    }

    /** Rewrite page @p p's sector mask, leaving every cache alone. */
    static void
    setSectorMask(flash::BlockTable &t, flash::Ppn p, flash::SectorMask m)
    {
        t.sectorValid_[p] = m;
    }

    static void
    setIdaFlag(flash::BlockTable &t, flash::BlockId b, bool v)
    {
        t.records_[b].idaBlock = v;
    }

    static void
    bumpValidCount(flash::BlockTable &t, flash::BlockId b,
                   std::int32_t delta)
    {
        t.records_[b].validCount = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(t.records_[b].validCount) + delta);
    }

    static void
    setProgramTime(flash::BlockTable &t, flash::BlockId b, sim::Time v)
    {
        t.records_[b].programTime = v;
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

/** Reaches into ssd::Ssd's arrival FIFO and request slots. */
struct SsdPeer
{
    /**
     * Apply @p f to every read request whose pages have all reported,
     * i.e. whose one completion event is pending; returns how many.
     */
    template <typename F>
    static std::size_t
    forReportedReads(ssd::Ssd &s, F &&f)
    {
        std::size_t n = 0;
        // The slab only hands out const views; the Ssd is not const.
        s.requestSlots_.forEachLive([&](const ssd::Ssd::RequestSlot &c) {
            auto &rs = const_cast<ssd::Ssd::RequestSlot &>(c);
            if (rs.req.isRead && rs.pending == 0) {
                f(rs.lastDone, rs.pending);
                ++n;
            }
        });
        return n;
    }

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
