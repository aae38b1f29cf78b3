/**
 * @file
 * FTL-side block bookkeeping: per-plane free pools, active (open) write
 * blocks, and the per-block metadata the refresh/GC policies need on top
 * of the physical flash::BlockTable state.
 *
 * The metadata is stored structure-of-arrays: one packed flags byte per
 * block plus a parallel refreshed-at timestamp array. The GC-victim scan
 * walks one plane per GC start, so a 1-byte-per-block eligibility test
 * keeps it inside a few KiB of cache instead of striding a 16-byte AoS
 * record.
 *
 * Refresh candidates come from an age index instead of a scan: every
 * closed data block sits in an intrusive doubly-linked list, held in
 * one more per-block array and kept sorted by (refreshedAt, block id).
 * The id breaks ties between equal ages, so the order is fully
 * determined and portable. A block joins the list in closeActive, leaves
 * it in release, and setRefreshedAt re-keys it; new keys are almost
 * always "now", so inserts walk back from the tail past only the
 * blocks closed since. The refresh policy walks from the head and
 * stops at the first block younger than the period, so a query costs
 * the blocks it returns plus the busy or empty ones it skips.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "flash/chip.hh"
#include "flash/geometry.hh"

namespace ida::audit::testing {
struct BlockManagerPeer;
}

namespace ida::ftl {

using flash::BlockId;

/**
 * Per-plane block pools plus per-block FTL metadata.
 *
 * The physical page/erase state stays in flash::BlockTable (owned by the
 * ChipArray); this class only manages allocation lifecycles.
 */
class BlockManager
{
  public:
    /** Packed per-block lifecycle flags (SoA alongside refreshedAt_). */
    enum Flag : std::uint8_t {
        /** Block currently open for host writes on its plane. */
        kHostActive = 1u << 0,
        /** Block currently open for GC/refresh migration writes. */
        kInternalActive = 1u << 1,
        /** Block sitting in its plane's free pool. */
        kInFreePool = 1u << 2,
        /** Block has a GC or refresh job operating on it right now. */
        kBusyWithJob = 1u << 3,
        /**
         * Set after an IDA refresh: the next refresh of this block must
         * fall back to plain migration so the IDA block gets reclaimed
         * (paper Sec. III-C, "After the Data Refresh").
         */
        kForceMigrateNextRefresh = 1u << 4,
    };

    /** Any of the states that make a block ineligible for GC/refresh. */
    static constexpr std::uint8_t kNotIdle =
        kHostActive | kInternalActive | kInFreePool | kBusyWithJob;

    /** Mutable view of one block's metadata. */
    class MetaRef
    {
      public:
        bool hostActive() const { return *flags_ & kHostActive; }
        bool internalActive() const { return *flags_ & kInternalActive; }
        bool inFreePool() const { return *flags_ & kInFreePool; }
        bool busyWithJob() const { return *flags_ & kBusyWithJob; }
        bool forceMigrateNextRefresh() const {
            return *flags_ & kForceMigrateNextRefresh;
        }
        /** Time the block's data generation was refreshed/written. */
        sim::Time refreshedAt() const { return *refreshedAt_; }

        void hostActive(bool v) { set(kHostActive, v); }
        void internalActive(bool v) { set(kInternalActive, v); }
        void inFreePool(bool v) { set(kInFreePool, v); }
        void busyWithJob(bool v) { set(kBusyWithJob, v); }
        void forceMigrateNextRefresh(bool v) {
            set(kForceMigrateNextRefresh, v);
        }

      private:
        friend class BlockManager;
        MetaRef(std::uint8_t *flags, sim::Time *refreshed_at)
            : flags_(flags), refreshedAt_(refreshed_at)
        {
        }
        void set(std::uint8_t bit, bool v) {
            *flags_ = v ? static_cast<std::uint8_t>(*flags_ | bit)
                        : static_cast<std::uint8_t>(*flags_ & ~bit);
        }
        std::uint8_t *flags_;
        sim::Time *refreshedAt_;
    };

    /** Read-only snapshot view of one block's metadata. */
    class ConstMetaRef
    {
      public:
        bool hostActive() const { return flags_ & kHostActive; }
        bool internalActive() const { return flags_ & kInternalActive; }
        bool inFreePool() const { return flags_ & kInFreePool; }
        bool busyWithJob() const { return flags_ & kBusyWithJob; }
        bool forceMigrateNextRefresh() const {
            return flags_ & kForceMigrateNextRefresh;
        }
        sim::Time refreshedAt() const { return refreshedAt_; }

      private:
        friend class BlockManager;
        ConstMetaRef(std::uint8_t flags, sim::Time refreshed_at)
            : flags_(flags), refreshedAt_(refreshed_at)
        {
        }
        std::uint8_t flags_;
        sim::Time refreshedAt_;
    };

    BlockManager(const flash::Geometry &geom, flash::ChipArray &chips);

    MetaRef meta(BlockId b) { return {&flags_[b], &refreshedAt_[b]}; }
    ConstMetaRef meta(BlockId b) const {
        return {flags_[b], refreshedAt_[b]};
    }

    std::uint32_t planes() const {
        return static_cast<std::uint32_t>(freePool_.size());
    }

    /** Free blocks currently pooled on @p plane. */
    std::size_t freeCount(std::uint64_t plane) const {
        return freePool_[plane].size();
    }

    /** Smallest free-pool size across planes. */
    std::size_t minFreeCount() const;

    /** Blocks holding data (not free, not open): candidates for GC. */
    std::uint64_t inUseBlocks() const { return inUse_; }

    /**
     * Pop a free block from @p plane (fatal when empty: the workload
     * outran GC, which is a configuration problem in a read-dominant
     * study).
     */
    BlockId takeFree(std::uint64_t plane);

    /**
     * Return an erased block to its plane's pool (leaving the age index
     * if it was closed).
     */
    void release(BlockId b);

    /**
     * Mark a full active block as closed (plain in-use data block,
     * GC/refresh eligible); it joins the age index.
     */
    void closeActive(BlockId b);

    /**
     * Stamp @p b's data generation time. A closed block is re-keyed in
     * the age index; this is the only writer of refreshedAt.
     */
    void setRefreshedAt(BlockId b, sim::Time t);

    /**
     * Bulk loading: closeActive stops linking blocks into the age index
     * until restampAges rebuilds it in one sort. Refresh queries panic
     * in between.
     */
    void deferAgeIndex() { ageIndexDeferred_ = true; }

    /**
     * Set refreshedAt to @p age_of(b) for every block outside the free
     * pool, in ascending id order, then rebuild the age index from the
     * closed blocks in one sort.
     */
    template <typename AgeOf>
    void
    restampAges(AgeOf &&age_of)
    {
        for (BlockId b = 0; b < geom_.blocks(); ++b) {
            if (!(flags_[b] & kInFreePool))
                refreshedAt_[b] = age_of(b);
        }
        rebuildAgeIndex();
    }

    /**
     * Select a GC victim on @p plane: the full, idle block with the
     * fewest valid pages, breaking ties toward the lowest erase count
     * (GREEDY wear-aware, Table II). Returns true and sets @p victim
     * when one exists.
     */
    bool pickGcVictim(std::uint64_t plane, BlockId &victim) const;

    /**
     * Enumerate refresh candidates: full, idle data blocks whose data
     * generation is older than @p period at time @p now, in ascending
     * block id order.
     */
    std::vector<BlockId> refreshCandidates(sim::Time now,
                                           sim::Time period) const;

    /**
     * The oldest refresh candidates first, in (refreshedAt, id) order:
     * fill @p out with at most out.size() of them and return how many.
     * Allocates nothing.
     */
    std::size_t oldestRefreshCandidates(sim::Time now, sim::Time period,
                                        std::span<BlockId> out) const;

    /**
     * Walk the age index from the oldest block, calling
     * @p visit(block, key) for each entry; stops after blocks() steps
     * so a corrupt (cyclic) list still terminates. For the auditor.
     */
    template <typename Visit>
    void
    forEachByAge(Visit &&visit) const
    {
        std::uint32_t n = age_[head()].next;
        for (BlockId steps = 0; n != head() && steps < geom_.blocks();
             ++steps, n = age_[n].next)
            visit(BlockId{n}, age_[n].key);
    }

    /** First global block id of @p plane. */
    BlockId firstBlockOf(std::uint64_t plane) const {
        return plane * geom_.blocksPerPlane;
    }

  private:
    // Fault injection for the auditor's negative tests only.
    friend struct ida::audit::testing::BlockManagerPeer;

    /** One age-index entry; age_[blocks()] is the list's sentinel. */
    struct AgeNode
    {
        sim::Time key;
        std::uint32_t prev;
        std::uint32_t next;
    };
    /** prev/next of a block that is not in the index. */
    static constexpr std::uint32_t kUnlinked = ~std::uint32_t{0};

    bool gcEligible(BlockId b) const;
    std::uint32_t head() const {
        return static_cast<std::uint32_t>(geom_.blocks());
    }
    bool indexed(BlockId b) const { return age_[b].next != kUnlinked; }
    /** Insert @p b under @p key, walking back from the tail. */
    void link(BlockId b, sim::Time key);
    void unlink(BlockId b);
    void rebuildAgeIndex();

    /**
     * Visit refresh candidates oldest first until @p visit returns
     * false or the next indexed block is younger than @p period.
     */
    template <typename Visit>
    void forEachRefreshCandidate(sim::Time now, sim::Time period,
                                 Visit &&visit) const;

    const flash::Geometry &geom_;
    flash::ChipArray &chips_;
    /** SoA metadata, one entry per block: flags byte + timestamp. */
    std::vector<std::uint8_t> flags_;
    std::vector<sim::Time> refreshedAt_;
    /** Age index of the closed blocks, plus its sentinel. */
    std::vector<AgeNode> age_;
    bool ageIndexDeferred_ = false;
    std::vector<std::deque<BlockId>> freePool_;
    std::uint64_t inUse_ = 0;
};

} // namespace ida::ftl
