/**
 * @file
 * Per-block physical state: page validity, in-order program pointer,
 * erase count, program timestamp (for refresh aging), and the per-wordline
 * coding mode that the IDA transform manipulates.
 *
 * A TLC block holds pagesPerBlock = 3 * wordlines logical pages; in-block
 * page p lives on wordline p/3 at level p%3 (LSB/CSB/MSB). A wordline is
 * "conventional" until a voltage adjustment re-programs it, after which it
 * carries the IDA valid-level mask that decides the sensing counts of the
 * surviving pages (paper Sec. III-B, Table I).
 *
 * Page validity has one representation: the page's sector mask. A page
 * is Free at or above its block's write pointer, Valid below it while
 * any sector is live, and Invalid once the mask is empty. BlockTable
 * owns the device's state as flat arrays; flash::Block is a read-only
 * view of one block.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "flash/coding.hh"
#include "flash/geometry.hh"
#include "sim/time.hh"

namespace ida::audit::testing {
struct BlockPeer;
}

namespace ida::flash {

/** Lifecycle of one physical page, derived from the state (never stored). */
enum class PageState : std::uint8_t { Free, Valid, Invalid };

class Block;

/** Per-block scalars: one 24-byte record per block. */
struct BlockRecord
{
    /** Time of the first program after the last erase (retention age). */
    sim::Time programTime{};
    /** Next in-order programmable page. */
    std::uint32_t writePtr = 0;
    std::uint32_t validCount = 0;
    std::uint32_t eraseCount = 0;
    /** True once any wordline has been IDA-reprogrammed. */
    bool idaBlock = false;
};

/**
 * The device's block state: every page's sector mask, every wordline's
 * coding mask and invalid-level cache, and one BlockRecord per block,
 * held as four flat arrays sized once at construction. Page
 * arrays are indexed by Ppn and wordline arrays by Ppn / bitsPerCell,
 * so the read critical path walks cache-line-packed memory. All
 * mutation goes through here; block() hands out read-only views.
 */
class BlockTable
{
  public:
    /** geom.blocks() erased blocks of @p geom's (validated) shape. */
    explicit BlockTable(const Geometry &geom);

    BlockTable(const BlockTable &) = delete;
    BlockTable &operator=(const BlockTable &) = delete;

    /** Read-only view of block @p b; it reads the table live. */
    Block block(BlockId b) const;

    /** Valid-sector bitmap of page @p p; 0 for a Free or Invalid page. */
    SectorMask sectorMask(Ppn p) const { return sectorValid_[p]; }

    /**
     * Program block @p b's next in-order page at @p now, holding only
     * the sectors in @p sectors valid (0 = whole page); returns its
     * in-block index. Programming a full block is a simulator bug.
     */
    std::uint32_t programNext(BlockId b, sim::Time now,
                              SectorMask sectors = 0);

    /** Mark valid page @p p invalid. */
    void invalidate(Ppn p);

    /**
     * Clear @p sectors from valid page @p p's sector mask; when the
     * mask empties, the page dies exactly as invalidate() would
     * (wordline invalid-mask cache and valid count included). Returns
     * true when the page died. Clearing sectors that are already
     * invalid is allowed (idempotent); @p sectors must stay within the
     * page but may exceed the currently-valid set.
     */
    bool invalidateSectors(Ppn p, SectorMask sectors);

    /**
     * Re-program wordline @p wl of block @p b with the IDA coding for
     * @p validMask.
     *
     * Requires: every level missing from @p validMask is Invalid (never
     * Valid) on this wordline — IDA must not destroy live data — and the
     * wordline was fully programmed. Pages of missing levels stay
     * Invalid; they are unreadable afterwards.
     */
    void applyIda(BlockId b, std::uint32_t wl, LevelMask validMask);

    /** Erase block @p b: all pages Free, coding back to conventional. */
    void erase(BlockId b);

  private:
    friend class Block;
    // Fault injection for the auditor's negative tests only.
    friend struct ida::audit::testing::BlockPeer;

    void killPage(Ppn p);

    std::uint32_t pagesPerBlock_;
    std::uint32_t bits_;
    std::uint32_t wordlinesPerBlock_;
    SectorMask fullSectorMask_;
    LevelMask fullLevelMask_;
    std::vector<LevelMask> wlMask_;    // coding mask of each wordline
    std::vector<LevelMask> wlInvalid_; // cache: Invalid levels per wordline
    std::vector<BlockRecord> records_;
    /**
     * Valid sectors of each page. Declared, so allocated, last: the
     * FTL allocates its L2P and P2L arrays next, so the device's three
     * big arrays sit back to back on the heap and free as one block
     * that the next device reuses whole, rather than as holes that a
     * process building device after device has to grow around.
     */
    std::vector<SectorMask> sectorValid_;
};

/** A read-only view of one block of a BlockTable. */
class Block
{
  public:
    /** Number of pages. */
    std::uint32_t numPages() const { return t_->pagesPerBlock_; }

    /** Number of wordlines. */
    std::uint32_t numWordlines() const { return t_->wordlinesPerBlock_; }

    std::uint32_t bitsPerCell() const { return t_->bits_; }

    /** Free at/above the write pointer, else Valid iff sectors live. */
    PageState
    pageState(std::uint32_t page) const
    {
        if (isFree(page))
            return PageState::Free;
        return sectorMask(page) != 0 ? PageState::Valid
                                     : PageState::Invalid;
    }
    bool isFree(std::uint32_t page) const { return page >= writePointer(); }
    bool isValid(std::uint32_t page) const {
        return !isFree(page) && sectorMask(page) != 0;
    }

    /** Count of valid pages. */
    std::uint32_t validCount() const { return rec().validCount; }

    /** Next in-order programmable page, == numPages() when full. */
    std::uint32_t writePointer() const { return rec().writePtr; }

    /** True when every page has been programmed. */
    bool isFull() const { return writePointer() == numPages(); }

    /** True when no page has been programmed since the last erase. */
    bool isErased() const { return writePointer() == 0; }

    /** Lifetime erase count. */
    std::uint32_t eraseCount() const { return rec().eraseCount; }

    /** Time of the first program after the last erase (retention age). */
    sim::Time programTime() const { return rec().programTime; }

    /** True once any wordline has been IDA-reprogrammed. */
    bool isIdaBlock() const { return rec().idaBlock; }

    /**
     * Valid-level mask of @p wl: fullMask(bits) for a conventional
     * wordline, else the mask the IDA adjustment was applied with.
     */
    LevelMask wordlineMask(std::uint32_t wl) const {
        return t_->wlMask_[wl0() + wl];
    }

    /** True if @p wl has been IDA-reprogrammed. */
    bool isIdaWordline(std::uint32_t wl) const {
        return wordlineMask(wl) != t_->fullLevelMask_;
    }

    /**
     * Bitmask of @p wl's Invalid page levels (bit L set <=> the level-L
     * page is Invalid). Maintained incrementally on invalidation and
     * erase, so the FTL's per-host-read "is any lower level invalid?"
     * classification is one AND instead of a loop over the wordline
     * (ftl/ftl.cc classifyHostRead).
     */
    LevelMask invalidLevelMask(std::uint32_t wl) const {
        return t_->wlInvalid_[wl0() + wl];
    }

    /**
     * Recompute @p wl's Invalid-level mask from the page states, the
     * ground truth the incrementally maintained invalidLevelMask cache
     * must agree with (checked by the audit layer).
     */
    LevelMask recomputeInvalidMask(std::uint32_t wl) const;

    /**
     * Sensings needed to read in-block page @p page under @p scheme,
     * honoring the wordline's coding mode.
     */
    int readSensings(std::uint32_t page, const CodingScheme &scheme) const;

    /** All-sectors-valid mask for this block's page size. */
    SectorMask fullSectorMask() const { return t_->fullSectorMask_; }

    /** Valid-sector bitmap of @p page; 0 for a Free or Invalid page. */
    SectorMask sectorMask(std::uint32_t page) const {
        return t_->sectorValid_[page0() + page];
    }

    /**
     * The paper's Table I case number (1..8) of wordline @p wl, defined
     * for TLC (bits == 3) only: cases enumerate the validity of
     * (LSB, CSB, MSB). Returns 0 for a wordline with any Free page.
     */
    int tableICase(std::uint32_t wl) const;

  private:
    friend class BlockTable;

    Block(const BlockTable &t, BlockId b) : t_(&t), id_(b) {}

    const BlockRecord &rec() const { return t_->records_[id_]; }
    std::uint64_t page0() const { return id_ * t_->pagesPerBlock_; }
    std::uint64_t wl0() const { return id_ * t_->wordlinesPerBlock_; }

    const BlockTable *t_;
    BlockId id_;
};

inline Block
BlockTable::block(BlockId b) const
{
    return Block(*this, b);
}

} // namespace ida::flash
