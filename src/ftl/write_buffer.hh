/**
 * @file
 * Controller DRAM write buffer.
 *
 * Modern SSD controllers absorb host writes in DRAM and destage them to
 * flash in the background; reads of buffered data are served from DRAM.
 * The paper's evaluation writes through (its focus is the flash read
 * path), so this is off by default — but the MSR-style workloads the
 * paper replays come from systems with write-back caching, and a
 * downstream user of this simulator will want the knob.
 *
 * Model: a FIFO of dirty logical pages with a high-watermark flusher.
 * A buffered write completes at kDramLatency; rewriting a buffered LPN
 * coalesces; a read of a buffered LPN hits DRAM. When the buffer is
 * full the write bypasses it (write-through), which bounds memory and
 * avoids modelling host-side back-pressure.
 *
 * Each dirty entry carries the sector mask the host actually wrote
 * (sub-page writes dirty part of a page); coalescing ORs masks, and a
 * sub-page TRIM clears only the covered sectors. An entry leaves the
 * buffer only when its whole mask flushes or empties, so `size()` and
 * the flushes/trimmed counters stay whole-entry quantities the audit
 * layer's conservation equation can balance.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "flash/geometry.hh"

namespace ida::ftl {

/** "Whole page" sentinel for the mask-less legacy entry points. */
inline constexpr flash::SectorMask kWholePageMask = ~flash::SectorMask{0};

/** Write-buffer policy knobs. */
struct WriteBufferConfig
{
    /** Capacity in pages; 0 disables the buffer entirely. */
    std::uint32_t capacityPages = 0;

    /** Start destaging when occupancy exceeds this fraction. */
    double flushWatermark = 0.5;
};

/** Accounting for the buffer's behaviour. */
struct WriteBufferStats
{
    std::uint64_t bufferedWrites = 0;
    std::uint64_t coalescedWrites = 0;
    std::uint64_t bypasses = 0; // buffer full: wrote through
    std::uint64_t readHits = 0;
    std::uint64_t flushes = 0;  // pages destaged to flash
    /**
     * Dirty *entries* fully dropped by TRIM. Counts only removals that
     * emptied the entry (a sub-page TRIM that leaves other sectors
     * dirty does not count), so the auditor's occupancy equation
     *   size == buffered - flushes - trimmed
     * balances for sub-page traffic too.
     */
    std::uint64_t trimmed = 0;
    /** Sub-page TRIMs that only shrank an entry's mask. */
    std::uint64_t partialTrims = 0;
};

/**
 * FIFO dirty-page buffer with coalescing.
 *
 * Pure bookkeeping: the owner (Ftl) performs the actual flash programs
 * when popFlushCandidate() hands back a page.
 */
class WriteBuffer
{
  public:
    explicit WriteBuffer(const WriteBufferConfig &cfg);

    bool enabled() const { return cfg_.capacityPages > 0; }
    const WriteBufferConfig &config() const { return cfg_; }
    const WriteBufferStats &stats() const { return stats_; }

    std::size_t size() const { return dirty_.size(); }
    bool full() const { return dirty_.size() >= cfg_.capacityPages; }

    /** Is @p lpn currently dirty in the buffer? */
    bool contains(flash::Lpn lpn) const { return dirty_.count(lpn) > 0; }

    /** Dirty-sector mask of @p lpn (0 when not buffered). */
    flash::SectorMask
    dirtyMask(flash::Lpn lpn) const
    {
        // Probed on every host read: skip the hash when nothing is
        // dirty (always true with the buffer disabled).
        if (dirty_.empty())
            return 0;
        const auto it = dirty_.find(lpn);
        return it == dirty_.end() ? 0 : it->second;
    }

    /**
     * Accept a host write of @p sectors (kWholePageMask = full page).
     * Returns false when the buffer is full and the write must bypass
     * to flash. Re-writing a buffered LPN coalesces — the masks OR
     * together and the page keeps its FIFO position.
     */
    bool insert(flash::Lpn lpn,
                flash::SectorMask sectors = kWholePageMask);

    /** Record a read served from the buffer. */
    void noteReadHit() { ++stats_.readHits; }

    /**
     * Drop @p sectors of @p lpn's dirty copy (TRIM); returns true when
     * the entry existed and is now fully gone. A partial TRIM shrinks
     * the mask in place (counted as partialTrims, not trimmed). A fully
     * dropped entry's FIFO slot is left behind and skipped by
     * popFlushCandidate, exactly like a coalesced entry's stale slot.
     */
    bool remove(flash::Lpn lpn,
                flash::SectorMask sectors = kWholePageMask);

    /** Occupancy is above the flush watermark. */
    bool needsFlush() const;

    /**
     * Pop the oldest dirty page for destaging; returns false when
     * empty. The owner must write it to flash.
     */
    bool popFlushCandidate(flash::Lpn &lpn);

    /** popFlushCandidate, also reporting the entry's dirty mask. */
    bool popFlushCandidate(flash::Lpn &lpn, flash::SectorMask &sectors);

    /** Iterate every dirty entry (audit checks). */
    template <typename Fn>
    void
    forEachDirty(Fn &&fn) const
    {
        for (const auto &[lpn, mask] : dirty_)
            fn(lpn, mask);
    }

  private:
    WriteBufferConfig cfg_;
    WriteBufferStats stats_;
    std::deque<flash::Lpn> fifo_;
    std::unordered_map<flash::Lpn, flash::SectorMask> dirty_;
};

} // namespace ida::ftl
