/**
 * @file
 * Controller DRAM read/page cache.
 *
 * A realistic SSD controller serves repeated reads from a DRAM page
 * cache in front of the flash array (TrustedSSD's read_buffer /
 * page_cache is the production shape this follows); IDA's residual
 * read-latency benefit must be measured behind one. The cache is
 * read-allocate with LRU replacement, tracks validity per *sector*
 * (flash::SectorMask), and merges partial flash reads into partially
 * cached lines: a read that finds some sectors cached fetches only the
 * missing ones from flash ("hole merging") and the fill ORs into the
 * line.
 *
 * Coherence rules (docs/CACHING.md):
 *  - every host write/TRIM invalidates its sectors before the data
 *    moves, so the cache never holds sectors newer than flash+buffer;
 *  - only sectors readable from flash or dirty in the write buffer are
 *    ever inserted (never zero-fill holes), giving the audited
 *    invariant  cached(lpn) ⊆ flashValid(lpn) ∪ wbufDirty(lpn).
 *
 * Pure bookkeeping plus stats: the owner (Ftl) decides what to read
 * from flash and charges ftl::kDramLatency for hits.
 */
#pragma once

#include <cstdint>
#include <unordered_map>

#include "flash/geometry.hh"
#include "sim/slab.hh"

namespace ida::cache {

/** Read-cache policy knobs. */
struct ReadCacheConfig
{
    /** Capacity in pages; 0 disables the cache entirely. */
    std::uint32_t capacityPages = 0;
};

/** Accounting for the cache's behaviour. */
struct ReadCacheStats
{
    /** Host reads served entirely from DRAM (cache, or cache+buffer). */
    std::uint64_t hits = 0;
    /** Host reads that needed at least one flash sensing. */
    std::uint64_t misses = 0;
    /** Misses where cached sectors shrank the flash transfer. */
    std::uint64_t mergedFills = 0;
    /** Line insertions (first sectors of an uncached LPN). */
    std::uint64_t fills = 0;
    /** LRU evictions to make room. */
    std::uint64_t evictions = 0;
    /** Lines dropped or shrunk for write/TRIM coherence. */
    std::uint64_t invalidations = 0;
};

/** LRU sector-granular page cache (bookkeeping only; see file header). */
class ReadCache
{
  public:
    explicit ReadCache(const ReadCacheConfig &cfg);

    bool enabled() const { return cfg_.capacityPages > 0; }
    const ReadCacheConfig &config() const { return cfg_; }
    const ReadCacheStats &stats() const { return stats_; }

    std::size_t size() const { return lines_.size(); }

    /**
     * Sectors of @p lpn currently cached (0 when absent); promotes the
     * line to most-recently-used when present. Inline up to the hash
     * probe: an empty (or disabled) cache answers without a call.
     */
    flash::SectorMask
    lookup(flash::Lpn lpn)
    {
        return lines_.empty() ? 0 : lookupLine(lpn);
    }

    /** lookup without the LRU promotion (audit checks, peeking). */
    flash::SectorMask peek(flash::Lpn lpn) const;

    /**
     * Add @p sectors of @p lpn (read-allocate fill or hole-merge).
     * ORs into an existing line or inserts a new one, evicting the LRU
     * line when at capacity. No-op when disabled or @p sectors is 0,
     * decided inline.
     */
    void
    insert(flash::Lpn lpn, flash::SectorMask sectors)
    {
        if (enabled() && sectors != 0)
            insertLine(lpn, sectors);
    }

    /**
     * Coherence: drop @p sectors of @p lpn (host write or TRIM of those
     * sectors supersedes the cached copy). Removes the line when its
     * mask empties.
     */
    void invalidate(flash::Lpn lpn, flash::SectorMask sectors);

    /** Classification hooks the owner drives (kept with the stats). */
    void noteHit() { ++stats_.hits; }
    void noteMiss() { ++stats_.misses; }
    void noteMergedFill() { ++stats_.mergedFills; }

    /** Iterate every cached line, MRU first (audit checks). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::uint32_t s = head_; s != sim::kNoSlot; s = slots_[s].next)
            fn(slots_[s].lpn, slots_[s].sectors);
    }

  private:
    /*
     * The LRU is an index-linked list through a contiguous slot vector
     * (the seed's std::list allocated a node per line and every
     * promotion chased list pointers across the heap — this is on the
     * host-read critical path). Slots recycle through the slab, so it
     * stops growing at capacity.
     */
    struct Line
    {
        flash::Lpn lpn;
        flash::SectorMask sectors;
        std::uint32_t prev;
        std::uint32_t next;
    };

    flash::SectorMask lookupLine(flash::Lpn lpn);
    void insertLine(flash::Lpn lpn, flash::SectorMask sectors);
    void unlink(std::uint32_t s);
    void pushFront(std::uint32_t s);

    ReadCacheConfig cfg_;
    ReadCacheStats stats_;
    sim::Slab<Line> slots_;
    std::uint32_t head_ = sim::kNoSlot; // most recently used
    std::uint32_t tail_ = sim::kNoSlot; // eviction victim
    std::unordered_map<flash::Lpn, std::uint32_t> lines_;
};

} // namespace ida::cache
