/**
 * @file
 * The flash translation layer: host read/write handling, CWDP
 * allocation, GREEDY garbage collection, remapping-based data refresh,
 * and the paper's IDA-modified refresh flow (Sec. III-C, Fig. 7).
 *
 * State-mutation model: mapping/block state changes synchronously when
 * an operation is *issued*; flash commands only carry timing (see
 * flash/chip.hh). Multi-step flows (GC, refresh) are phase machines
 * that wait for all of a phase's command completions before mutating
 * further.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cache/read_cache.hh"
#include "ecc/ecc_model.hh"
#include "flash/chip.hh"
#include "ftl/allocator.hh"
#include "ftl/block_manager.hh"
#include "ftl/gc.hh"
#include "ftl/mapping.hh"
#include "ftl/refresh.hh"
#include "ftl/write_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/slab.hh"

namespace ida::trace {
class Recorder;
}

namespace ida::ftl {

/** FTL policy knobs; defaults follow the paper's Table II system. */
struct FtlConfig
{
    /** Over-provisioned fraction of raw capacity (Sec. III-C: 15%). */
    double overProvision = 0.15;

    /** Master switch: apply IDA coding during refresh. */
    bool enableIda = false;

    /** Data-refresh period (paper: 3 days .. 3 months per workload). */
    sim::Time refreshPeriod = 3 * sim::kDay;

    /** How often the refresh scanner wakes up. */
    sim::Time refreshCheckInterval = sim::kHour;

    /**
     * Preloaded blocks are given ages so they become refresh-eligible
     * uniformly within this window from the start of the run (0 = use
     * the whole refresh period). Models a device whose resident data
     * mostly predates the trace, as with the paper's preconditioned
     * MSR replays.
     */
    sim::Time preloadAgeSpread{};

    /** Maximum refresh jobs in flight (spreads refresh storms). */
    int maxConcurrentRefresh = 4;

    /** Start GC when a plane's free pool is at or below this. */
    std::size_t gcFreeThreshold = 4;

    /**
     * Handle Table I cases 1 and 3 by moving the valid LSB out so the
     * wordline becomes an IDA target (the paper's implementation).
     * Disabled, only the naturally LSB-invalid cases 2 and 4 get IDA
     * (ablation: bench/ablation_case_policy).
     */
    bool idaHandleCases13 = true;

    /**
     * Controller DRAM write buffer (off by default: the paper's
     * evaluation writes through; see ftl/write_buffer.hh).
     */
    WriteBufferConfig writeBuffer;

    /**
     * Controller DRAM read/page cache in front of the flash array (off
     * by default; see cache/read_cache.hh and docs/CACHING.md).
     */
    cache::ReadCacheConfig readCache;

    /**
     * Track validity per sector instead of per page. Whole-page
     * operations behave identically either way (they carry the full
     * mask); with this off, sub-page TRIMs are dropped (a page-granular
     * FTL cannot record them) and sub-page writes are padded to whole
     * pages — the "page-granular validity" baseline the sector-mask
     * ablation compares against.
     */
    bool sectorMode = true;

    /**
     * The rejected alternative the paper argues against (Sec. III-C):
     * instead of IDA, refresh migrates would-be IDA target pages into
     * fast LSB positions of the new block, burning the sibling CSB/MSB
     * positions as padding. Mutually exclusive with enableIda.
     */
    bool moveToLsbAlternative = false;
};

/** Read-distribution counters behind the paper's Fig. 4. */
struct ReadClassStats
{
    /** Host reads by page level (0 = LSB). */
    std::vector<std::uint64_t> byLevel;
    /** Host reads by level where at least one *lower* level is invalid. */
    std::vector<std::uint64_t> byLevelLowerInvalid;
    /** Host reads served from IDA-reprogrammed wordlines. */
    std::uint64_t idaServed = 0;
    /** Total memory-access latency saved on IDA-served reads. */
    sim::Time idaSavings{};
};

/** Refresh accounting behind the paper's Table IV. */
struct RefreshStats
{
    std::uint64_t refreshes = 0;         // refresh jobs completed
    std::uint64_t idaRefreshes = 0;      // ... that applied IDA
    std::uint64_t baselineRefreshes = 0; // ... plain migration
    std::uint64_t validPages = 0;        // sum of N_valid
    std::uint64_t targetPages = 0;       // sum of N_target (IDA-kept)
    std::uint64_t adjustedWordlines = 0;
    std::uint64_t extraReads = 0;        // verification reads (N_target)
    std::uint64_t extraWrites = 0;       // disturbed write-backs (N_error)
    std::uint64_t migratedPages = 0;     // pages moved to the new block
    /** Move-to-LSB alternative: fast-wanting pages that won an LSB slot. */
    std::uint64_t fastSlotHits = 0;
    /** Move-to-LSB alternative: fast-wanting pages displaced to CSB/MSB. */
    std::uint64_t displacedFastPages = 0;
};

/** Garbage-collection accounting. */
struct GcStats
{
    std::uint64_t invocations = 0;
    std::uint64_t erases = 0; // all block erases (GC + refresh reclaim)
    std::uint64_t migratedPages = 0;
};

/** Sector-granularity accounting (tentpole instrumentation). */
struct SectorStats
{
    /** Host writes carrying a sub-page sector mask. */
    std::uint64_t subPageWrites = 0;
    /** Host TRIMs carrying a sub-page sector mask (applied). */
    std::uint64_t subPageTrims = 0;
    /** Sub-page TRIMs dropped because sectorMode is off. */
    std::uint64_t trimsDroppedPageMode = 0;
    /** Read-modify-write flash reads for sub-page programs. */
    std::uint64_t rmwReads = 0;
    /** RMW retries after the mapping changed under the read. */
    std::uint64_t rmwRetries = 0;
    /** Host reads assembled from flash plus DRAM-resident sectors. */
    std::uint64_t mergedReads = 0;
    /** invalidateSectors calls that left the page partially valid. */
    std::uint64_t partialInvalidations = 0;
    /** Pages whose last valid sectors died to a sub-page op. */
    std::uint64_t pagesDiedPartial = 0;
    /** Host reads touching never-written (zero-fill) sectors. */
    std::uint64_t zeroFillReads = 0;
};

/** Top-level FTL statistics. */
struct FtlStats
{
    ReadClassStats readClass;
    RefreshStats refresh;
    GcStats gc;
    SectorStats sector;
    std::uint64_t hostReads = 0;
    std::uint64_t hostWrites = 0;
    std::uint64_t hostReadsUnmapped = 0;
    std::uint64_t hostTrims = 0;
    /** Pages installed through the zero-time preload path. */
    std::uint64_t preloadWrites = 0;
    std::uint64_t maxInUseBlocks = 0;
};

/**
 * Page-level host-operation completion callback. Aliased to the flash
 * layer's DoneCallback so the FTL hands host continuations straight
 * down to ChipArray without re-wrapping them in another capturing
 * lambda (the callback-chain shortening that keeps capture sets inside
 * the inline budgets).
 */
using PageDone = flash::DoneCallback;

/**
 * Host-read completion report: (completion tick, seq of the completion
 * event the read would have run; see flash::ReadDone). Called once the
 * tick is known — when a flash read reaches the die, or at once for a
 * read served from DRAM or never written.
 */
using ReadDone = flash::ReadDone;

/**
 * Block-release continuation for eraseAndRelease. Deliberately tiny
 * (24-byte storage): GC captures {this, plane}, refresh captures
 * {this}, and the whole thing still has to nest inside the erase
 * command's DoneCallback together with a `this` and a BlockId.
 */
using ReleaseDone = sim::InlineCallback<void(), 24>;

/**
 * Access latency of the controller DRAM behind the write buffer and the
 * read cache: a host read or write served from either takes this long.
 */
inline constexpr sim::Time kDramLatency = 5 * sim::kUsec;

/**
 * Exported logical capacity in pages of a device built from @p geom and
 * @p cfg: the raw pages minus the over-provisioned share.
 */
std::uint64_t logicalPagesOf(const flash::Geometry &geom,
                             const FtlConfig &cfg);

/**
 * The flash translation layer.
 */
class Ftl
{
  public:
    Ftl(const flash::Geometry &geom, const FtlConfig &cfg,
        flash::ChipArray &chips, ecc::EccModel ecc,
        sim::EventQueue &events, sim::Rng &rng);
    ~Ftl();

    Ftl(const Ftl &) = delete;
    Ftl &operator=(const Ftl &) = delete;

    /** Exported logical capacity in pages (raw minus over-provision). */
    std::uint64_t logicalPages() const { return logicalPages_; }

    /** Arm the periodic refresh scanner. Call once before running. */
    void start();

    /**
     * Host read of @p sectors of one page (0 = whole page). @p done
     * reports the completion tick and its seq (ReadDone) as soon as the
     * tick is known, possibly before this returns; reads of
     * never-written pages complete at once. Served in priority order
     * write buffer > read cache > flash; only the sectors no DRAM tier
     * holds are transferred from flash (hole-merging; see
     * docs/CACHING.md).
     */
    void hostRead(Lpn lpn, flash::SectorMask sectors, ReadDone done);

    /**
     * Host write of @p sectors of one page (0 = whole page), with
     * update-in-place semantics at the LPN level. A sub-page write
     * that cannot be absorbed by the write buffer triggers a
     * read-modify-write: the surviving flash sectors are read back and
     * the union is programmed.
     */
    void hostWrite(Lpn lpn, flash::SectorMask sectors, PageDone done);

    /**
     * Host TRIM of @p sectors of one page (0 = whole page): a whole-page
     * TRIM drops the mapping of @p lpn and invalidates its flash copy
     * (and any dirty write-buffer copy, so the dead data is never
     * destaged). A pure metadata operation — completes synchronously
     * with no simulated flash command, like real deallocate commands
     * that are absorbed by the mapping layer. A sub-page TRIM clears
     * only those sectors; the page (and its mapping) dies when the
     * last valid sector goes. With sectorMode off, sub-page TRIMs are
     * dropped entirely (counted in SectorStats) — the invalidity a
     * page-granular FTL cannot see.
     */
    void hostTrim(Lpn lpn, flash::SectorMask sectors);

    /**
     * Instant (zero-time) preload of one logical page, used to install
     * the initial footprint without simulating hours of programming.
     */
    void preloadWrite(Lpn lpn);

    /**
     * After preloading, spread block ages uniformly over the refresh
     * period so refreshes stagger instead of storming.
     */
    void finalizePreload();

    const FtlStats &stats() const { return stats_; }

    /** Write-buffer accounting (zeros when the buffer is disabled). */
    const WriteBufferStats &writeBufferStats() const {
        return wbuf_.stats();
    }

    /** Controller read/page cache (disabled unless configured). */
    const cache::ReadCache &readCache() const { return rcache_; }

    /** Read-cache accounting (zeros when the cache is disabled). */
    const cache::ReadCacheStats &readCacheStats() const {
        return rcache_.stats();
    }

    /** Sub-page programs currently waiting on their RMW read. */
    std::uint32_t rmwInFlight() const { return pendingRmw_.live(); }

    /**
     * Gauge: valid pages whose sector mask is a strict subset of the
     * full page — the partially-invalid pages only sector-granular
     * validity can represent.
     */
    std::uint64_t countPartialValidPages() const;

    /**
     * Gauge: in-use wordlines whose LSB-level page is invalid while at
     * least one higher level is still valid — exactly the wordlines
     * classifyHostRead treats as IDA-eligible (Table I cases 2/4).
     */
    std::uint64_t countIdaEligibleWordlines() const;

    /**
     * Zero the read-classification counters (Fig. 4 instrumentation);
     * the runner calls this when the measurement window opens so the
     * distribution reflects steady state, not warm-up.
     */
    void resetReadClassification();
    const FtlConfig &config() const { return cfg_; }
    const MappingTable &mapping() const { return mapping_; }
    const BlockManager &blocks() const { return blocks_; }
    BlockManager &blocks() { return blocks_; }
    flash::ChipArray &chips() { return chips_; }
    const flash::ChipArray &chips() const { return chips_; }
    const WriteBuffer &writeBuffer() const { return wbuf_; }
    sim::EventQueue &events() { return events_; }
    sim::Rng &rng() { return rng_; }
    const ecc::EccModel &ecc() const { return ecc_; }

    /** True when no GC or refresh job is running (for drain in tests). */
    bool quiescent() const;

    /**
     * Attach the span recorder for the FTL's instantly-served host
     * operations (write-buffer hits/absorbs, read-cache hits, unmapped
     * reads); flash
     * commands are stamped by ChipArray. Null detaches; a detached
     * FTL records nothing and pays one null test per such operation.
     */
    void setTracer(trace::Recorder *tracer) { tracer_ = tracer; }

    // ---- Internal interface for GC/refresh jobs. ----------------------

    /**
     * Migrate the (still-)valid page at @p src into its plane's internal
     * block: remaps, invalidates @p src, and issues the program.
     * Returns false (no command issued) when @p src is no longer valid.
     */
    bool migrateValidPage(Ppn src, PageDone done);

    /**
     * Move-to-LSB-alternative migration (paper Sec. III-C, the rejected
     * design): buffer the page for its plane's migration queue, tagged
     * by whether it *wants* a fast LSB slot. flushMigrations() then
     * pairs buffered pages with the internal block's in-order slots,
     * giving LSB slots to fast-wanting pages first — so only one slot
     * in three can be fast, and everything else is displaced onto slow
     * CSB/MSB positions, which is exactly the paper's argument against
     * this alternative.
     */
    bool queueMigration(Ppn src, bool want_fast, PageDone done);

    /** Drain @p plane's migration buffers into the internal block. */
    void flushMigrations(std::uint64_t plane);

    /** Erase @p b and return it to the free pool when done. */
    void eraseAndRelease(BlockId b, ReleaseDone done);

    void onGcFinished(std::uint64_t plane);
    void onRefreshFinished(BlockId block);

    FtlStats &mutableStats() { return stats_; }

  private:
    friend class GcJob;
    friend class RefreshJob;

    void classifyHostRead(const flash::PageLocation &at);
    /** Report a host read served without flash, completing at @p t. */
    void reportNow(ReadDone &done, sim::Time t);

    /**
     * Clear @p m from @p lpn's flash copy, if mapped, unmapping @p lpn
     * when no sector survives (sub-page writes and TRIMs).
     */
    void invalidateMappedSectors(Lpn lpn, flash::SectorMask m);

    void programHostData(Lpn lpn, flash::SectorMask sectors, PageDone done,
                         bool host_write);

    /**
     * Program @p sectors of @p lpn, merging in any still-valid flash
     * sectors outside the mask via a read-modify-write when needed.
     * The write-through and destage paths both land here.
     */
    void programMerged(Lpn lpn, flash::SectorMask sectors, PageDone done,
                       bool host_write);
    void finishRmw(std::uint32_t slot);
    void maybeFlushWriteBuffer();
    void maybeStartGc(std::uint64_t plane);
    void refreshScan();
    void startRefreshCandidates();
    void noteInUse();

    const flash::Geometry &geom_;
    FtlConfig cfg_;
    flash::ChipArray &chips_;
    ecc::EccModel ecc_;
    sim::EventQueue &events_;
    sim::Rng &rng_;

    std::uint64_t logicalPages_;
    MappingTable mapping_;
    BlockManager blocks_;
    PageAllocator allocator_;
    FtlStats stats_;

    struct PendingMigration
    {
        Ppn src;
        PageDone done;
    };

    /**
     * Slab slot for an in-flight read-modify-write: the RMW read's
     * completion captures only {this, slot} (inside the 48-byte
     * DoneCallback budget) and finds everything else here.
     */
    struct PendingRmw
    {
        Lpn lpn;
        Ppn expectOld;
        flash::SectorMask sectors;
        bool hostWrite;
        PageDone done;
    };

    /**
     * Job slots, sized at construction and never resized (in-flight
     * commands hold pointers to the jobs): one GC slot per plane and
     * maxConcurrentRefresh refresh slots. A slot is free once its job
     * has finished; the finished job is destroyed when a later event
     * emplaces the next one, never from inside its own completion.
     */
    std::vector<std::optional<GcJob>> gcJobs_;
    std::vector<std::optional<RefreshJob>> refreshJobs_;
    /** Scratch for the refresh candidates one start pulls. */
    std::vector<BlockId> refreshPick_;
    std::vector<std::deque<PendingMigration>> fastQ_; // per plane
    std::vector<std::deque<PendingMigration>> slowQ_; // per plane
    WriteBuffer wbuf_;
    cache::ReadCache rcache_;
    flash::SectorMask fullMask_;
    sim::Slab<PendingRmw> pendingRmw_;
    trace::Recorder *tracer_ = nullptr;
    std::uint32_t flushesInFlight_ = 0;
    int activeRefresh_ = 0;
    bool preloading_ = false;
    bool started_ = false;
};

} // namespace ida::ftl
