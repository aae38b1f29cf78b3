#include "ftl/ftl.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <string>

#include "sim/log.hh"
#include "trace/recorder.hh"

namespace ida::ftl {

std::uint64_t
logicalPagesOf(const flash::Geometry &geom, const FtlConfig &cfg)
{
    return static_cast<std::uint64_t>(std::floor(
        static_cast<double>(geom.pages()) * (1.0 - cfg.overProvision)));
}

Ftl::Ftl(const flash::Geometry &geom, const FtlConfig &cfg,
         flash::ChipArray &chips, ecc::EccModel ecc,
         sim::EventQueue &events, sim::Rng &rng)
    : geom_(geom), cfg_(cfg), chips_(chips), ecc_(std::move(ecc)),
      events_(events), rng_(rng),
      logicalPages_(logicalPagesOf(geom, cfg)),
      mapping_(logicalPages_, geom.pages()),
      blocks_(geom, chips),
      allocator_(geom, chips, blocks_,
                 [this](std::uint64_t plane) { maybeStartGc(plane); }),
      gcJobs_(geom.planes()),
      refreshJobs_(static_cast<std::size_t>(
          std::max(0, cfg.maxConcurrentRefresh))),
      refreshPick_(refreshJobs_.size()),
      fastQ_(geom.planes()),
      slowQ_(geom.planes()),
      wbuf_(cfg.writeBuffer),
      rcache_(cfg.readCache),
      fullMask_(geom.fullSectorMask())
{
    if (cfg_.enableIda && cfg_.moveToLsbAlternative)
        sim::fatal("FtlConfig: enableIda and moveToLsbAlternative are "
                   "mutually exclusive");
    if (cfg_.overProvision <= 0.0 || cfg_.overProvision >= 0.9)
        sim::fatal("FtlConfig: overProvision out of range");
    // refreshScan reschedules itself this far ahead: a non-positive
    // interval would re-fire at the same tick forever.
    if (cfg_.refreshCheckInterval <= sim::Time{})
        sim::fatal("FtlConfig::refreshCheckInterval must be positive");
    // GC must start before a plane's last free block is gone (it needs
    // one to migrate into), and must be able to stop: at or above the
    // plane's block count the pool is always "low" and GC never idles.
    if (cfg_.gcFreeThreshold == 0 ||
        cfg_.gcFreeThreshold >= geom.blocksPerPlane)
        sim::fatal("FtlConfig::gcFreeThreshold must be in [1, " +
                   std::to_string(geom.blocksPerPlane) +
                   ") (blocks per plane)");
    stats_.readClass.byLevel.assign(geom.bitsPerCell, 0);
    stats_.readClass.byLevelLowerInvalid.assign(geom.bitsPerCell, 0);
}

Ftl::~Ftl() = default;

void
Ftl::start()
{
    if (started_)
        return;
    started_ = true;
    events_.scheduleAfter(cfg_.refreshCheckInterval,
                          [this] { refreshScan(); });
}

void
Ftl::resetReadClassification()
{
    stats_.readClass = ReadClassStats{};
    stats_.readClass.byLevel.assign(geom_.bitsPerCell, 0);
    stats_.readClass.byLevelLowerInvalid.assign(geom_.bitsPerCell, 0);
    stats_.hostReads = 0;
    stats_.hostWrites = 0;
    stats_.hostReadsUnmapped = 0;
}

bool
Ftl::quiescent() const
{
    for (const auto &gc : gcJobs_) {
        if (gc && !gc->finished())
            return false;
    }
    return activeRefresh_ == 0 && flushesInFlight_ == 0 &&
           pendingRmw_.live() == 0;
}

std::uint64_t
Ftl::countPartialValidPages() const
{
    // An O(pages) sweep for harvest time, never hot-path code.
    std::uint64_t n = 0;
    for (std::uint64_t b = 0; b < geom_.blocks(); ++b) {
        const auto &blk = chips_.block(b);
        const flash::SectorMask full = blk.fullSectorMask();
        for (std::uint32_t p = 0; p < geom_.pagesPerBlock; ++p) {
            const flash::SectorMask m = blk.sectorMask(p);
            if (m != 0 && m != full)
                ++n;
        }
    }
    return n;
}

std::uint64_t
Ftl::countIdaEligibleWordlines() const
{
    // A wordline is IDA-eligible when its LSB-level page is already
    // invalid while a higher level still holds data (Table I cases
    // 2/4) — the situation the read classifier credits and refresh
    // turns into a reduced-sensing coding. Valid ⇔ sectorMask ≠ 0 (the
    // block invariant), so the scan needs no separate page-state probe.
    std::uint64_t n = 0;
    const std::uint32_t bits = geom_.bitsPerCell;
    const std::uint32_t wordlines = geom_.pagesPerBlock / bits;
    for (std::uint64_t b = 0; b < geom_.blocks(); ++b) {
        const auto &blk = chips_.block(b);
        for (std::uint32_t wl = 0; wl < wordlines; ++wl) {
            if ((blk.invalidLevelMask(wl) & 1u) == 0)
                continue; // LSB level still valid (or free)
            for (std::uint32_t level = 1; level < bits; ++level) {
                if (blk.sectorMask(wl * bits + level) != 0) {
                    ++n;
                    break;
                }
            }
        }
    }
    return n;
}

void
Ftl::classifyHostRead(const flash::PageLocation &at)
{
    // One invalid-level-mask probe against the block's incrementally
    // maintained cache (flash/block.hh), no loop over the lower levels.
    const auto &blk = chips_.block(at.block);
    ReadClassStats &rc = stats_.readClass;
    ++rc.byLevel[at.level];
    const auto below = static_cast<flash::LevelMask>((1u << at.level) - 1);
    if ((blk.invalidLevelMask(at.wordline) & below) != 0)
        ++rc.byLevelLowerInvalid[at.level];
}

void
Ftl::reportNow(ReadDone &done, sim::Time t)
{
    // The seq the read's completion event would take, were it
    // scheduled here.
    const std::uint64_t seq = events_.reserveSeq();
    if (done)
        done(t, seq);
}

void
Ftl::hostRead(Lpn lpn, flash::SectorMask sectors, ReadDone done)
{
    ++stats_.hostReads;
    flash::SectorMask need =
        sectors == 0 ? fullMask_ : (sectors & fullMask_);
    if (need == 0 || !cfg_.sectorMode)
        need = fullMask_;

    const flash::SectorMask dirty = wbuf_.dirtyMask(lpn);
    if ((need & ~dirty) == 0) {
        // The freshest copy is still in controller DRAM.
        wbuf_.noteReadHit();
        const sim::Time t = events_.now() + kDramLatency;
        if (tracer_)
            tracer_->recordInstant(trace::SpanKind::WbufReadHit, lpn,
                                   events_.now(), t);
        reportNow(done, t);
        return;
    }

    const flash::SectorMask cached = rcache_.lookup(lpn);
    if ((cached & need) != 0 && (need & ~(dirty | cached)) == 0) {
        // Every requested sector is in controller DRAM and at least one
        // comes from the read cache: a cache hit at DRAM latency.
        rcache_.noteHit();
        const sim::Time t = events_.now() + kDramLatency;
        if (tracer_)
            tracer_->recordInstant(trace::SpanKind::CacheReadHit, lpn,
                                   events_.now(), t);
        reportNow(done, t);
        return;
    }

    const Ppn src = mapping_.lookup(lpn);
    if (src == kInvalidPpn) {
        if (dirty != 0) {
            // Part of the page is dirty in the buffer and the rest was
            // never written: serve from DRAM, zero-filling the holes.
            ++stats_.sector.zeroFillReads;
            wbuf_.noteReadHit();
            const sim::Time t = events_.now() + kDramLatency;
            if (tracer_)
                tracer_->recordInstant(trace::SpanKind::WbufReadHit, lpn,
                                       events_.now(), t);
            reportNow(done, t);
            return;
        }
        // Never-written data: served without touching the flash array.
        ++stats_.hostReadsUnmapped;
        const sim::Time t = events_.now();
        if (tracer_)
            tracer_->recordInstant(trace::SpanKind::UnmappedRead, lpn, t,
                                   t);
        reportNow(done, t);
        return;
    }

    const flash::SectorMask fv = chips_.blockTable().sectorMask(src);
    const flash::SectorMask fetch = need & ~(dirty | cached) & fv;
    if (fetch == 0) {
        // Everything flash could supply is already resident in DRAM;
        // the remaining sectors zero-fill (invalidated or never
        // written), so no flash command is needed.
        ++stats_.sector.zeroFillReads;
        sim::Time t = events_.now();
        if ((cached & need) != 0) {
            rcache_.noteHit();
            t += kDramLatency;
            if (tracer_)
                tracer_->recordInstant(trace::SpanKind::CacheReadHit, lpn,
                                       events_.now(), t);
        } else if ((dirty & need) != 0) {
            wbuf_.noteReadHit();
            t += kDramLatency;
            if (tracer_)
                tracer_->recordInstant(trace::SpanKind::WbufReadHit, lpn,
                                       events_.now(), t);
        } else if (tracer_) {
            tracer_->recordInstant(trace::SpanKind::UnmappedRead, lpn, t, t);
        }
        reportNow(done, t);
        return;
    }

    if (rcache_.enabled()) {
        rcache_.noteMiss();
        if ((need & (dirty | cached)) != 0)
            rcache_.noteMergedFill();
    }
    if ((need & (dirty | cached)) != 0)
        ++stats_.sector.mergedReads;
    if ((need & ~(dirty | cached | fv)) != 0)
        ++stats_.sector.zeroFillReads;

    const flash::PageLocation at = chips_.locate(src);
    classifyHostRead(at);
    const flash::Block blk = chips_.block(at.block);
    const int rounds = ecc_.retryRounds(
        blk.eraseCount(), events_.now() - blk.programTime(), rng_);

    // Read-allocate at issue time, and only sectors flash or the write
    // buffer can actually supply — never zero-fill holes — preserving
    // the audited invariant cached ⊆ flashValid ∪ wbufDirty.
    rcache_.insert(lpn, need & (fv | dirty));

    const sim::Time actual = chips_.readHostPage(
        at, rounds, std::move(done), lpn,
        static_cast<std::uint32_t>(std::popcount(fetch)));

    // IDA benefit accounting: latency saved vs the conventional coding.
    if (blk.isIdaWordline(at.wordline)) {
        auto &rc = stats_.readClass;
        ++rc.idaServed;
        rc.idaSavings +=
            (chips_.conventionalRound(at.level) - actual) * (1 + rounds);
    }
}

void
Ftl::hostWrite(Lpn lpn, flash::SectorMask sectors, PageDone done)
{
    ++stats_.hostWrites;
    flash::SectorMask m = sectors == 0 ? fullMask_ : (sectors & fullMask_);
    if (m == 0)
        m = fullMask_;
    if (m != fullMask_)
        ++stats_.sector.subPageWrites;
    if (!cfg_.sectorMode)
        m = fullMask_; // page-granular FTL pads sub-page writes

    // Coherence first: the cached copy of these sectors is stale the
    // moment the write is accepted.
    rcache_.invalidate(lpn, m);

    if (wbuf_.enabled() && wbuf_.insert(lpn, m)) {
        // Absorbed in controller DRAM; destaged in the background. A
        // whole-page buffered write leaves the flash copy valid until
        // the destage supersedes it (lazy, as before); a *sub-page*
        // buffered write eagerly invalidates the overlapped flash
        // sectors, since the buffer now owns their freshest data and
        // the destage will re-program them anyway.
        if (cfg_.sectorMode && m != fullMask_)
            invalidateMappedSectors(lpn, m);
        const sim::Time t = events_.now() + kDramLatency;
        if (tracer_)
            tracer_->recordInstant(trace::SpanKind::WbufWrite, lpn,
                                   events_.now(), t);
        events_.schedule(t, [done = std::move(done), t] {
            if (done)
                done(t);
        });
        maybeFlushWriteBuffer();
        return;
    }
    programMerged(lpn, m, std::move(done), true);
}

void
Ftl::hostTrim(Lpn lpn, flash::SectorMask sectors)
{
    flash::SectorMask m = sectors == 0 ? fullMask_ : (sectors & fullMask_);
    if (m == 0)
        m = fullMask_;
    if (!cfg_.sectorMode && m != fullMask_) {
        // A page-granular FTL has nowhere to record partial
        // deallocation, so the invalidity is simply lost — the gap the
        // sector-mask ablation measures. Dropped before any mutation.
        ++stats_.sector.trimsDroppedPageMode;
        return;
    }
    ++stats_.hostTrims;
    if (m != fullMask_)
        ++stats_.sector.subPageTrims;
    rcache_.invalidate(lpn, m);
    wbuf_.remove(lpn, m);
    if (m == fullMask_) {
        const Ppn old = mapping_.unmap(lpn);
        if (old != kInvalidPpn)
            chips_.blockTable().invalidate(old);
        return;
    }
    invalidateMappedSectors(lpn, m);
}

void
Ftl::invalidateMappedSectors(Lpn lpn, flash::SectorMask m)
{
    const Ppn old = mapping_.lookup(lpn);
    if (old == kInvalidPpn)
        return;
    flash::BlockTable &table = chips_.blockTable();
    const flash::SectorMask fv = table.sectorMask(old);
    const flash::SectorMask clear = m & fv;
    if (clear == fv && fv != 0) {
        // @p m covers every still-valid sector: the page dies.
        mapping_.unmap(lpn);
        table.invalidate(old);
        ++stats_.sector.pagesDiedPartial;
    } else if (clear != 0) {
        table.invalidateSectors(old, clear);
        ++stats_.sector.partialInvalidations;
    }
}

void
Ftl::programHostData(Lpn lpn, flash::SectorMask sectors, PageDone done,
                     bool host_write)
{
    const Ppn dst = allocator_.allocateHostPage();
    const Ppn old = mapping_.remap(lpn, dst);
    if (old != kInvalidPpn) {
        // Whole-page invalidation is correct even for sector-masked
        // programs: callers merge the surviving flash sectors into
        // @p sectors first (programMerged), so the new copy supersedes
        // everything the old page still held.
        chips_.blockTable().invalidate(old);
    }
    // host_write distinguishes a synchronous host write from a
    // background write-buffer destage for attribution.
    chips_.programPage(dst, std::move(done), lpn, host_write, sectors);
    noteInUse();
}

void
Ftl::programMerged(Lpn lpn, flash::SectorMask sectors, PageDone done,
                   bool host_write)
{
    flash::SectorMask keep = 0;
    const Ppn old = mapping_.lookup(lpn);
    if (cfg_.sectorMode && old != kInvalidPpn)
        keep = chips_.blockTable().sectorMask(old) & ~sectors;
    if (keep == 0) {
        // Nothing valid survives outside the write: program directly
        // (the only path whole-page writes ever take).
        programHostData(lpn, sectors, std::move(done), host_write);
        return;
    }

    // Read-modify-write: fetch the surviving sectors, then program the
    // union. State lives in a slab slot so the read's completion
    // captures only {this, slot} (inside the DoneCallback budget).
    const std::uint32_t slot = pendingRmw_.acquire();
    pendingRmw_[slot] = PendingRmw{lpn, old, sectors, host_write,
                                   std::move(done)};
    ++stats_.sector.rmwReads;
    chips_.readPage(old, 0,
                    [this, slot](sim::Time) { finishRmw(slot); },
                    kInvalidLpn,
                    static_cast<std::uint32_t>(std::popcount(keep)));
}

void
Ftl::finishRmw(std::uint32_t slot)
{
    PendingRmw &p = pendingRmw_[slot];
    const Lpn lpn = p.lpn;
    const Ppn expect = p.expectOld;
    const flash::SectorMask sectors = p.sectors;
    const bool host = p.hostWrite;
    PageDone done = std::move(p.done);
    pendingRmw_.release(slot);

    if (mapping_.lookup(lpn) != expect) {
        // The mapping moved under the read (GC, refresh, or another
        // write landed first): retry from scratch so this write still
        // programs exactly once — no host write is ever dropped.
        ++stats_.sector.rmwRetries;
        programMerged(lpn, sectors, std::move(done), host);
        return;
    }
    // Recompute the survivors from the *current* mask: a sub-page TRIM
    // may have shrunk it while the read was in flight.
    const auto keep = static_cast<flash::SectorMask>(
        chips_.blockTable().sectorMask(expect) & ~sectors);
    programHostData(lpn, sectors | keep, std::move(done), host);
}

void
Ftl::maybeFlushWriteBuffer()
{
    // Destage down to the watermark; a small in-flight cap keeps the
    // flusher from monopolizing the host write points.
    constexpr std::uint32_t kMaxFlushInFlight = 8;
    while (flushesInFlight_ < kMaxFlushInFlight && wbuf_.needsFlush()) {
        Lpn lpn;
        flash::SectorMask sectors;
        if (!wbuf_.popFlushCandidate(lpn, sectors))
            return;
        ++flushesInFlight_;
        programMerged(lpn, sectors, [this](sim::Time) {
            --flushesInFlight_;
            maybeFlushWriteBuffer();
        }, false);
    }
}

void
Ftl::preloadWrite(Lpn lpn)
{
    ++stats_.preloadWrites;
    preloading_ = true;
    blocks_.deferAgeIndex();
    const Ppn dst = allocator_.allocateHostPage();
    const Ppn old = mapping_.remap(lpn, dst);
    if (old != kInvalidPpn) {
        chips_.blockTable().invalidate(old);
    }
    chips_.programImmediate(dst);
    preloading_ = false;
}

void
Ftl::finalizePreload()
{
    // Spread the apparent age of preloaded blocks so they become
    // refresh-eligible uniformly over preloadAgeSpread (defaulting to
    // the full refresh period) instead of storming at one instant.
    const sim::Time spreadT = cfg_.preloadAgeSpread > sim::Time{}
                                  ? cfg_.preloadAgeSpread
                                  : cfg_.refreshPeriod;
    const auto spread = static_cast<std::uint64_t>(spreadT.count());
    blocks_.restampAges([this, spread](BlockId) {
        return events_.now() - cfg_.refreshPeriod +
               sim::Time{rng_.uniformInt(0, spread)};
    });
    noteInUse();
    for (std::uint64_t plane = 0; plane < geom_.planes(); ++plane)
        maybeStartGc(plane);
}

bool
Ftl::migrateValidPage(Ppn src, PageDone done)
{
    const Lpn lpn = mapping_.reverse(src);
    if (lpn == kInvalidLpn)
        return false; // updated or already migrated meanwhile
    const std::uint64_t plane = geom_.planeOfBlock(geom_.blockOf(src));
    const Ppn dst = allocator_.allocateInternalPage(plane);
    // Capture the source's sector mask before invalidating it: a
    // partially-valid page stays partially valid across the migration
    // (GC copies only the live sectors).
    const flash::SectorMask sectors = chips_.blockTable().sectorMask(src);
    mapping_.remap(lpn, dst);
    chips_.blockTable().invalidate(src);
    chips_.programPage(dst, std::move(done), kInvalidLpn, false, sectors);
    noteInUse();
    return true;
}

bool
Ftl::queueMigration(Ppn src, bool want_fast, PageDone done)
{
    if (mapping_.reverse(src) == kInvalidLpn)
        return false;
    const std::uint64_t plane = geom_.planeOfBlock(geom_.blockOf(src));
    auto &q = want_fast ? fastQ_[plane] : slowQ_[plane];
    q.push_back(PendingMigration{src, std::move(done)});
    return true;
}

void
Ftl::flushMigrations(std::uint64_t plane)
{
    auto &fast = fastQ_[plane];
    auto &slow = slowQ_[plane];

    // Entries whose source was invalidated while buffered (a host
    // update raced the refresh) complete immediately without a program.
    auto prune = [&](std::deque<PendingMigration> &q) {
        while (!q.empty() &&
               mapping_.reverse(q.front().src) == kInvalidLpn) {
            if (q.front().done) {
                const sim::Time t = events_.now();
                events_.schedule(
                    t, [done = std::move(q.front().done), t] { done(t); });
            }
            q.pop_front();
        }
    };

    for (;;) {
        prune(fast);
        prune(slow);
        if (fast.empty() && slow.empty())
            break;

        // The internal block programs in order, so the next slot's page
        // level is fixed; give LSB slots to fast-wanting pages. Only one
        // slot in three is fast: everything else is displaced onto slow
        // CSB/MSB positions (the paper's Sec. III-C argument).
        const Ppn dst = allocator_.allocateInternalPage(plane);
        const auto page =
            static_cast<std::uint32_t>(dst % geom_.pagesPerBlock);
        const bool fast_slot = geom_.levelOfPage(page) == 0;

        const bool use_fast =
            (fast_slot && !fast.empty()) || slow.empty();
        auto &q = use_fast ? fast : slow;
        PendingMigration m = std::move(q.front());
        q.pop_front();

        if (use_fast) {
            if (fast_slot)
                ++stats_.refresh.fastSlotHits;
            else
                ++stats_.refresh.displacedFastPages;
        }
        const Lpn lpn = mapping_.reverse(m.src);
        const flash::SectorMask sectors =
            chips_.blockTable().sectorMask(m.src);
        mapping_.remap(lpn, dst);
        chips_.blockTable().invalidate(m.src);
        chips_.programPage(dst, std::move(m.done), kInvalidLpn, false,
                           sectors);
        noteInUse();
    }
}

void
Ftl::eraseAndRelease(BlockId b, ReleaseDone done)
{
    ++stats_.gc.erases;
    chips_.eraseBlock(b, [this, b, done = std::move(done)](sim::Time) {
        blocks_.release(b);
        if (done)
            done();
    });
}

void
Ftl::noteInUse()
{
    stats_.maxInUseBlocks =
        std::max(stats_.maxInUseBlocks, blocks_.inUseBlocks());
}

void
Ftl::maybeStartGc(std::uint64_t plane)
{
    if (preloading_)
        return;
    std::optional<GcJob> &slot = gcJobs_[plane];
    if (slot && !slot->finished())
        return;
    if (blocks_.freeCount(plane) > cfg_.gcFreeThreshold)
        return;
    BlockId victim;
    if (!blocks_.pickGcVictim(plane, victim))
        return;
    ++stats_.gc.invocations;
    slot.emplace(*this, victim).start();
}

// Runs as an event-queue callback, so everything it reaches is
// dispatch-path code. ida-lint: hot-path-root
void
Ftl::onGcFinished(std::uint64_t plane)
{
    // The finished job is still on the stack: its slot is reused from
    // a later event.
    events_.scheduleAfter(sim::Time{},
                          [this, plane] { maybeStartGc(plane); });
}

void
Ftl::startRefreshCandidates()
{
    if (!started_ || activeRefresh_ >= cfg_.maxConcurrentRefresh)
        return;
    const std::span<BlockId> pick(
        refreshPick_.data(),
        static_cast<std::size_t>(cfg_.maxConcurrentRefresh - activeRefresh_));
    const std::size_t n = blocks_.oldestRefreshCandidates(
        events_.now(), cfg_.refreshPeriod, pick);
    auto slot = refreshJobs_.begin();
    for (std::size_t i = 0; i < n; ++i) {
        // activeRefresh_ counts the unfinished jobs, so a free slot
        // exists for every pick.
        while (*slot && !(*slot)->finished())
            ++slot;
        ++activeRefresh_;
        slot->emplace(*this, pick[i]).start();
    }
}

// Self-rescheduling event-queue callback. ida-lint: hot-path-root
void
Ftl::refreshScan()
{
    if (!started_)
        return;
    startRefreshCandidates();
    events_.scheduleAfter(cfg_.refreshCheckInterval,
                          [this] { refreshScan(); });
}

void
Ftl::onRefreshFinished(BlockId)
{
    --activeRefresh_;
    // Keep the refresh pipeline full: pull the next overdue block as
    // soon as a slot frees instead of waiting for the next scan tick.
    events_.scheduleAfter(sim::Time{}, [this] { startRefreshCandidates(); });
}

} // namespace ida::ftl
