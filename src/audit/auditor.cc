#include "audit/auditor.hh"

#include <algorithm>
#include <sstream>

#include "ssd/ssd.hh"

namespace ida::audit {

namespace {

/** Keep a corrupt run's report readable; totalViolations() is exact. */
constexpr std::size_t kMaxStoredViolations = 100;

template <typename... Ts>
std::string
cat(Ts &&...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
}

} // namespace

const Auditor::Check Auditor::kCatalog[] = {
    {"mapping-block", &Auditor::checkMappingBlock},
    {"wordline-cache", &Auditor::checkWordlineCache},
    {"ida-coding", &Auditor::checkIdaCoding},
    {"event-queue", &Auditor::checkEventQueue},
    {"admission", &Auditor::checkAdmission},
    {"block-accounting", &Auditor::checkBlockAccounting},
    {"sector-validity", &Auditor::checkSectorValidity},
    {"cache-coherence", &Auditor::checkCacheCoherence},
    {"conservation", &Auditor::checkConservation},
};

Auditor::Auditor(ssd::Ssd &ssd) : ssd_(ssd), base_(captureBaseline()) {}

void
Auditor::fail(std::string detail)
{
    ++totalViolations_;
    if (violations_.size() < kMaxStoredViolations)
        violations_.push_back(Violation{currentCheck_, std::move(detail)});
}

std::size_t
Auditor::runAll()
{
    const std::uint64_t before = totalViolations_;
    for (const Check &c : kCatalog) {
        currentCheck_ = c.name;
        (this->*c.run)();
    }
    currentCheck_ = nullptr;
    ++runs_;
    lastAuditExecuted_ = ssd_.events().executed();
    return static_cast<std::size_t>(totalViolations_ - before);
}

bool
Auditor::maybeRun(std::uint64_t every_events)
{
    if (every_events == 0)
        return false;
    if (ssd_.events().executed() - lastAuditExecuted_ < every_events)
        return false;
    runAll();
    return true;
}

void
Auditor::rebase()
{
    base_ = captureBaseline();
}

std::string
Auditor::summary() const
{
    std::ostringstream os;
    os << "audit: " << runs_ << " run(s), " << totalViolations_
       << " violation(s)";
    const std::size_t show = std::min<std::size_t>(violations_.size(), 5);
    for (std::size_t i = 0; i < show; ++i)
        os << "\n  [" << violations_[i].check << "] "
           << violations_[i].detail;
    if (totalViolations_ > show)
        os << "\n  ... " << (totalViolations_ - show) << " more";
    return os.str();
}

Auditor::Baseline
Auditor::captureBaseline() const
{
    const auto &fs = ssd_.ftl().stats();
    const auto &ws = ssd_.ftl().writeBufferStats();
    const auto &cs = ssd_.chips().stats();
    Baseline b;
    b.chipPrograms = cs.programs;
    b.chipErases = cs.erases;
    b.hostWrites = fs.hostWrites;
    b.hostTrims = fs.hostTrims;
    b.preloadWrites = fs.preloadWrites;
    b.gcMigrated = fs.gc.migratedPages;
    b.gcErases = fs.gc.erases;
    b.refreshMigrated = fs.refresh.migratedPages;
    b.refreshExtraWrites = fs.refresh.extraWrites;
    b.wbBuffered = ws.bufferedWrites;
    b.wbCoalesced = ws.coalescedWrites;
    b.wbFlushes = ws.flushes;
    b.wbTrimmed = ws.trimmed;
    b.wbSize = ssd_.ftl().writeBuffer().size();
    b.rmwInFlight = ssd_.ftl().rmwInFlight();
    return b;
}

void
Auditor::checkMappingBlock()
{
    const auto &ftl = ssd_.ftl();
    const auto &map = ftl.mapping();
    const auto &chips = ssd_.chips();
    const auto &geom = chips.geometry();
    const std::uint32_t ppb = geom.pagesPerBlock;

    // Forward pass: every live L2P entry points into range, at a Valid
    // page, and the P2L inverse points back.
    std::uint64_t forwardMapped = 0;
    for (flash::Lpn lpn = 0; lpn < map.logicalPages(); ++lpn) {
        const flash::Ppn ppn = map.lookup(lpn);
        if (ppn == flash::kInvalidPpn)
            continue;
        ++forwardMapped;
        if (ppn >= map.physicalPages()) {
            fail(cat("lpn ", lpn, " maps to out-of-range ppn ", ppn));
            continue;
        }
        if (map.reverse(ppn) != lpn)
            fail(cat("l2p/p2l disagree: lpn ", lpn, " -> ppn ", ppn,
                     " -> lpn ", map.reverse(ppn)));
        const auto &blk = chips.block(geom.blockOf(ppn));
        if (!blk.isValid(static_cast<std::uint32_t>(ppn % ppb)))
            fail(cat("lpn ", lpn, " maps to ppn ", ppn,
                     " whose page state is not Valid"));
    }
    if (forwardMapped != map.mappedCount())
        fail(cat("mappedCount ", map.mappedCount(), " != ",
                 forwardMapped, " live l2p entries"));

    // Block sweep: P2L inverse agreement, the incrementally maintained
    // validCount, and the device-wide valid-page total.
    std::uint64_t reverseMapped = 0;
    std::uint64_t totalValid = 0;
    for (flash::BlockId b = 0; b < geom.blocks(); ++b) {
        const auto &blk = chips.block(b);
        std::uint32_t validHere = 0;
        for (std::uint32_t p = 0; p < ppb; ++p) {
            const flash::Ppn ppn = geom.firstPpnOf(b) + p;
            const bool valid = blk.isValid(p);
            const flash::Lpn lpn = map.reverse(ppn);
            if (valid)
                ++validHere;
            if (lpn != flash::kInvalidLpn) {
                ++reverseMapped;
                if (lpn >= map.logicalPages())
                    fail(cat("ppn ", ppn, " reverse-maps to out-of-range "
                             "lpn ", lpn));
                else if (map.lookup(lpn) != ppn)
                    fail(cat("p2l/l2p disagree: ppn ", ppn, " -> lpn ",
                             lpn, " -> ppn ", map.lookup(lpn)));
                if (!valid)
                    fail(cat("block ", b, " page ", p,
                             ": mapped but not Valid"));
            } else if (valid) {
                fail(cat("block ", b, " page ", p,
                         ": Valid page with no reverse mapping"));
            }
        }
        if (validHere != blk.validCount())
            fail(cat("block ", b, ": validCount ", blk.validCount(),
                     " != recount ", validHere));
        totalValid += validHere;
    }
    if (reverseMapped != forwardMapped)
        fail(cat("p2l live entries ", reverseMapped,
                 " != l2p live entries ", forwardMapped));
    if (totalValid != map.mappedCount())
        fail(cat("total Valid pages ", totalValid, " != mappedCount ",
                 map.mappedCount()));
}

void
Auditor::checkWordlineCache()
{
    const auto &chips = ssd_.chips();
    const auto &geom = chips.geometry();
    for (flash::BlockId b = 0; b < geom.blocks(); ++b) {
        const auto &blk = chips.block(b);
        for (std::uint32_t wl = 0; wl < blk.numWordlines(); ++wl) {
            const flash::LevelMask cached = blk.invalidLevelMask(wl);
            const flash::LevelMask truth = blk.recomputeInvalidMask(wl);
            if (cached != truth)
                fail(cat("block ", b, " wl ", wl,
                         ": cached invalid mask ", int(cached),
                         " != recomputed ", int(truth)));
        }
    }
}

void
Auditor::checkIdaCoding()
{
    const auto &chips = ssd_.chips();
    const auto &geom = chips.geometry();
    const auto &scheme = chips.coding();
    const flash::LevelMask full = flash::fullMask(scheme.bits());
    const int numStates = scheme.numStates();

    for (flash::BlockId b = 0; b < geom.blocks(); ++b) {
        const auto &blk = chips.block(b);
        bool anyIda = false;
        for (std::uint32_t wl = 0; wl < blk.numWordlines(); ++wl) {
            const flash::LevelMask mask = blk.wordlineMask(wl);
            if (mask == 0 || (mask & ~full) != 0) {
                fail(cat("block ", b, " wl ", wl,
                         ": wordline mask ", int(mask),
                         " outside (0, full]"));
                continue;
            }
            if (mask == full)
                continue;
            anyIda = true;

            // IDA only applies to fully programmed wordlines and never
            // drops a level whose page is still live.
            for (int level = 0; level < scheme.bits(); ++level) {
                const auto page = static_cast<std::uint32_t>(
                    wl * static_cast<std::uint32_t>(scheme.bits()) +
                    static_cast<std::uint32_t>(level));
                const flash::PageState st = blk.pageState(page);
                if (st == flash::PageState::Free)
                    fail(cat("block ", b, " wl ", wl, " level ", level,
                             ": IDA wordline has a Free page"));
                else if (((mask >> level) & 1u) == 0 &&
                         st == flash::PageState::Valid)
                    fail(cat("block ", b, " wl ", wl, " level ", level,
                             ": dropped level still holds Valid data"));
            }

            // The memoized merge the reads of this wordline will use.
            const flash::IdaMerge &m = scheme.idaMerge(mask);
            if (m.validMask != mask) {
                fail(cat("idaMerge(", int(mask), ") cached for mask ",
                         int(m.validMask)));
                continue;
            }
            if (static_cast<int>(m.stateMap.size()) != numStates) {
                fail(cat("idaMerge(", int(mask), "): stateMap size ",
                         m.stateMap.size(), " != ", numStates));
                continue;
            }
            std::vector<bool> isSurvivor(
                static_cast<std::size_t>(numStates), false);
            for (std::size_t i = 0; i < m.survivors.size(); ++i) {
                const int s = m.survivors[i];
                if (s < 0 || s >= numStates) {
                    fail(cat("idaMerge(", int(mask),
                             "): survivor out of range: ", s));
                    continue;
                }
                if (i > 0 && m.survivors[i - 1] >= s)
                    fail(cat("idaMerge(", int(mask),
                             "): survivors not strictly ascending"));
                isSurvivor[static_cast<std::size_t>(s)] = true;
            }
            for (int s = 0; s < numStates; ++s) {
                const int t = m.stateMap[static_cast<std::size_t>(s)];
                if (t < s || t >= numStates) {
                    // ISPP can only add charge: states move up, never
                    // down (paper Sec. III-B).
                    fail(cat("idaMerge(", int(mask), "): state ", s,
                             " maps down/out of range to ", t));
                    continue;
                }
                if (!isSurvivor[static_cast<std::size_t>(t)])
                    fail(cat("idaMerge(", int(mask), "): state ", s,
                             " maps to non-survivor ", t));
                if (m.stateMap[static_cast<std::size_t>(t)] != t)
                    fail(cat("idaMerge(", int(mask), "): target ", t,
                             " is not a fixed point"));
            }
            for (int level = 0; level < scheme.bits(); ++level) {
                const int n =
                    m.sensingCounts[static_cast<std::size_t>(level)];
                const auto nv = static_cast<int>(
                    m.readVoltages[static_cast<std::size_t>(level)]
                        .size());
                if (((mask >> level) & 1u) != 0) {
                    if (n < 1 || n > scheme.sensingCount(level))
                        fail(cat("idaMerge(", int(mask), "): level ",
                                 level, " sensing count ", n,
                                 " outside [1, conventional ",
                                 scheme.sensingCount(level), "]"));
                    if (nv != n)
                        fail(cat("idaMerge(", int(mask), "): level ",
                                 level, " has ", nv,
                                 " read voltages for ", n, " sensings"));
                } else if (n != 0 || nv != 0) {
                    fail(cat("idaMerge(", int(mask),
                             "): invalid level ", level,
                             " still has sensings/voltages"));
                }
            }
        }
        if (blk.isIdaBlock() != anyIda)
            fail(cat("block ", b, ": isIdaBlock ", blk.isIdaBlock(),
                     " but ", anyIda ? "has" : "has no",
                     " IDA wordlines"));
    }
}

void
Auditor::checkEventQueue()
{
    std::string why;
    if (!ssd_.events().validateHeap(&why))
        fail(std::move(why));
}

void
Auditor::checkAdmission()
{
    std::string why;
    if (!ssd_.validateAdmission(&why))
        fail(std::move(why));
}

void
Auditor::checkBlockAccounting()
{
    const auto &ftl = ssd_.ftl();
    const auto &bm = ftl.blocks();
    const auto &chips = ssd_.chips();
    const auto &geom = chips.geometry();
    const sim::Time now = ssd_.events().now();
    // finalizePreload may legitimately post-date refreshedAt by up to
    // (preloadAgeSpread - refreshPeriod) when the spread is the larger.
    const sim::Time refreshSlack = std::max(
        sim::Time{},
        ftl.config().preloadAgeSpread - ftl.config().refreshPeriod);

    // The age index holds closed blocks only, each keyed by its current
    // refreshedAt, in strictly increasing (refreshedAt, id) order.
    std::vector<bool> indexed(geom.blocks(), false);
    bool first = true;
    flash::BlockId prevId = 0;
    sim::Time prevKey{};
    bm.forEachByAge([&](flash::BlockId b, sim::Time key) {
        if (indexed[b])
            fail(cat("age index: block ", b, " appears twice"));
        indexed[b] = true;
        const auto m = bm.meta(b);
        if (m.inFreePool() || m.hostActive() || m.internalActive())
            fail(cat("age index: block ", b, " is not closed"));
        if (key != m.refreshedAt())
            fail(cat("age index: block ", b, " keyed at ", key,
                     " but refreshedAt is ", m.refreshedAt()));
        if (!first && (key < prevKey || (key == prevKey && b < prevId)))
            fail(cat("age index: block ", b, " (", key,
                     ") follows block ", prevId, " (", prevKey, ")"));
        first = false;
        prevId = b;
        prevKey = key;
    });

    std::vector<std::uint64_t> freeByPlane(geom.planes(), 0);
    std::uint64_t closed = 0;
    for (flash::BlockId b = 0; b < geom.blocks(); ++b) {
        const auto m = bm.meta(b);
        const auto &blk = chips.block(b);
        if (m.hostActive() && m.internalActive())
            fail(cat("block ", b, ": both host- and internal-active"));
        if (m.inFreePool()) {
            ++freeByPlane[geom.planeOfBlock(b)];
            if (m.hostActive() || m.internalActive())
                fail(cat("block ", b, ": pooled but active"));
            if (m.busyWithJob())
                fail(cat("block ", b, ": pooled but busy with a job"));
            if (!blk.isErased())
                fail(cat("block ", b, ": pooled but not erased"));
        } else if (!m.hostActive() && !m.internalActive()) {
            ++closed;
            if (!indexed[b])
                fail(cat("block ", b, ": closed but not in the age index"));
        }
        if (m.refreshedAt() > now + refreshSlack)
            fail(cat("block ", b, ": refreshedAt ", m.refreshedAt(),
                     " is in the future (now ", now, ")"));
        if (blk.programTime() > now)
            fail(cat("block ", b, ": programTime ", blk.programTime(),
                     " is in the future (now ", now, ")"));
    }
    for (std::uint64_t plane = 0; plane < geom.planes(); ++plane) {
        if (bm.freeCount(plane) != freeByPlane[plane])
            fail(cat("plane ", plane, ": freeCount ",
                     bm.freeCount(plane), " != ", freeByPlane[plane],
                     " blocks flagged inFreePool"));
    }
    if (bm.inUseBlocks() != closed)
        fail(cat("inUseBlocks ", bm.inUseBlocks(), " != recount ",
                 closed));
}

void
Auditor::checkSectorValidity()
{
    const auto &chips = ssd_.chips();
    const auto &geom = chips.geometry();
    const std::uint32_t ppb = geom.pagesPerBlock;
    for (flash::BlockId b = 0; b < geom.blocks(); ++b) {
        const auto &blk = chips.block(b);
        const flash::SectorMask full = blk.fullSectorMask();
        for (std::uint32_t p = 0; p < ppb; ++p) {
            const flash::SectorMask m = blk.sectorMask(p);
            if ((m & ~full) != 0)
                fail(cat("block ", b, " page ", p, ": sector mask 0x",
                         std::hex, m, std::dec,
                         " has bits beyond sectorsPerPage"));
            // Programming is in order and erase clears every mask, so a
            // live sector at or above the write pointer is corruption.
            if (m != 0 && blk.isFree(p))
                fail(cat("block ", b, " page ", p, ": sector mask 0x",
                         std::hex, m, std::dec,
                         " at/above the write pointer ",
                         blk.writePointer()));
        }
    }
}

void
Auditor::checkCacheCoherence()
{
    const auto &ftl = ssd_.ftl();
    const auto &rc = ftl.readCache();
    const auto &wb = ftl.writeBuffer();
    const auto &map = ftl.mapping();
    const auto &chips = ssd_.chips();
    const flash::SectorMask full = chips.geometry().fullSectorMask();

    if (!rc.enabled()) {
        if (rc.size() != 0)
            fail(cat("read cache disabled but holds ", rc.size(),
                     " lines"));
        return;
    }
    if (rc.size() > rc.config().capacityPages)
        fail(cat("read cache holds ", rc.size(), " lines, capacity ",
                 rc.config().capacityPages));

    std::uint64_t lines = 0;
    rc.forEachLine([&](flash::Lpn lpn, flash::SectorMask cached) {
        ++lines;
        if (cached == 0) {
            fail(cat("cache line lpn ", lpn, " has an empty mask"));
            return;
        }
        if ((cached & ~full) != 0)
            fail(cat("cache line lpn ", lpn, ": mask 0x", std::hex,
                     cached, std::dec, " has bits beyond "
                     "sectorsPerPage"));
        if (lpn >= map.logicalPages()) {
            fail(cat("cache line lpn ", lpn, " out of logical range"));
            return;
        }
        if (rc.peek(lpn) != cached) {
            fail(cat("cache line lpn ", lpn, ": LRU list mask 0x",
                     std::hex, cached, " != index mask 0x",
                     rc.peek(lpn), std::dec));
            return;
        }
        // The coherence invariant: a cached sector is backed by the
        // flash copy or by a dirty write-buffer entry. Anything else
        // means a write/TRIM ran without invalidating the cache, or a
        // zero-fill hole was inserted.
        flash::SectorMask backed = wb.dirtyMask(lpn) & full;
        const flash::Ppn ppn = map.lookup(lpn);
        if (ppn != flash::kInvalidPpn)
            backed |= chips.blockTable().sectorMask(ppn);
        if ((cached & ~backed) != 0)
            fail(cat("cache line lpn ", lpn, ": cached mask 0x",
                     std::hex, cached, " not covered by flash+buffer 0x",
                     backed, std::dec));
    });
    if (lines != rc.size())
        fail(cat("cache LRU list has ", lines, " lines, index has ",
                 rc.size()));
}

void
Auditor::checkConservation()
{
    const auto &ftl = ssd_.ftl();
    const auto &fs = ftl.stats();
    if (fs.hostWrites < base_.hostWrites) {
        // An external counter reset (Ftl::resetReadClassification zeroes
        // hostWrites when the measurement window opens): re-anchor the
        // deltas instead of reporting phantom violations.
        rebase();
        return;
    }
    const auto &ws = ftl.writeBufferStats();
    const auto &cs = ssd_.chips().stats();
    const auto &wb = ftl.writeBuffer();

    const std::uint64_t dWrites = fs.hostWrites - base_.hostWrites;
    const std::uint64_t dBuffered = ws.bufferedWrites - base_.wbBuffered;
    const std::uint64_t dCoalesced =
        ws.coalescedWrites - base_.wbCoalesced;
    const std::uint64_t dFlushes = ws.flushes - base_.wbFlushes;
    const std::uint64_t dTrimmed = ws.trimmed - base_.wbTrimmed;
    const std::uint64_t dPrograms = cs.programs - base_.chipPrograms;
    const std::uint64_t dGcMig = fs.gc.migratedPages - base_.gcMigrated;
    const std::uint64_t dRefMig =
        fs.refresh.migratedPages - base_.refreshMigrated;
    const std::uint64_t dRefExtra =
        fs.refresh.extraWrites - base_.refreshExtraWrites;

    // A sub-page write whose surviving sectors need a read-modify-write
    // merge is counted (host write or buffer destage) when accepted,
    // but its program is only issued when the merge read completes —
    // subtract the merges still in flight at this instant.
    const std::int64_t dRmw =
        static_cast<std::int64_t>(ftl.rmwInFlight()) -
        static_cast<std::int64_t>(base_.rmwInFlight);

    // Every timed program is a write-through host write, a buffer
    // destage, a GC migration, or a refresh migration/write-back
    // (preloads use programImmediate, which is not a timed program).
    const std::int64_t expected =
        static_cast<std::int64_t>((dWrites - dBuffered - dCoalesced) +
                                  dFlushes + dGcMig + dRefMig +
                                  dRefExtra) -
        dRmw;
    if (ftl.config().moveToLsbAlternative) {
        // queueMigration counts the page before flushMigrations may
        // prune it (source invalidated while buffered), so the counter
        // can only overstate the programs actually issued.
        if (static_cast<std::int64_t>(dPrograms) > expected)
            fail(cat("programs ", dPrograms,
                     " exceed accounted writes ", expected,
                     " (move-to-LSB mode)"));
    } else if (static_cast<std::int64_t>(dPrograms) != expected) {
        fail(cat("programs ", dPrograms, " != accounted writes ",
                 expected, " (host ", dWrites, " - buffered ",
                 dBuffered, " - coalesced ", dCoalesced, " + flushes ",
                 dFlushes, " + gc ", dGcMig, " + refresh ", dRefMig,
                 " + writeback ", dRefExtra, " - rmw in flight ", dRmw,
                 ")"));
    }

    const std::uint64_t dChipErases = cs.erases - base_.chipErases;
    const std::uint64_t dFtlErases = fs.gc.erases - base_.gcErases;
    if (dChipErases != dFtlErases)
        fail(cat("chip erases ", dChipErases,
                 " != FTL-issued erases ", dFtlErases));

    const std::uint64_t expectSize =
        base_.wbSize + dBuffered - dFlushes - dTrimmed;
    if (wb.size() != expectSize)
        fail(cat("write buffer holds ", wb.size(), " dirty pages, "
                 "counters say ", expectSize));
    if (wb.enabled() && wb.size() > wb.config().capacityPages)
        fail(cat("write buffer occupancy ", wb.size(),
                 " exceeds capacity ", wb.config().capacityPages));
}

} // namespace ida::audit
