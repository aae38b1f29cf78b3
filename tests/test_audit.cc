/**
 * @file
 * Cross-layer invariant auditor: positive tests (a clean simulation
 * stays clean under every check) and negative tests (each check fires
 * when its layer's state is corrupted through the fault-injection
 * peers; a checker that never fires verifies nothing).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "audit/auditor.hh"
#include "audit_peers.hh"
#include "ssd/ssd.hh"

namespace ida::audit {
namespace {

using testing_peers_block = ida::audit::testing::BlockPeer;
using testing_peers_blocks = ida::audit::testing::BlockManagerPeer;
using testing_peers_queue = ida::audit::testing::EventQueuePeer;

bool
fired(const Auditor &a, const std::string &check)
{
    return std::any_of(a.violations().begin(), a.violations().end(),
                       [&](const Violation &v) { return v.check == check; });
}

/** Tiny device with a warm footprint and some host traffic executed. */
struct WarmSsd
{
    ssd::Ssd ssd;

    explicit WarmSsd(ssd::SsdConfig cfg = ssd::SsdConfig::tiny(),
                     std::uint64_t preload = 600, int writes = 64)
        : ssd(cfg)
    {
        ssd.preloadSequential(preload);
        for (int i = 0; i < writes; ++i) {
            ssd::HostRequest w;
            w.arrival = i * sim::kMsec;
            w.isRead = (i % 3 == 0);
            w.startPage = static_cast<flash::Lpn>((i * 37) % preload);
            w.pageCount = 1;
            ssd.submit(w);
        }
        ssd.events().run();
    }
};

TEST(Auditor, CleanDeviceHasNoViolations)
{
    WarmSsd w;
    Auditor a(w.ssd);
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
    EXPECT_EQ(a.totalViolations(), 0u);
    EXPECT_EQ(a.runs(), 1u);
    EXPECT_TRUE(a.violations().empty());
}

TEST(Auditor, CleanUnderWriteBufferAndTrim)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.ftl.writeBuffer.capacityPages = 32;
    WarmSsd w(cfg);
    Auditor a(w.ssd);
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
    // TRIM a mix of mapped, buffered-dirty, and never-written pages;
    // the conservation deltas must keep balancing across them.
    for (flash::Lpn lpn = 0; lpn < 40; ++lpn)
        w.ssd.ftl().hostTrim(lpn * 17 % 700, 0);
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
}

TEST(Auditor, MaybeRunHonoursEventInterval)
{
    WarmSsd w;
    Auditor a(w.ssd);
    EXPECT_TRUE(a.maybeRun(1)); // plenty of events executed since attach
    EXPECT_FALSE(a.maybeRun(1'000'000'000)); // none since the last audit
    EXPECT_FALSE(a.maybeRun(0));             // 0 disables
    EXPECT_EQ(a.runs(), 1u);
}

TEST(Auditor, RebasesAcrossCounterReset)
{
    WarmSsd w;
    Auditor a(w.ssd);
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
    // The runner zeroes hostWrites when the measurement window opens;
    // the conservation check must re-anchor, not report phantoms.
    w.ssd.ftl().resetReadClassification();
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
}

TEST(Auditor, MappingBlockCleanWithTheHighestPhysicalPageMapped)
{
    // Overwrite a tiny device until its last physical page holds data,
    // then audit: the 32-bit mapping entries must agree with the block
    // state at the top of the address space too.
    ssd::Ssd ssd(ssd::SsdConfig::tiny());
    Auditor a(ssd);
    const flash::Ppn top = ssd.chips().geometry().pages() - 1;
    const std::uint64_t footprint = ssd.logicalPages() / 2;
    ssd.preloadSequential(footprint);
    sim::Time t = ssd.events().now();
    for (int i = 0; i < 20000 &&
                    ssd.ftl().mapping().reverse(top) == flash::kInvalidLpn;
         ++i) {
        ssd::HostRequest w;
        w.arrival = t;
        w.isRead = false;
        w.startPage = static_cast<flash::Lpn>((i * 7919) % footprint);
        w.pageCount = 1;
        ssd.submit(w);
        ssd.events().run();
        a.maybeRun(200);
        t = ssd.events().now() + sim::kMsec;
    }
    const flash::Lpn lpn = ssd.ftl().mapping().reverse(top);
    ASSERT_NE(lpn, flash::kInvalidLpn);
    EXPECT_EQ(ssd.ftl().mapping().lookup(lpn), top);
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
    EXPECT_EQ(a.totalViolations(), 0u) << a.summary();
}

// ---- Negative tests: every default check must fire on corruption. ----

TEST(AuditorNegative, MappingCheckCatchesInvalidatedMappedPage)
{
    WarmSsd w;
    const flash::Ppn ppn = w.ssd.ftl().mapping().lookup(0);
    ASSERT_NE(ppn, flash::kInvalidPpn);
    // Its last sector gone, the mapped page reads as Invalid.
    testing_peers_block::setSectorMask(w.ssd.chips().blockTable(), ppn, 0);

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "mapping-block")) << a.summary();
}

TEST(AuditorNegative, MappingCheckCatchesValidCountDrift)
{
    WarmSsd w;
    const flash::Ppn ppn = w.ssd.ftl().mapping().lookup(0);
    ASSERT_NE(ppn, flash::kInvalidPpn);
    testing_peers_block::bumpValidCount(
        w.ssd.chips().blockTable(), w.ssd.chips().geometry().blockOf(ppn),
        +1);

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "mapping-block")) << a.summary();
}

TEST(AuditorNegative, WordlineCacheCheckCatchesStaleMask)
{
    WarmSsd w;
    const flash::Ppn ppn = w.ssd.ftl().mapping().lookup(0);
    ASSERT_NE(ppn, flash::kInvalidPpn);
    const auto &geom = w.ssd.chips().geometry();
    const flash::BlockId b = geom.blockOf(ppn);
    const auto wl = geom.wordlineOfPage(
        static_cast<std::uint32_t>(ppn % geom.pagesPerBlock));
    testing_peers_block::setInvalidMask(
        w.ssd.chips().blockTable(), b, wl,
        static_cast<flash::LevelMask>(
            w.ssd.chips().block(b).invalidLevelMask(wl) ^ 0x1u));

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "wordline-cache")) << a.summary();
}

TEST(AuditorNegative, IdaCheckCatchesMaskDroppingLiveData)
{
    WarmSsd w;
    const flash::Ppn ppn = w.ssd.ftl().mapping().lookup(0);
    ASSERT_NE(ppn, flash::kInvalidPpn);
    const auto &geom = w.ssd.chips().geometry();
    auto &table = w.ssd.chips().blockTable();
    const flash::BlockId b = geom.blockOf(ppn);
    const auto page = static_cast<std::uint32_t>(ppn % geom.pagesPerBlock);
    const auto wl = geom.wordlineOfPage(page);
    // Pretend the wordline was IDA'd with lpn 0's own level dropped:
    // the dropped level still holds Valid data, which applyIda would
    // have refused.
    const auto mask = static_cast<flash::LevelMask>(
        flash::fullMask(static_cast<int>(geom.bitsPerCell)) &
        ~(1u << geom.levelOfPage(page)));
    testing_peers_block::setWordlineMask(table, b, wl, mask);
    testing_peers_block::setIdaFlag(table, b, true);

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "ida-coding")) << a.summary();
}

TEST(AuditorNegative, IdaCheckCatchesBlockFlagDisagreement)
{
    WarmSsd w;
    // No IDA wordline exists.
    testing_peers_block::setIdaFlag(w.ssd.chips().blockTable(), 0, true);

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "ida-coding")) << a.summary();
}

TEST(AuditorNegative, SectorValidityCheckCatchesMaskBeyondThePage)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.geometry.pageSizeBytes = 4096; // 8 sectors: the top byte is spare
    WarmSsd w(cfg);
    const flash::Ppn ppn = w.ssd.ftl().mapping().lookup(0);
    ASSERT_NE(ppn, flash::kInvalidPpn);
    auto &table = w.ssd.chips().blockTable();
    testing_peers_block::setSectorMask(
        table, ppn, static_cast<flash::SectorMask>(table.sectorMask(ppn) |
                                                   0x0100u));

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "sector-validity")) << a.summary();
    EXPECT_NE(a.summary().find("beyond sectorsPerPage"), std::string::npos)
        << a.summary();
}

TEST(AuditorNegative, SectorValidityCheckCatchesLiveMaskAboveWritePointer)
{
    WarmSsd w;
    const auto &geom = w.ssd.chips().geometry();
    flash::BlockId open = geom.blocks();
    for (flash::BlockId b = 0; b < geom.blocks(); ++b) {
        if (!w.ssd.chips().block(b).isFull()) {
            open = b;
            break;
        }
    }
    ASSERT_LT(open, geom.blocks());
    const flash::Ppn free = geom.firstPpnOf(open) +
                            w.ssd.chips().block(open).writePointer();
    testing_peers_block::setSectorMask(w.ssd.chips().blockTable(), free,
                                       0x0001);

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "sector-validity")) << a.summary();
    EXPECT_NE(a.summary().find("write pointer"), std::string::npos)
        << a.summary();
}

TEST(AuditorNegative, CacheCoherenceCheckCatchesUnbackedCachedSector)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.ftl.readCache.capacityPages = 64;
    WarmSsd w(cfg);
    flash::Lpn lpn = flash::kInvalidLpn;
    w.ssd.ftl().readCache().forEachLine(
        [&](flash::Lpn l, flash::SectorMask m) {
            if (lpn == flash::kInvalidLpn && (m & 1u) != 0)
                lpn = l;
        });
    ASSERT_NE(lpn, flash::kInvalidLpn) << "no cached line holds sector 0";
    const flash::Ppn ppn = w.ssd.ftl().mapping().lookup(lpn);
    ASSERT_NE(ppn, flash::kInvalidPpn);
    // Sector 0 leaves flash without the cache hearing of it; the page
    // stays Valid, so only the cached copy is now unbacked.
    auto &table = w.ssd.chips().blockTable();
    testing_peers_block::setSectorMask(
        table, ppn, static_cast<flash::SectorMask>(table.sectorMask(ppn) &
                                                   ~1u));

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "cache-coherence")) << a.summary();
    EXPECT_NE(a.summary().find("not covered"), std::string::npos)
        << a.summary();
}

TEST(AuditorNegative, EventQueueCheckCatchesHeapDisorder)
{
    WarmSsd w;
    auto &events = w.ssd.events();
    // Two pending events at distinct times, root earlier than child.
    events.schedule(events.now() + sim::Time{100}, [] {});
    events.schedule(events.now() + sim::Time{200}, [] {});
    ASSERT_GE(testing_peers_queue::heapSize(events), 2u);
    testing_peers_queue::swapEntries(events, 0, 1);

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "event-queue")) << a.summary();
}

TEST(AuditorNegative, EventQueueCheckCatchesStaleTimestamp)
{
    WarmSsd w;
    auto &events = w.ssd.events();
    events.schedule(events.now() + sim::Time{100}, [] {});
    testing_peers_queue::setEntryWhen(events, 0, events.now() - sim::Time{1});

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "event-queue")) << a.summary();
}

TEST(AuditorNegative, EventQueueCheckCatchesPoolLeak)
{
    WarmSsd w;
    testing_peers_queue::cutFreeList(w.ssd.events());

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "event-queue")) << a.summary();
}

/** WarmSsd plus three reads parked in the arrival FIFO. */
struct ParkedSsd : WarmSsd
{
    ParkedSsd()
    {
        for (int i = 1; i <= 3; ++i) {
            ssd::HostRequest r;
            r.arrival = ssd.events().now() + i * sim::kMsec;
            r.startPage = static_cast<flash::Lpn>(i);
            ssd.submit(r);
        }
    }
};

TEST(Auditor, ParkedArrivalsAreClean)
{
    ParkedSsd p;
    Auditor a(p.ssd);
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
    p.ssd.events().run();
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
}

TEST(AuditorNegative, AdmissionCheckCatchesInflightDrift)
{
    ParkedSsd p;
    ida::audit::testing::SsdPeer::dropOldestArrival(p.ssd);

    Auditor a(p.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "admission")) << a.summary();
}

TEST(AuditorNegative, AdmissionCheckCatchesMissingHeadEvent)
{
    // The oldest run moves off the (arrival, seq) its event fires at.
    ParkedSsd p;
    ida::audit::testing::SsdPeer::setArrival(
        p.ssd, 0, p.ssd.events().now() + sim::kUsec);

    Auditor a(p.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "admission")) << a.summary();
}

TEST(AuditorNegative, AdmissionCheckCatchesUnsortedFifo)
{
    ParkedSsd p;
    ida::audit::testing::SsdPeer::setArrival(
        p.ssd, 2, p.ssd.events().now() + sim::kUsec);

    Auditor a(p.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "admission")) << a.summary();
}

/**
 * WarmSsd plus one 2-page read whose pages have reached their idle
 * dies and reported: the request's completion event is pending.
 */
struct ReportedReadSsd : WarmSsd
{
    ReportedReadSsd()
    {
        ssd::HostRequest r;
        r.arrival = ssd.events().now();
        r.startPage = 1;
        r.pageCount = 2;
        ssd.submit(r);
        ssd.events().runUntil(ssd.events().now()); // dispatch only
    }

    std::size_t
    reported()
    {
        return ida::audit::testing::SsdPeer::forReportedReads(
            ssd, [](sim::Time &, std::uint32_t &) {});
    }
};

TEST(Auditor, ReportedReadIsClean)
{
    ReportedReadSsd p;
    ASSERT_EQ(p.reported(), 1u);
    Auditor a(p.ssd);
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
    p.ssd.events().run();
    EXPECT_EQ(p.reported(), 0u);
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
}

TEST(AuditorNegative, AdmissionCheckCatchesMovedReadCompletion)
{
    // The request now expects its completion a nanosecond after the
    // (tick, seq) its event fires at.
    ReportedReadSsd p;
    ASSERT_EQ(ida::audit::testing::SsdPeer::forReportedReads(
                  p.ssd, [](sim::Time &last, std::uint32_t &) {
                      last += sim::Time{1};
                  }),
              1u);

    Auditor a(p.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "admission")) << a.summary();
}

TEST(AuditorNegative, AdmissionCheckCatchesCompletionBeforeLastPage)
{
    // A page still outstanding, yet the completion event is scheduled.
    ReportedReadSsd p;
    ASSERT_EQ(ida::audit::testing::SsdPeer::forReportedReads(
                  p.ssd, [](sim::Time &, std::uint32_t &pending) {
                      pending = 1;
                  }),
              1u);

    Auditor a(p.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "admission")) << a.summary();
}

TEST(AuditorNegative, BlockAccountingCheckCatchesPoolFlagDrift)
{
    WarmSsd w;
    const flash::Ppn ppn = w.ssd.ftl().mapping().lookup(0);
    ASSERT_NE(ppn, flash::kInvalidPpn);
    const flash::BlockId b = w.ssd.chips().geometry().blockOf(ppn);
    w.ssd.ftl().blocks().meta(b).inFreePool(true); // holds data!

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "block-accounting")) << a.summary();
}

TEST(AuditorNegative, BlockAccountingCheckCatchesUnindexedAgeWrite)
{
    WarmSsd w;
    auto &bm = w.ssd.ftl().blocks();
    flash::BlockId oldest = 0;
    sim::Time key{};
    bool found = false;
    bm.forEachByAge([&](flash::BlockId b, sim::Time k) {
        if (!found) {
            oldest = b;
            key = k;
            found = true;
        }
    });
    ASSERT_TRUE(found);
    testing_peers_blocks::setRefreshedAtRaw(bm, oldest, key + sim::kSec);

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "block-accounting")) << a.summary();
    EXPECT_NE(a.summary().find("keyed at"), std::string::npos)
        << a.summary();
}

TEST(AuditorNegative, BlockAccountingCheckCatchesAgeIndexDisorder)
{
    WarmSsd w;
    auto &bm = w.ssd.ftl().blocks();
    std::vector<std::pair<flash::BlockId, sim::Time>> order;
    bm.forEachByAge([&](flash::BlockId b, sim::Time k) {
        order.emplace_back(b, k);
    });
    ASSERT_GE(order.size(), 2u);
    // Make the youngest block older than the oldest without moving it.
    testing_peers_blocks::setAgeKeyInPlace(
        bm, order.back().first, order.front().second - sim::kSec);

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "block-accounting")) << a.summary();
    EXPECT_NE(a.summary().find("follows block"), std::string::npos)
        << a.summary();
}

TEST(AuditorNegative, BlockAccountingCheckCatchesFutureClock)
{
    WarmSsd w;
    const flash::Ppn ppn = w.ssd.ftl().mapping().lookup(0);
    ASSERT_NE(ppn, flash::kInvalidPpn);
    testing_peers_block::setProgramTime(
        w.ssd.chips().blockTable(), w.ssd.chips().geometry().blockOf(ppn),
        w.ssd.events().now() + sim::kDay);

    Auditor a(w.ssd);
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "block-accounting")) << a.summary();
}

TEST(AuditorNegative, ConservationCheckCatchesCounterDrift)
{
    WarmSsd w;
    Auditor a(w.ssd);
    EXPECT_EQ(a.runAll(), 0u) << a.summary();
    w.ssd.ftl().mutableStats().hostWrites += 5; // phantom host writes
    EXPECT_GT(a.runAll(), 0u);
    EXPECT_TRUE(fired(a, "conservation")) << a.summary();
}

TEST(AuditorNegative, SummaryListsCheckAndDetail)
{
    WarmSsd w;
    const flash::Ppn ppn = w.ssd.ftl().mapping().lookup(0);
    ASSERT_NE(ppn, flash::kInvalidPpn);
    testing_peers_block::setProgramTime(
        w.ssd.chips().blockTable(), w.ssd.chips().geometry().blockOf(ppn),
        w.ssd.events().now() + sim::kDay);

    Auditor a(w.ssd);
    a.runAll();
    const std::string s = a.summary();
    EXPECT_NE(s.find("[block-accounting] block "), std::string::npos) << s;
    EXPECT_NE(s.find("programTime"), std::string::npos) << s;
    EXPECT_NE(s.find("is in the future"), std::string::npos) << s;
}

} // namespace
} // namespace ida::audit
