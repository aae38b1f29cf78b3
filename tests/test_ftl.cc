/**
 * @file
 * Unit tests for the FTL facade: host reads/writes, mapping updates,
 * classification counters, and preloading.
 */
#include <gtest/gtest.h>

#include "ftl_fixture.hh"

namespace ida::ftl {
namespace {

using testing::FtlFixture;

TEST(Ftl, LogicalCapacityHonorsOverProvision)
{
    FtlFixture f;
    const auto raw = f.geom.pages();
    EXPECT_EQ(f.ftl.logicalPages(),
              static_cast<std::uint64_t>(raw * 0.85));
}

TEST(Ftl, WriteThenReadRoundTrip)
{
    FtlFixture f;
    sim::Time wdone{-1}, rdone{-1};
    f.ftl.hostWrite(7, 0, [&](sim::Time t) { wdone = t; });
    f.events.run();
    EXPECT_GT(wdone, sim::Time{});
    EXPECT_TRUE(f.ftl.mapping().isMapped(7));

    f.ftl.hostRead(7, 0, [&](sim::Time t, std::uint64_t) { rdone = t; });
    f.events.run();
    EXPECT_GT(rdone, wdone);
    EXPECT_EQ(f.ftl.stats().hostReads, 1u);
    EXPECT_EQ(f.ftl.stats().hostWrites, 1u);
}

TEST(Ftl, UnmappedReadCompletesInstantlyAndIsCounted)
{
    FtlFixture f;
    sim::Time done{-1};
    f.ftl.hostRead(3, 0, [&](sim::Time t, std::uint64_t) { done = t; });
    f.events.run();
    EXPECT_EQ(done, sim::Time{});
    EXPECT_EQ(f.ftl.stats().hostReadsUnmapped, 1u);
}

TEST(Ftl, UpdateInvalidatesOldPage)
{
    FtlFixture f;
    f.writeNow(5);
    const flash::Ppn old = f.ftl.mapping().lookup(5);
    f.writeNow(5);
    const flash::Ppn neu = f.ftl.mapping().lookup(5);
    EXPECT_NE(old, neu);
    const auto &oldBlk = f.chips.block(f.geom.blockOf(old));
    EXPECT_EQ(oldBlk.pageState(static_cast<std::uint32_t>(
                  old % f.geom.pagesPerBlock)),
              flash::PageState::Invalid);
}

TEST(Ftl, PreloadInstallsMappingsWithoutTime)
{
    FtlFixture f;
    f.preload(30);
    EXPECT_EQ(f.events.now(), sim::Time{0});
    EXPECT_EQ(f.ftl.mapping().mappedCount(), 30u);
    for (flash::Lpn l = 0; l < 30; ++l)
        EXPECT_TRUE(f.ftl.mapping().isMapped(l));
}

TEST(Ftl, PreloadStaggersBlockAges)
{
    FtlConfig cfg;
    cfg.refreshPeriod = 1000 * sim::kSec;
    FtlFixture f(cfg);
    f.preload(60);
    sim::Time min{INT64_MAX}, max{INT64_MIN};
    int seen = 0;
    for (std::uint64_t b = 0; b < f.geom.blocks(); ++b) {
        const auto m = f.ftl.blocks().meta(b);
        if (m.inFreePool())
            continue;
        ++seen;
        min = std::min(min, m.refreshedAt());
        max = std::max(max, m.refreshedAt());
    }
    EXPECT_GT(seen, 1);
    EXPECT_LT(min, max); // ages actually spread
    EXPECT_LE(max, f.events.now());
    EXPECT_GE(min, f.events.now() - cfg.refreshPeriod);
}

TEST(Ftl, ClassificationCountsLevelsAndSiblingValidity)
{
    FtlFixture f;
    // LPNs stripe over the 4 planes (CWDP), so LPNs 0,4,8 share
    // plane-0 wordline 0 as its LSB, CSB, and MSB pages.
    for (flash::Lpn l = 0; l < 12; ++l)
        f.writeNow(l);
    f.ftl.hostRead(8, 0, nullptr); // MSB, siblings valid
    f.events.run();
    const auto &rc = f.ftl.stats().readClass;
    EXPECT_EQ(rc.byLevel[2], 1u);
    EXPECT_EQ(rc.byLevelLowerInvalid[2], 0u);

    f.writeNow(0); // update LPN 0 -> its old LSB page invalid
    f.ftl.hostRead(8, 0, nullptr); // MSB again, now lower-invalid
    f.events.run();
    EXPECT_EQ(rc.byLevel[2], 2u);
    EXPECT_EQ(rc.byLevelLowerInvalid[2], 1u);
}

TEST(Ftl, ResetReadClassificationZeroesWindow)
{
    FtlFixture f;
    f.writeNow(0);
    f.ftl.hostRead(0, 0, nullptr);
    f.events.run();
    EXPECT_GT(f.ftl.stats().readClass.byLevel[0], 0u);
    f.ftl.resetReadClassification();
    EXPECT_EQ(f.ftl.stats().readClass.byLevel[0], 0u);
    EXPECT_EQ(f.ftl.stats().hostReads, 0u);
}

TEST(Ftl, MigrateValidPageMovesMappingAndData)
{
    FtlFixture f;
    f.writeNow(9);
    const flash::Ppn src = f.ftl.mapping().lookup(9);
    EXPECT_TRUE(f.ftl.migrateValidPage(src, nullptr));
    f.events.run();
    const flash::Ppn dst = f.ftl.mapping().lookup(9);
    EXPECT_NE(src, dst);
    EXPECT_EQ(f.ftl.mapping().reverse(src), flash::kInvalidLpn);
    // Same-plane copyback.
    EXPECT_EQ(f.geom.planeOfBlock(f.geom.blockOf(src)),
              f.geom.planeOfBlock(f.geom.blockOf(dst)));
}

TEST(Ftl, MigrateSkipsStalePage)
{
    FtlFixture f;
    f.writeNow(9);
    const flash::Ppn src = f.ftl.mapping().lookup(9);
    f.writeNow(9); // update makes src stale
    EXPECT_FALSE(f.ftl.migrateValidPage(src, nullptr));
}

TEST(Ftl, QuiescentWhenIdle)
{
    FtlFixture f;
    EXPECT_TRUE(f.ftl.quiescent());
}

TEST(FtlDeath, IdaAndMoveToLsbAreExclusive)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    cfg.moveToLsbAlternative = true;
    EXPECT_EXIT(FtlFixture f(cfg), ::testing::ExitedWithCode(1),
                "mutually exclusive");
}

TEST(FtlDeath, NonPositiveRefreshCheckIntervalIsRejected)
{
    FtlConfig cfg;
    cfg.refreshCheckInterval = sim::Time{};
    EXPECT_EXIT(FtlFixture f(cfg), ::testing::ExitedWithCode(1),
                "FtlConfig::refreshCheckInterval");
    cfg.refreshCheckInterval = -sim::kSec;
    EXPECT_EXIT(FtlFixture f(cfg), ::testing::ExitedWithCode(1),
                "FtlConfig::refreshCheckInterval");
}

TEST(FtlDeath, InfeasibleGcFreeThresholdIsRejected)
{
    FtlConfig cfg;
    // 0: GC would wait for the last free block, which it needs itself.
    cfg.gcFreeThreshold = 0;
    EXPECT_EXIT(FtlFixture f(cfg), ::testing::ExitedWithCode(1),
                "FtlConfig::gcFreeThreshold");
    // The fixture's planes hold 16 blocks: at 16 or more the pool is
    // always low and GC never stops.
    cfg.gcFreeThreshold = 16;
    EXPECT_EXIT(FtlFixture f(cfg), ::testing::ExitedWithCode(1),
                "FtlConfig::gcFreeThreshold");
    cfg.gcFreeThreshold = 17;
    EXPECT_EXIT(FtlFixture f(cfg), ::testing::ExitedWithCode(1),
                "FtlConfig::gcFreeThreshold");
}

TEST(Ftl, GcFreeThresholdBoundsAreAccepted)
{
    FtlConfig cfg;
    cfg.gcFreeThreshold = 1;
    FtlFixture low(cfg);
    cfg.gcFreeThreshold = 15;
    FtlFixture high(cfg);
    EXPECT_TRUE(low.ftl.quiescent());
    EXPECT_TRUE(high.ftl.quiescent());
}

} // namespace
} // namespace ida::ftl
