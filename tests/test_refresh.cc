/**
 * @file
 * Tests for the data-refresh flows: the baseline remapping refresh and
 * the IDA-modified refresh of paper Fig. 7 / Table I.
 */
#include <gtest/gtest.h>

#include "ftl_fixture.hh"

namespace ida::ftl {
namespace {

using testing::FtlFixture;

/** Fill plane-0's wordlines deterministically and age the blocks. */
struct RefreshRig : FtlFixture
{
    explicit RefreshRig(FtlConfig cfg, double adjust_error = 0.0)
        : FtlFixture(
              [&cfg] {
                  cfg.refreshPeriod = 100 * sim::kSec;
                  cfg.refreshCheckInterval = sim::kSec;
                  return cfg;
              }(),
              adjust_error)
    {
    }

    /** Write 3 * wls LPNs so plane 0 gets `wls` full wordlines. */
    void
    fillWordlines(std::uint32_t wls)
    {
        // LPNs stripe across the 4 planes; plane 0 receives every 4th.
        // One extra stripe forces the (now full) blocks to be closed:
        // a block only leaves the active state when its successor opens.
        for (flash::Lpn l = 0; l < 4ull * 3 * wls + 4; ++l)
            ftl.hostWrite(l, 0, nullptr);
        events.run();
    }

    /** LPN of (wl, level) on plane 0 under the striped fill. */
    flash::Lpn
    lpnAt(std::uint32_t wl, std::uint32_t level) const
    {
        return 4ull * (3 * wl + level);
    }

    /**
     * Make every closed block instantly refresh-eligible and run one
     * refresh wave. The window (50s) is far longer than any job but
     * shorter than the period (100s), so freshly refreshed blocks do
     * not become eligible again within the same call.
     */
    void
    ageAndRefresh()
    {
        for (std::uint64_t b = 0; b < geom.blocks(); ++b) {
            if (!ftl.blocks().meta(b).inFreePool())
                ftl.blocks().setRefreshedAt(b, events.now() - 200 * sim::kSec);
        }
        ftl.start();
        events.runUntil(events.now() + 50 * sim::kSec);
        EXPECT_TRUE(ftl.quiescent());
    }
};

TEST(RefreshBaseline, MigratesEverythingAndReclaims)
{
    FtlConfig cfg; // IDA off
    RefreshRig r(cfg);
    r.fillWordlines(4); // one full block per plane
    const auto mappedBefore = r.ftl.mapping().mappedCount();
    r.ageAndRefresh();
    const auto &st = r.ftl.stats().refresh;
    EXPECT_GT(st.refreshes, 0u);
    EXPECT_EQ(st.idaRefreshes, 0u);
    EXPECT_EQ(st.baselineRefreshes, st.refreshes);
    EXPECT_EQ(st.extraReads, 0u);
    EXPECT_EQ(st.extraWrites, 0u);
    EXPECT_EQ(st.adjustedWordlines, 0u);
    // All data still mapped; refreshed blocks were erased and released.
    EXPECT_EQ(r.ftl.mapping().mappedCount(), mappedBefore);
    EXPECT_GT(r.ftl.stats().gc.erases, 0u);
}

TEST(RefreshIda, AllValidWordlinesBecomeIdaCase1)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    RefreshRig r(cfg);
    r.fillWordlines(4);
    r.ageAndRefresh();
    const auto &st = r.ftl.stats().refresh;
    EXPECT_GT(st.idaRefreshes, 0u);
    EXPECT_GT(st.adjustedWordlines, 0u);
    // Case 1: the valid LSB moves out, CSB+MSB stay and read merged.
    const flash::Lpn msb = r.lpnAt(0, 2);
    const flash::Ppn p = r.ftl.mapping().lookup(msb);
    ASSERT_NE(p, flash::kInvalidPpn);
    const auto &blk = r.chips.block(r.geom.blockOf(p));
    const auto page = static_cast<std::uint32_t>(
        p % r.geom.pagesPerBlock);
    EXPECT_TRUE(blk.isIdaWordline(r.geom.wordlineOfPage(page)));
    EXPECT_EQ(blk.wordlineMask(r.geom.wordlineOfPage(page)), 0b110);
    EXPECT_EQ(blk.readSensings(page, r.chips.coding()), 2); // MSB 4->2
    // The LSB sibling was migrated to a different block, still readable.
    const flash::Lpn lsb = r.lpnAt(0, 0);
    const flash::Ppn lp = r.ftl.mapping().lookup(lsb);
    ASSERT_NE(lp, flash::kInvalidPpn);
    EXPECT_NE(r.geom.blockOf(lp), r.geom.blockOf(p));
}

TEST(RefreshIda, LsbInvalidWordlineIsCase2)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    RefreshRig r(cfg);
    r.fillWordlines(4);
    // Invalidate the LSB of plane-0 WL0 by updating its LPN.
    r.ftl.hostWrite(r.lpnAt(0, 0), 0, nullptr);
    r.events.run();
    r.ageAndRefresh();
    const flash::Lpn csb = r.lpnAt(0, 1);
    const flash::Ppn p = r.ftl.mapping().lookup(csb);
    const auto &blk = r.chips.block(r.geom.blockOf(p));
    const auto page = static_cast<std::uint32_t>(
        p % r.geom.pagesPerBlock);
    // CSB stayed in place (case 2 keeps CSB+MSB) and reads in 1 sensing.
    EXPECT_TRUE(blk.isIdaWordline(r.geom.wordlineOfPage(page)));
    EXPECT_EQ(blk.readSensings(page, r.chips.coding()), 1);
}

TEST(RefreshIda, CsbInvalidWordlineIsCase3MsbOnly)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    RefreshRig r(cfg);
    r.fillWordlines(4);
    r.ftl.hostWrite(r.lpnAt(1, 1), 0, nullptr); // kill CSB of WL1
    r.events.run();
    r.ageAndRefresh();
    const flash::Lpn msb = r.lpnAt(1, 2);
    const flash::Ppn p = r.ftl.mapping().lookup(msb);
    const auto &blk = r.chips.block(r.geom.blockOf(p));
    const auto page = static_cast<std::uint32_t>(
        p % r.geom.pagesPerBlock);
    const auto wl = r.geom.wordlineOfPage(page);
    EXPECT_EQ(blk.wordlineMask(wl), 0b100); // MSB only
    EXPECT_EQ(blk.readSensings(page, r.chips.coding()), 1); // MSB 4->1
}

TEST(RefreshIda, MsbInvalidWordlineIsMigratedNotAdjusted)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    RefreshRig r(cfg);
    r.fillWordlines(4);
    r.ftl.hostWrite(r.lpnAt(2, 2), 0, nullptr); // kill MSB of WL2: case 5
    r.events.run();
    const flash::Ppn before = r.ftl.mapping().lookup(r.lpnAt(2, 0));
    r.ageAndRefresh();
    // The still-valid LSB/CSB of case-5 wordlines moved to a new block.
    const flash::Ppn after = r.ftl.mapping().lookup(r.lpnAt(2, 0));
    EXPECT_NE(before, after);
}

TEST(RefreshIda, DisturbedPagesAreWrittenBack)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    RefreshRig r(cfg, /*adjust_error=*/1.0); // every kept page disturbed
    r.fillWordlines(4);
    r.ageAndRefresh();
    const auto &st = r.ftl.stats().refresh;
    EXPECT_GT(st.targetPages, 0u);
    EXPECT_EQ(st.extraWrites, st.targetPages);
    EXPECT_EQ(st.extraReads, st.targetPages);
    // With everything disturbed, no read should be IDA-served afterwards:
    // every kept page was re-homed to a conventional block.
    for (flash::Lpn l = 0; l < 48; ++l) {
        const flash::Ppn p = r.ftl.mapping().lookup(l);
        if (p == flash::kInvalidPpn)
            continue;
        const auto &blk = r.chips.block(r.geom.blockOf(p));
        const auto page = static_cast<std::uint32_t>(
            p % r.geom.pagesPerBlock);
        EXPECT_FALSE(
            blk.isIdaWordline(r.geom.wordlineOfPage(page)))
            << "lpn " << l;
    }
}

TEST(RefreshIda, ErrorFreeKeepsEverythingInPlace)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    RefreshRig r(cfg, /*adjust_error=*/0.0);
    r.fillWordlines(4);
    r.ageAndRefresh();
    const auto &st = r.ftl.stats().refresh;
    EXPECT_EQ(st.extraWrites, 0u);
    EXPECT_EQ(st.extraReads, st.targetPages);
}

TEST(RefreshIda, IdaBlockForceMigratesNextCycle)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    RefreshRig r(cfg);
    r.fillWordlines(4);
    r.ageAndRefresh();
    const auto idaRefreshes1 = r.ftl.stats().refresh.idaRefreshes;
    ASSERT_GT(idaRefreshes1, 0u);
    const flash::Ppn before = r.ftl.mapping().lookup(r.lpnAt(0, 2));
    // Age everything again: the IDA blocks must now be *migrated*.
    r.ageAndRefresh();
    const auto &st = r.ftl.stats().refresh;
    EXPECT_GT(st.baselineRefreshes, 0u);
    const flash::Ppn after = r.ftl.mapping().lookup(r.lpnAt(0, 2));
    EXPECT_NE(before, after);
    // And the old IDA block was reclaimed (erased at some point).
    EXPECT_GT(r.ftl.stats().gc.erases, 0u);
}

TEST(RefreshIda, TargetCountsMatchTableIVShape)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    RefreshRig r(cfg);
    r.fillWordlines(4);
    r.ageAndRefresh();
    const auto &st = r.ftl.stats().refresh;
    // All wordlines were fully valid (case 1): every CSB+MSB is a
    // target, i.e. 2/3 of the valid pages.
    EXPECT_EQ(st.targetPages * 3, st.validPages * 2);
    EXPECT_EQ(st.extraReads, st.targetPages);
}

TEST(RefreshIda, Cases13DisabledFallsBackToMigration)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    cfg.idaHandleCases13 = false;
    RefreshRig r(cfg);
    r.fillWordlines(4); // everything case 1 -> no natural IDA targets
    r.ageAndRefresh();
    const auto &st = r.ftl.stats().refresh;
    EXPECT_EQ(st.adjustedWordlines, 0u);
    EXPECT_EQ(st.baselineRefreshes, st.refreshes);
}

TEST(RefreshIda, Cases13DisabledStillHandlesCase2)
{
    FtlConfig cfg;
    cfg.enableIda = true;
    cfg.idaHandleCases13 = false;
    RefreshRig r(cfg);
    r.fillWordlines(4);
    // Make WL0 of plane 0 a natural case 2 (LSB invalid).
    r.ftl.hostWrite(r.lpnAt(0, 0), 0, nullptr);
    r.events.run();
    r.ageAndRefresh();
    EXPECT_GT(r.ftl.stats().refresh.adjustedWordlines, 0u);
}

} // namespace
} // namespace ida::ftl
