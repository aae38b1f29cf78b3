/**
 * @file
 * Unit tests for the move-to-LSB alternative's migration buffering
 * (queueMigration / flushMigrations): slot alignment, displacement
 * accounting, and stale-entry handling.
 */
#include <gtest/gtest.h>

#include "ftl_fixture.hh"

namespace ida::ftl {
namespace {

using testing::FtlFixture;

FtlConfig
altCfg()
{
    FtlConfig cfg;
    cfg.moveToLsbAlternative = true;
    return cfg;
}

struct Rig : FtlFixture
{
    Rig() : FtlFixture(altCfg()) {}

    /** Write LPNs 0..n-1 through the timed path. */
    void
    fill(flash::Lpn n)
    {
        for (flash::Lpn l = 0; l < n; ++l)
            ftl.hostWrite(l, 0, nullptr);
        events.run();
    }
};

TEST(MigrationBuffer, FastWantingPagesWinLsbSlots)
{
    Rig r;
    r.fill(48); // fills one block per plane (12 pages each)

    // Queue plane-0 pages: its LPNs are 0,4,8,...,44 at in-block pages
    // 0..11. Tag the CSB/MSB pages (levels 1,2) as fast-wanting.
    const std::uint64_t plane = 0;
    int queued = 0;
    for (std::uint32_t page = 0; page < 12; ++page) {
        const flash::Lpn lpn = 4ull * page;
        const flash::Ppn src = r.ftl.mapping().lookup(lpn);
        ASSERT_EQ(r.geom.planeOfBlock(r.geom.blockOf(src)), plane);
        const bool wantFast = r.geom.levelOfPage(page) > 0;
        ASSERT_TRUE(r.ftl.queueMigration(src, wantFast, nullptr));
        ++queued;
    }
    r.ftl.flushMigrations(plane);
    r.events.run();

    // 12 pages migrated into the internal block: 4 LSB slots, all taken
    // by fast-wanting pages; the other 4 fast-wanting pages displaced.
    const auto &st = r.ftl.stats().refresh;
    EXPECT_EQ(st.fastSlotHits, 4u);
    EXPECT_EQ(st.displacedFastPages, 4u);

    // Every page still mapped and exactly one block's worth moved.
    for (std::uint32_t page = 0; page < 12; ++page)
        EXPECT_TRUE(r.ftl.mapping().isMapped(4ull * page));
}

TEST(MigrationBuffer, FastSlotHitsReadAtLsbLatency)
{
    Rig r;
    r.fill(48);
    // Migrate one fast-wanting page onto a fresh internal block: the
    // first slot is an LSB slot, so it must read in one sensing.
    const flash::Lpn lpn = 4ull * 2; // plane-0 MSB page (level 2)
    const flash::Ppn src = r.ftl.mapping().lookup(lpn);
    ASSERT_TRUE(r.ftl.queueMigration(src, true, nullptr));
    r.ftl.flushMigrations(0);
    r.events.run();
    const flash::Ppn dst = r.ftl.mapping().lookup(lpn);
    EXPECT_EQ(r.geom.levelOfPage(static_cast<std::uint32_t>(
                  dst % r.geom.pagesPerBlock)),
              0u);
    const auto &blk = r.chips.block(r.geom.blockOf(dst));
    EXPECT_EQ(blk.readSensings(static_cast<std::uint32_t>(
                  dst % r.geom.pagesPerBlock),
                               r.chips.coding()),
              1);
}

TEST(MigrationBuffer, StaleEntriesCompleteWithoutProgramming)
{
    Rig r;
    r.fill(48);
    const flash::Lpn lpn = 4; // plane 0
    const flash::Ppn src = r.ftl.mapping().lookup(lpn);
    bool done = false;
    ASSERT_TRUE(r.ftl.queueMigration(src, true,
                                     [&](sim::Time) { done = true; }));
    // The host updates the LPN before the flush: the buffered entry is
    // now stale.
    r.ftl.hostWrite(lpn, 0, nullptr);
    const auto programsBefore = r.chips.stats().programs;
    r.ftl.flushMigrations(0);
    r.events.run();
    EXPECT_TRUE(done); // completion still fired
    // Only the host write programmed a page; the stale entry did not.
    EXPECT_EQ(r.chips.stats().programs, programsBefore + 0u);
}

TEST(MigrationBuffer, QueueRejectsAlreadyInvalidSource)
{
    Rig r;
    r.fill(48);
    const flash::Lpn lpn = 8;
    const flash::Ppn src = r.ftl.mapping().lookup(lpn);
    r.ftl.hostWrite(lpn, 0, nullptr); // invalidates src immediately
    EXPECT_FALSE(r.ftl.queueMigration(src, true, nullptr));
}

} // namespace
} // namespace ida::ftl
