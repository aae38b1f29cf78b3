/**
 * @file
 * Sector-granular validity: block-level mask bookkeeping, the FTL's
 * sub-page write/TRIM/read-modify-write paths, GC preservation of
 * partial masks, and the device-level sub-page request plumbing.
 */
#include <gtest/gtest.h>

#include "ftl_fixture.hh"
#include "one_block.hh"
#include "ssd/ssd.hh"

namespace ida::ftl {
namespace {

using testing::FtlFixture;

// ---- Unit: Block sector-mask bookkeeping. ---------------------------------

TEST(BlockSectors, ProgramCarriesMaskAndInvalidateSectorsKills)
{
    flash::testing::OneBlock t(12);
    const flash::Block b = t.view();
    const flash::SectorMask full = b.fullSectorMask();
    ASSERT_EQ(full, 0xFFFFu);

    const std::uint32_t p = t.table.programNext(0, sim::Time{}, 0x00F0);
    EXPECT_TRUE(b.isValid(p));
    EXPECT_EQ(b.sectorMask(p), 0x00F0u);

    // Clearing sectors that are already invalid is idempotent.
    EXPECT_FALSE(t.table.invalidateSectors(p, 0x000F));
    EXPECT_EQ(b.sectorMask(p), 0x00F0u);
    EXPECT_TRUE(b.isValid(p));

    // Partial clear keeps the page alive.
    EXPECT_FALSE(t.table.invalidateSectors(p, 0x0030));
    EXPECT_EQ(b.sectorMask(p), 0x00C0u);
    EXPECT_TRUE(b.isValid(p));
    EXPECT_EQ(b.validCount(), 1u);

    // Clearing the last live sectors kills the page, exactly like
    // invalidate(): state, valid count, and wordline cache all flip.
    EXPECT_TRUE(t.table.invalidateSectors(p, full));
    EXPECT_FALSE(b.isValid(p));
    EXPECT_EQ(b.pageState(p), flash::PageState::Invalid);
    EXPECT_EQ(b.sectorMask(p), 0u);
    EXPECT_EQ(b.validCount(), 0u);
    EXPECT_EQ(b.invalidLevelMask(p / 3), b.recomputeInvalidMask(p / 3));
}

TEST(BlockSectors, ZeroMaskProgramsWholePageAndEraseClears)
{
    flash::testing::OneBlock t(12);
    const flash::Block b = t.view();
    const std::uint32_t p = t.table.programNext(0, sim::Time{}, 0);
    EXPECT_EQ(b.sectorMask(p), b.fullSectorMask());
    t.table.invalidate(p);
    EXPECT_EQ(b.sectorMask(p), 0u);
    t.table.erase(0);
    for (std::uint32_t i = 0; i < b.numPages(); ++i) {
        EXPECT_EQ(b.sectorMask(i), 0u);
        EXPECT_EQ(b.pageState(i), flash::PageState::Free);
    }
}

// ---- FTL: sub-page writes, TRIMs, and the RMW merge. ----------------------

TEST(SectorMaskFtl, SubPageOverwriteMergesSurvivorsViaRmw)
{
    FtlFixture f;
    const flash::SectorMask full = f.geom.fullSectorMask();
    f.writeNow(5);
    const flash::Ppn before = f.ftl.mapping().lookup(5);

    // Overwriting only the low quarter must read the surviving sectors
    // and program the union: the new page is fully valid.
    f.ftl.hostWrite(5, 0x000F, nullptr);
    f.events.run();
    const flash::Ppn after = f.ftl.mapping().lookup(5);
    EXPECT_NE(after, before);
    EXPECT_EQ(f.blockOfLpn(5).sectorMask(
                  static_cast<std::uint32_t>(after % f.geom.pagesPerBlock)),
              full);
    EXPECT_EQ(f.ftl.stats().sector.subPageWrites, 1u);
    EXPECT_EQ(f.ftl.stats().sector.rmwReads, 1u);
    EXPECT_EQ(f.ftl.rmwInFlight(), 0u);
}

TEST(SectorMaskFtl, SubPageTrimShrinksThenKills)
{
    FtlFixture f;
    const flash::SectorMask full = f.geom.fullSectorMask();
    f.writeNow(5);
    const flash::Ppn ppn = f.ftl.mapping().lookup(5);
    const auto page =
        static_cast<std::uint32_t>(ppn % f.geom.pagesPerBlock);

    f.ftl.hostTrim(5, 0x0003);
    EXPECT_TRUE(f.ftl.mapping().isMapped(5));
    EXPECT_EQ(f.blockOfLpn(5).sectorMask(page), full & ~0x0003u);
    EXPECT_EQ(f.ftl.stats().sector.subPageTrims, 1u);
    EXPECT_EQ(f.ftl.stats().sector.partialInvalidations, 1u);
    EXPECT_EQ(f.ftl.countPartialValidPages(), 1u);

    // A TRIM covering every still-valid sector kills the page even
    // though it names only part of the page.
    const auto &blk = f.blockOfLpn(5);
    f.ftl.hostTrim(5, full & ~0x0003u);
    EXPECT_FALSE(f.ftl.mapping().isMapped(5));
    EXPECT_FALSE(blk.isValid(page));
    EXPECT_EQ(f.ftl.stats().sector.pagesDiedPartial, 1u);
    EXPECT_EQ(f.ftl.countPartialValidPages(), 0u);
}

TEST(SectorMaskFtl, PageModeDropsSubPageTrims)
{
    FtlConfig cfg;
    cfg.sectorMode = false;
    FtlFixture f(cfg);
    f.writeNow(5);

    // A page-granular FTL cannot record partial deallocation: the TRIM
    // is dropped before any state changes (the ablation's "lost
    // invalidity" channel), while whole-page TRIMs still work.
    f.ftl.hostTrim(5, 0x0003);
    EXPECT_TRUE(f.ftl.mapping().isMapped(5));
    EXPECT_EQ(f.ftl.stats().sector.trimsDroppedPageMode, 1u);
    EXPECT_EQ(f.ftl.stats().hostTrims, 0u);

    f.ftl.hostTrim(5, 0);
    EXPECT_FALSE(f.ftl.mapping().isMapped(5));
    EXPECT_EQ(f.ftl.stats().hostTrims, 1u);
}

TEST(SectorMaskFtl, RmwRetriesWhenTrimRacesTheMergeRead)
{
    FtlFixture f;
    f.writeNow(5);

    // Start the sub-page overwrite (RMW read in flight), then unmap the
    // LPN before the read completes: the merge must notice the moved
    // mapping and retry, still programming exactly once.
    f.ftl.hostWrite(5, 0x000F, nullptr);
    EXPECT_EQ(f.ftl.rmwInFlight(), 1u);
    f.ftl.hostTrim(5, 0);
    f.events.run();
    EXPECT_EQ(f.ftl.rmwInFlight(), 0u);
    EXPECT_EQ(f.ftl.stats().sector.rmwRetries, 1u);
    EXPECT_TRUE(f.ftl.mapping().isMapped(5));
    const flash::Ppn ppn = f.ftl.mapping().lookup(5);
    // After the trim nothing survives outside the write: the retried
    // program carries only the written quarter.
    EXPECT_EQ(f.blockOfLpn(5).sectorMask(
                  static_cast<std::uint32_t>(ppn % f.geom.pagesPerBlock)),
              0x000Fu);
}

TEST(SectorMaskFtl, GcMigrationPreservesPartialMasks)
{
    FtlFixture f;
    const flash::Lpn footprint = 200;
    f.preload(footprint);
    const flash::SectorMask expect =
        f.geom.fullSectorMask() & ~flash::SectorMask{0x00F0};
    f.ftl.hostTrim(7, 0x00F0);
    const flash::Ppn before = f.ftl.mapping().lookup(7);

    // Churn every other page until GC reclaims lpn 7's block; the
    // migrated copy must carry the partial mask, not a padded full one.
    sim::Rng rng(13);
    for (int pass = 0;
         pass < 5000 && f.ftl.mapping().lookup(7) == before; ++pass) {
        const auto lpn = static_cast<flash::Lpn>(
            rng.uniformInt(0, footprint - 1));
        if (lpn == 7)
            continue;
        f.ftl.hostWrite(lpn, 0, nullptr);
        f.events.run();
    }
    ASSERT_NE(f.ftl.mapping().lookup(7), before)
        << "GC never migrated the partially-valid page";
    ASSERT_GT(f.ftl.stats().gc.invocations, 0u);
    const flash::Ppn ppn = f.ftl.mapping().lookup(7);
    EXPECT_EQ(f.blockOfLpn(7).sectorMask(
                  static_cast<std::uint32_t>(ppn % f.geom.pagesPerBlock)),
              expect);
    EXPECT_EQ(f.ftl.countPartialValidPages(), 1u);
}

TEST(SectorMaskFtl, SubPageReadsZeroFillHoles)
{
    FtlFixture f;
    f.writeNow(5);
    f.ftl.hostTrim(5, 0x00FF);

    // Reading only trimmed sectors needs no flash at all; reading a
    // range that straddles the hole still senses once and zero-fills.
    sim::Time done{-1};
    f.ftl.hostRead(5, 0x000F, [&](sim::Time t, std::uint64_t) { done = t; });
    f.events.run();
    EXPECT_EQ(done, f.events.now());
    EXPECT_EQ(f.ftl.stats().sector.zeroFillReads, 1u);

    const std::uint64_t zf = f.ftl.stats().sector.zeroFillReads;
    f.ftl.hostRead(5, 0x0FF0, [](sim::Time, std::uint64_t) {});
    f.events.run();
    EXPECT_EQ(f.ftl.stats().sector.zeroFillReads, zf + 1);
}

// ---- Device: sub-page request validation and fan-out. ---------------------

TEST(SectorMaskSsd, SubPageWriteStraddlingPagesSplitsTheMask)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    ssd::Ssd dev(cfg);
    const std::uint32_t spp = cfg.geometry.sectorsPerPage();
    ASSERT_EQ(spp, 16u);

    // Sectors [8, 24) of a two-page request: upper half of page 0,
    // lower half of page 1.
    ssd::HostRequest r;
    r.arrival = sim::Time{};
    r.isRead = false;
    r.startPage = 0;
    r.pageCount = 2;
    r.startSector = 8;
    r.sectorCount = 16;
    dev.submit(r);
    dev.events().run();
    ASSERT_TRUE(dev.drained());

    const auto &ftl = dev.ftl();
    const auto &geom = dev.chips().geometry();
    for (flash::Lpn lpn : {0, 1}) {
        const flash::Ppn ppn = ftl.mapping().lookup(lpn);
        ASSERT_NE(ppn, flash::kInvalidPpn);
        const auto page =
            static_cast<std::uint32_t>(ppn % geom.pagesPerBlock);
        const flash::SectorMask m =
            dev.chips().block(geom.blockOf(ppn)).sectorMask(page);
        EXPECT_EQ(m, lpn == 0 ? 0xFF00u : 0x00FFu) << "lpn " << lpn;
    }
    EXPECT_EQ(ftl.stats().sector.subPageWrites, 2u);
}

TEST(SectorMaskSsd, TrimRequestsDispatchPerPageMasks)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    ssd::Ssd dev(cfg);
    dev.preloadSequential(64);

    ssd::HostRequest r;
    r.arrival = sim::Time{};
    r.isTrim = true;
    r.startPage = 10;
    r.pageCount = 2;
    r.startSector = 12;
    r.sectorCount = 8; // sectors [12, 20): tail of 10, head of 11
    bool completed = false;
    r.onComplete = [&](sim::Time) { completed = true; };
    dev.submit(r);
    dev.events().run();

    EXPECT_TRUE(completed);
    const auto &ftl = dev.ftl();
    EXPECT_EQ(ftl.stats().hostTrims, 2u);
    EXPECT_EQ(ftl.stats().sector.subPageTrims, 2u);
    EXPECT_TRUE(ftl.mapping().isMapped(10));
    EXPECT_TRUE(ftl.mapping().isMapped(11));
    EXPECT_EQ(ftl.countPartialValidPages(), 2u);
    EXPECT_EQ(dev.inflightRequests(), 0u);
}

TEST(SectorMaskSsdDeath, MisalignedSectorRangeIsFatal)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    ssd::Ssd dev(cfg);

    ssd::HostRequest r;
    r.isRead = true;
    r.startPage = 0;
    r.pageCount = 2;
    r.startSector = 0;
    r.sectorCount = 8; // never touches page 1
    EXPECT_EXIT(dev.submit(r), ::testing::ExitedWithCode(1),
                "sector range");
}

} // namespace
} // namespace ida::ftl
