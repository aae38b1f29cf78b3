/**
 * @file
 * Tests for garbage collection: triggering, migration correctness, and
 * free-pool recovery.
 */
#include <gtest/gtest.h>

#include "ftl_fixture.hh"

namespace ida::ftl {
namespace {

using testing::FtlFixture;

/**
 * Drive the device until GC has reclaimed space: keep rewriting a small
 * hot set so blocks fill with invalid pages.
 */
TEST(Gc, ReclaimsSpaceUnderChurn)
{
    FtlConfig cfg;
    cfg.gcFreeThreshold = 4;
    FtlFixture f(cfg);
    // 4 planes x 16 blocks x 12 pages = 768 physical pages; hammer 40
    // logical pages with updates.
    for (int round = 0; round < 120; ++round) {
        for (flash::Lpn l = 0; l < 40; ++l)
            f.ftl.hostWrite(l, 0, nullptr);
        f.events.run();
    }
    EXPECT_GT(f.ftl.stats().gc.invocations, 0u);
    EXPECT_GT(f.ftl.stats().gc.erases, 0u);
    // All planes recovered above a sane floor.
    EXPECT_GE(f.ftl.blocks().minFreeCount(), 2u);
    // Every logical page still mapped and valid.
    for (flash::Lpn l = 0; l < 40; ++l) {
        const flash::Ppn p = f.ftl.mapping().lookup(l);
        ASSERT_NE(p, flash::kInvalidPpn);
        EXPECT_TRUE(f.chips.block(f.geom.blockOf(p))
                        .isValid(static_cast<std::uint32_t>(
                            p % f.geom.pagesPerBlock)));
    }
}

TEST(Gc, MigratedPagesKeepTheirData)
{
    FtlConfig cfg;
    cfg.gcFreeThreshold = 6;
    FtlFixture f(cfg);
    // One cold page that must survive GC churn around it.
    f.writeNow(99);
    for (int round = 0; round < 150; ++round) {
        for (flash::Lpn l = 0; l < 30; ++l)
            f.ftl.hostWrite(l, 0, nullptr);
        f.events.run();
    }
    ASSERT_GT(f.ftl.stats().gc.invocations, 0u);
    EXPECT_TRUE(f.ftl.mapping().isMapped(99));
    const flash::Ppn p = f.ftl.mapping().lookup(99);
    EXPECT_EQ(f.ftl.mapping().reverse(p), 99u);
}

TEST(Gc, ErasesIncrementEraseCounters)
{
    FtlConfig cfg;
    cfg.gcFreeThreshold = 5;
    FtlFixture f(cfg);
    for (int round = 0; round < 150; ++round) {
        for (flash::Lpn l = 0; l < 30; ++l)
            f.ftl.hostWrite(l, 0, nullptr);
        f.events.run();
    }
    std::uint64_t erases = 0;
    for (std::uint64_t b = 0; b < f.geom.blocks(); ++b)
        erases += f.chips.block(b).eraseCount();
    EXPECT_EQ(erases, f.ftl.stats().gc.erases);
    EXPECT_EQ(erases, f.chips.stats().erases);
}

TEST(Gc, NoGcBelowThreshold)
{
    FtlConfig cfg;
    cfg.gcFreeThreshold = 1;
    FtlFixture f(cfg);
    // Light traffic never drops a 16-block pool to 1.
    for (flash::Lpn l = 0; l < 20; ++l)
        f.ftl.hostWrite(l, 0, nullptr);
    f.events.run();
    EXPECT_EQ(f.ftl.stats().gc.invocations, 0u);
}

} // namespace
} // namespace ida::ftl
