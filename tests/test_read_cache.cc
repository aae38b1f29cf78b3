/**
 * @file
 * Controller DRAM read cache: LRU/merge bookkeeping in isolation, then
 * hit/miss/merge classification and write/TRIM coherence wired through
 * the FTL (docs/CACHING.md describes the invariants under test).
 */
#include <gtest/gtest.h>

#include "cache/read_cache.hh"
#include "ftl_fixture.hh"

namespace ida::cache {
namespace {

using ftl::testing::FtlFixture;

// ---- Unit: the cache bookkeeping itself. ----------------------------------

TEST(ReadCacheUnit, DisabledByDefault)
{
    ReadCache c{ReadCacheConfig{}};
    EXPECT_FALSE(c.enabled());
    c.insert(1, 0xF);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.lookup(1), 0u);
}

TEST(ReadCacheUnit, LruEvictsColdestAndLookupPromotes)
{
    ReadCacheConfig cfg;
    cfg.capacityPages = 2;
    ReadCache c(cfg);
    c.insert(1, 0x1);
    c.insert(2, 0x2);
    EXPECT_EQ(c.lookup(1), 0x1u); // 1 is now the most recently used
    c.insert(3, 0x4);             // evicts 2, the coldest
    EXPECT_EQ(c.peek(2), 0u);
    EXPECT_EQ(c.peek(1), 0x1u);
    EXPECT_EQ(c.peek(3), 0x4u);
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.size(), 2u);
}

TEST(ReadCacheUnit, PeekDoesNotPromote)
{
    ReadCacheConfig cfg;
    cfg.capacityPages = 2;
    ReadCache c(cfg);
    c.insert(1, 0x1);
    c.insert(2, 0x2);
    EXPECT_EQ(c.peek(1), 0x1u); // no promotion: 1 stays coldest
    c.insert(3, 0x4);
    EXPECT_EQ(c.peek(1), 0u);
    EXPECT_EQ(c.peek(2), 0x2u);
}

TEST(ReadCacheUnit, InsertOrsIntoExistingLine)
{
    ReadCacheConfig cfg;
    cfg.capacityPages = 4;
    ReadCache c(cfg);
    c.insert(7, 0x000F);
    c.insert(7, 0x00F0); // hole merge: same line grows
    EXPECT_EQ(c.peek(7), 0x00FFu);
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.stats().fills, 1u);
    c.insert(7, 0);      // empty masks are ignored
    EXPECT_EQ(c.peek(7), 0x00FFu);
}

TEST(ReadCacheUnit, InvalidateShrinksThenRemoves)
{
    ReadCacheConfig cfg;
    cfg.capacityPages = 4;
    ReadCache c(cfg);
    c.insert(7, 0x00FF);
    c.invalidate(7, 0x000F);
    EXPECT_EQ(c.peek(7), 0x00F0u);
    EXPECT_EQ(c.stats().invalidations, 1u);
    c.invalidate(7, 0x00F0);
    EXPECT_EQ(c.peek(7), 0u);
    EXPECT_EQ(c.size(), 0u);
    c.invalidate(9, 0xF); // absent line: no-op, not an invalidation
    EXPECT_EQ(c.stats().invalidations, 2u);
}

// ---- Integration: cache wired into the FTL read path. ---------------------

ftl::FtlConfig
cachedCfg(std::uint32_t pages = 4)
{
    ftl::FtlConfig cfg;
    cfg.readCache.capacityPages = pages;
    return cfg;
}

TEST(ReadCacheFtl, MissFillsThenHitServesAtDramLatency)
{
    FtlFixture f(cachedCfg());
    f.writeNow(3);

    sim::Time first{-1};
    f.ftl.hostRead(3, 0, [&](sim::Time t, std::uint64_t) { first = t; });
    f.events.run();
    EXPECT_EQ(f.ftl.readCacheStats().misses, 1u);
    EXPECT_EQ(f.ftl.readCacheStats().fills, 1u);
    EXPECT_GT(first, 10 * sim::kUsec); // a real flash sensing

    const sim::Time t0 = f.events.now();
    sim::Time second{-1};
    f.ftl.hostRead(3, 0, [&](sim::Time t, std::uint64_t) { second = t; });
    f.events.run();
    EXPECT_EQ(second, t0 + ftl::kDramLatency);
    EXPECT_EQ(f.ftl.readCacheStats().hits, 1u);
}

TEST(ReadCacheFtl, PartialLineMergesHolesFromFlash)
{
    FtlFixture f(cachedCfg());
    f.writeNow(3);

    // First read caches only the low quarter...
    f.ftl.hostRead(3, 0x000F, [](sim::Time, std::uint64_t) {});
    f.events.run();
    EXPECT_EQ(f.ftl.readCache().peek(3), 0x000Fu);

    // ...the wider re-read fetches only the missing sectors (a merged
    // fill) and grows the line; a third read is then a pure hit.
    f.ftl.hostRead(3, 0x00FF, [](sim::Time, std::uint64_t) {});
    f.events.run();
    EXPECT_EQ(f.ftl.readCacheStats().mergedFills, 1u);
    EXPECT_EQ(f.ftl.stats().sector.mergedReads, 1u);
    EXPECT_EQ(f.ftl.readCache().peek(3), 0x00FFu);

    f.ftl.hostRead(3, 0x00FF, [](sim::Time, std::uint64_t) {});
    f.events.run();
    EXPECT_EQ(f.ftl.readCacheStats().hits, 1u);
}

TEST(ReadCacheFtl, WriteAndTrimInvalidateCachedSectors)
{
    FtlFixture f(cachedCfg());
    const flash::SectorMask full = f.geom.fullSectorMask();
    f.writeNow(3);
    f.ftl.hostRead(3, 0, [](sim::Time, std::uint64_t) {});
    f.events.run();
    ASSERT_EQ(f.ftl.readCache().peek(3), full);

    // A sub-page overwrite supersedes the cached copy of its sectors
    // the moment it is accepted.
    f.ftl.hostWrite(3, 0x000F, nullptr);
    EXPECT_EQ(f.ftl.readCache().peek(3), full & ~0x000Fu);
    EXPECT_EQ(f.ftl.readCacheStats().invalidations, 1u);
    f.events.run();

    // TRIM drops the rest of the line.
    f.ftl.hostTrim(3, full & ~0x000Fu);
    EXPECT_EQ(f.ftl.readCache().peek(3), 0u);
}

TEST(ReadCacheFtl, BufferedReadsDoNotFillTheCache)
{
    ftl::FtlConfig cfg = cachedCfg();
    cfg.writeBuffer.capacityPages = 16;
    FtlFixture f(cfg);

    // The write sits dirty in the buffer; a read of it is a buffer hit,
    // not a cache fill (the cache only holds flash-backed sectors).
    f.ftl.hostWrite(3, 0, nullptr);
    f.ftl.hostRead(3, 0, [](sim::Time, std::uint64_t) {});
    f.events.run();
    EXPECT_EQ(f.ftl.writeBufferStats().readHits, 1u);
    EXPECT_EQ(f.ftl.readCacheStats().fills, 0u);
    EXPECT_EQ(f.ftl.readCacheStats().hits, 0u);
}

TEST(ReadCacheFtl, CoherenceHoldsUnderBufferedChurn)
{
    // Randomized interleaving of sub-page reads, writes, TRIMs, cache
    // evictions (capacity 2) and write-buffer destages — including
    // evictions racing a flush. After every burst the audited
    // invariant must hold: cached ⊆ flashValid ∪ wbufDirty.
    ftl::FtlConfig cfg = cachedCfg(2);
    cfg.writeBuffer.capacityPages = 8;
    cfg.writeBuffer.flushWatermark = 0.5;
    FtlFixture f(cfg);
    for (flash::Lpn l = 0; l < 10; ++l)
        f.ftl.preloadWrite(l);
    f.ftl.finalizePreload();

    sim::Rng rng(7);
    auto checkCoherence = [&] {
        f.ftl.readCache().forEachLine(
            [&](flash::Lpn l, flash::SectorMask cached) {
                flash::SectorMask backed = f.ftl.writeBuffer().dirtyMask(l);
                const flash::Ppn p = f.ftl.mapping().lookup(l);
                if (p != flash::kInvalidPpn) {
                    backed |= f.chips.block(f.geom.blockOf(p))
                                  .sectorMask(static_cast<std::uint32_t>(
                                      p % f.geom.pagesPerBlock));
                }
                EXPECT_EQ(cached & ~backed, 0u)
                    << "lpn " << l << " cached 0x" << std::hex << cached
                    << " backed 0x" << backed;
            });
    };

    for (int i = 0; i < 600; ++i) {
        const auto lpn =
            static_cast<flash::Lpn>(rng.uniformInt(0, 9));
        const std::uint32_t lo = static_cast<std::uint32_t>(
            rng.uniformInt(0, 15));
        const std::uint32_t n = static_cast<std::uint32_t>(
            1 + rng.uniformInt(0, 15 - lo));
        const auto mask =
            static_cast<flash::SectorMask>(flash::lowSectorMask(n) << lo);
        const double k = rng.uniform01();
        if (k < 0.55)
            f.ftl.hostRead(lpn, mask, [](sim::Time, std::uint64_t) {});
        else if (k < 0.90)
            f.ftl.hostWrite(lpn, mask, nullptr);
        else
            f.ftl.hostTrim(lpn, mask);
        if (i % 5 == 4) {
            f.events.run();
            checkCoherence();
        }
    }
    f.events.run();
    checkCoherence();
    EXPECT_TRUE(f.ftl.quiescent());

    const auto &cs = f.ftl.readCacheStats();
    EXPECT_GT(cs.evictions, 0u);
    EXPECT_GT(cs.invalidations, 0u);
    EXPECT_GT(f.ftl.writeBufferStats().flushes, 0u);
    EXPECT_LE(f.ftl.readCache().size(), 2u);
}

} // namespace
} // namespace ida::cache
