/**
 * @file
 * Tests for the controller DRAM write buffer.
 */
#include <gtest/gtest.h>

#include "ftl_fixture.hh"
#include "ftl/write_buffer.hh"

namespace ida::ftl {
namespace {

using testing::FtlFixture;

// ---- Unit: the buffer bookkeeping itself. --------------------------------

TEST(WriteBufferUnit, DisabledByDefault)
{
    WriteBuffer b{WriteBufferConfig{}};
    EXPECT_FALSE(b.enabled());
    EXPECT_FALSE(b.insert(1));
    EXPECT_FALSE(b.needsFlush());
}

TEST(WriteBufferUnit, InsertCoalesceAndFifoOrder)
{
    WriteBufferConfig cfg;
    cfg.capacityPages = 4;
    WriteBuffer b(cfg);
    EXPECT_TRUE(b.insert(10));
    EXPECT_TRUE(b.insert(20));
    EXPECT_TRUE(b.insert(10)); // coalesces
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.stats().coalescedWrites, 1u);
    flash::Lpn l;
    ASSERT_TRUE(b.popFlushCandidate(l));
    EXPECT_EQ(l, 10u);
    ASSERT_TRUE(b.popFlushCandidate(l));
    EXPECT_EQ(l, 20u);
    EXPECT_FALSE(b.popFlushCandidate(l));
    EXPECT_EQ(b.stats().flushes, 2u);
}

TEST(WriteBufferUnit, FullBufferBypasses)
{
    WriteBufferConfig cfg;
    cfg.capacityPages = 2;
    WriteBuffer b(cfg);
    EXPECT_TRUE(b.insert(1));
    EXPECT_TRUE(b.insert(2));
    EXPECT_FALSE(b.insert(3));
    EXPECT_EQ(b.stats().bypasses, 1u);
    EXPECT_TRUE(b.insert(1)); // coalescing still allowed when full
}

TEST(WriteBufferUnit, MaskedInsertsCoalesceByOr)
{
    WriteBufferConfig cfg;
    cfg.capacityPages = 4;
    WriteBuffer b(cfg);
    EXPECT_TRUE(b.insert(1, 0x000F));
    EXPECT_TRUE(b.insert(1, 0x00F0));
    EXPECT_EQ(b.dirtyMask(1), 0x00FFu);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b.stats().coalescedWrites, 1u);
    // The mask-less legacy entry point means "whole page".
    EXPECT_TRUE(b.insert(2));
    EXPECT_EQ(b.dirtyMask(2), kWholePageMask);

    flash::Lpn l;
    flash::SectorMask m = 0;
    ASSERT_TRUE(b.popFlushCandidate(l, m));
    EXPECT_EQ(l, 1u);
    EXPECT_EQ(m, 0x00FFu);
}

TEST(WriteBufferUnit, PartialTrimShrinksWithoutCountingTrimmed)
{
    WriteBufferConfig cfg;
    cfg.capacityPages = 4;
    WriteBuffer b(cfg);
    EXPECT_TRUE(b.insert(1, 0x00FF));

    // A sub-page TRIM shrinks the mask in place: the entry stays (the
    // conservation equation size == buffered - flushes - trimmed must
    // keep balancing), counted separately as a partial trim.
    EXPECT_FALSE(b.remove(1, 0x000F));
    EXPECT_EQ(b.dirtyMask(1), 0x00F0u);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b.stats().trimmed, 0u);
    EXPECT_EQ(b.stats().partialTrims, 1u);

    // Clearing the rest fully drops the entry.
    EXPECT_TRUE(b.remove(1, 0x00F0));
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.stats().trimmed, 1u);
    EXPECT_FALSE(b.remove(1, 0x000F)); // absent: no-op
    EXPECT_EQ(b.stats().trimmed, 1u);
}

TEST(WriteBufferUnit, WatermarkTriggersFlush)
{
    WriteBufferConfig cfg;
    cfg.capacityPages = 10;
    cfg.flushWatermark = 0.5;
    WriteBuffer b(cfg);
    for (flash::Lpn l = 0; l < 5; ++l)
        b.insert(l);
    EXPECT_FALSE(b.needsFlush()); // exactly at the watermark
    b.insert(5);
    EXPECT_TRUE(b.needsFlush());
}

// ---- Integration: buffer wired into the FTL. -----------------------------

FtlConfig
bufferedCfg()
{
    FtlConfig cfg;
    cfg.writeBuffer.capacityPages = 16;
    cfg.writeBuffer.flushWatermark = 0.5;
    return cfg;
}

TEST(WriteBufferFtl, WritesCompleteAtDramLatency)
{
    FtlFixture f(bufferedCfg());
    sim::Time done{-1};
    f.ftl.hostWrite(3, 0, [&](sim::Time t) { done = t; });
    f.events.run();
    EXPECT_EQ(done, 5 * sim::kUsec);
    // Not yet on flash: the LPN is dirty in DRAM.
    EXPECT_FALSE(f.ftl.mapping().isMapped(3));
    EXPECT_EQ(f.ftl.writeBufferStats().bufferedWrites, 1u);
}

TEST(WriteBufferFtl, BufferedReadHitsDram)
{
    FtlFixture f(bufferedCfg());
    f.ftl.hostWrite(3, 0, nullptr);
    sim::Time done{-1};
    f.ftl.hostRead(3, 0, [&](sim::Time t, std::uint64_t) { done = t; });
    f.events.run();
    EXPECT_EQ(done, 5 * sim::kUsec);
    EXPECT_EQ(f.ftl.writeBufferStats().readHits, 1u);
}

TEST(WriteBufferFtl, WatermarkDestagesToFlash)
{
    FtlFixture f(bufferedCfg());
    for (flash::Lpn l = 0; l < 12; ++l)
        f.ftl.hostWrite(l, 0, nullptr);
    f.events.run();
    EXPECT_TRUE(f.ftl.quiescent());
    const auto &st = f.ftl.writeBufferStats();
    EXPECT_GT(st.flushes, 0u);
    // Destaged down to (at most) the watermark.
    EXPECT_LE(12 - st.flushes, 8u);
    // Flushed pages are on flash and mapped.
    std::uint64_t mapped = 0;
    for (flash::Lpn l = 0; l < 12; ++l)
        mapped += f.ftl.mapping().isMapped(l);
    EXPECT_EQ(mapped, st.flushes);
}

TEST(WriteBufferFtl, RewritingBufferedPageDoesNotDuplicate)
{
    FtlFixture f(bufferedCfg());
    for (int i = 0; i < 6; ++i)
        f.ftl.hostWrite(7, 0, nullptr);
    f.events.run();
    EXPECT_EQ(f.ftl.writeBufferStats().bufferedWrites, 1u);
    EXPECT_EQ(f.ftl.writeBufferStats().coalescedWrites, 5u);
    EXPECT_EQ(f.chips.stats().programs, 0u);
}

TEST(WriteBufferFtl, DisabledBufferWritesThrough)
{
    FtlFixture f; // default config: no buffer
    sim::Time done{-1};
    f.ftl.hostWrite(3, 0, [&](sim::Time t) { done = t; });
    f.events.run();
    EXPECT_GT(done, sim::kMsec); // a real program happened
    EXPECT_TRUE(f.ftl.mapping().isMapped(3));
    EXPECT_EQ(f.ftl.writeBufferStats().bufferedWrites, 0u);
}

} // namespace
} // namespace ida::ftl
