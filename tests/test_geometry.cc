/**
 * @file
 * Unit tests for geometry arithmetic and PPN encode/decode round trips.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "flash/geometry.hh"
#include "sim/rng.hh"

namespace ida::flash {
namespace {

Geometry
paperShape()
{
    Geometry g;
    g.channels = 4;
    g.chipsPerChannel = 4;
    g.diesPerChip = 2;
    g.planesPerDie = 2;
    g.blocksPerPlane = 128;
    g.pagesPerBlock = 192;
    g.pageSizeBytes = 8192;
    g.bitsPerCell = 3;
    return g;
}

TEST(Geometry, Totals)
{
    const Geometry g = paperShape();
    EXPECT_EQ(g.chips(), 16u);
    EXPECT_EQ(g.dies(), 32u);
    EXPECT_EQ(g.planes(), 64u);
    EXPECT_EQ(g.blocks(), 64u * 128u);
    EXPECT_EQ(g.pages(), 64ull * 128 * 192);
    EXPECT_EQ(g.wordlinesPerBlock(), 64u);
}

TEST(Geometry, PaperScaleCapacityIs512GBWith5472Blocks)
{
    Geometry g = paperShape();
    g.blocksPerPlane = 5472; // the unscaled Table II value
    EXPECT_EQ(g.capacityBytes(), 64ull * 5472 * 192 * 8192);
    EXPECT_NEAR(static_cast<double>(g.capacityBytes()) / (1ull << 30),
                512.0, 14.0); // ~513 GiB raw
}

TEST(Geometry, EncodeDecodeRoundTrip)
{
    const Geometry g = paperShape();
    for (Ppn p : {Ppn{0}, Ppn{1}, Ppn{191}, Ppn{192}, Ppn{999'999},
                  g.pages() - 1}) {
        EXPECT_EQ(g.encode(g.decode(p)), p);
    }
}

TEST(Geometry, DecodeFieldsInRange)
{
    const Geometry g = paperShape();
    const PageAddr a = g.decode(g.pages() - 1);
    EXPECT_EQ(a.channel, g.channels - 1);
    EXPECT_EQ(a.chip, g.chipsPerChannel - 1);
    EXPECT_EQ(a.die, g.diesPerChip - 1);
    EXPECT_EQ(a.plane, g.planesPerDie - 1);
    EXPECT_EQ(a.block, g.blocksPerPlane - 1);
    EXPECT_EQ(a.page, g.pagesPerBlock - 1);
}

TEST(Geometry, WordlineLevelMapping)
{
    const Geometry g = paperShape();
    EXPECT_EQ(g.levelOfPage(0), 0u); // LSB
    EXPECT_EQ(g.levelOfPage(1), 1u); // CSB
    EXPECT_EQ(g.levelOfPage(2), 2u); // MSB
    EXPECT_EQ(g.levelOfPage(3), 0u);
    EXPECT_EQ(g.wordlineOfPage(5), 1u);
    EXPECT_EQ(g.pageOfWordline(1, 2), 5u);
    for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p)
        EXPECT_EQ(g.pageOfWordline(g.wordlineOfPage(p), g.levelOfPage(p)),
                  p);
}

TEST(Geometry, BlockAndDieHelpers)
{
    const Geometry g = paperShape();
    const Ppn p = 5 * g.pagesPerBlock + 17;
    EXPECT_EQ(g.blockOf(p), 5u);
    EXPECT_EQ(g.firstPpnOf(5), Ppn{5} * g.pagesPerBlock);

    // Block ids are plane-major: block b sits on plane b/blocksPerPlane.
    const BlockId b = 3 * g.blocksPerPlane + 7; // plane 3
    EXPECT_EQ(g.planeOfBlock(b), 3u);
    EXPECT_EQ(g.dieOfBlock(b), 1u); // 2 planes per die

    const PageAddr a = g.decode(g.firstPpnOf(b));
    EXPECT_EQ(g.dieOf(a), g.dieOfBlock(b));
}

TEST(Geometry, ChannelOfDie)
{
    const Geometry g = paperShape();
    // 8 dies per channel (4 chips x 2 dies).
    EXPECT_EQ(g.channelOfDie(0), 0u);
    EXPECT_EQ(g.channelOfDie(7), 0u);
    EXPECT_EQ(g.channelOfDie(8), 1u);
    EXPECT_EQ(g.channelOfDie(g.dies() - 1), g.channels - 1);
}

TEST(GeometryDeath, ValidateRejectsBadBitDensity)
{
    Geometry g = paperShape();
    g.pagesPerBlock = 193; // not divisible by 3
    EXPECT_EXIT(g.validate(), ::testing::ExitedWithCode(1), "divide");
}

TEST(GeometryDeath, ValidateRejectsSeventeenSectorsPerPage)
{
    // Sector masks are 16 bits; the message names both knobs.
    Geometry g = paperShape();
    g.pageSizeBytes = 17 * g.sectorSizeBytes;
    EXPECT_EXIT(g.validate(), ::testing::ExitedWithCode(1),
                "pageSizeBytes / sectorSizeBytes = 8704 / 512 = 17 "
                "sectors per page exceeds 16");
    g.pageSizeBytes = 16 * g.sectorSizeBytes;
    g.validate();
}

TEST(Geometry, ValidateAcceptsExactlyTheMappingLimit)
{
    // 2^32 - 2 = 2 x (2^31 - 1): the largest page count 32-bit mapping
    // entries can address. validate() only does arithmetic.
    Geometry g;
    g.channels = g.chipsPerChannel = g.diesPerChip = g.planesPerDie = 1;
    g.blocksPerPlane = 0x7FFF'FFFFu;
    g.pagesPerBlock = 2;
    g.bitsPerCell = 2;
    g.validate();
    EXPECT_EQ(g.pages(), kMaxPages);
}

TEST(GeometryDeath, ValidateRejectsOnePageAboveTheMappingLimit)
{
    // 2^32 - 1 = 3 x 1431655765 pages would alias the unmapped sentinel.
    Geometry g;
    g.channels = g.chipsPerChannel = g.diesPerChip = g.planesPerDie = 1;
    g.blocksPerPlane = 1431655765u;
    g.pagesPerBlock = 3;
    g.bitsPerCell = 3;
    EXPECT_EXIT(g.validate(), ::testing::ExitedWithCode(1),
                "1 x 1 x 1 x 1 x 1431655765 x 3 exceeds 4294967294 pages");
}

TEST(GeometryDeath, ValidateRejectsAFourBillionPageDevice)
{
    // The paper's shape with 349526 blocks per plane: 64 planes x 349526
    // x 192 = 4294975488 pages, just above 2^32.
    Geometry g = paperShape();
    g.blocksPerPlane = 349526;
    EXPECT_EXIT(g.validate(), ::testing::ExitedWithCode(1),
                "4 x 4 x 2 x 2 x 349526 x 192 exceeds .*32 bits");
}

TEST(GeometryDeath, ValidateRejectsAPageCountThatOverflowsSixtyFourBits)
{
    Geometry g;
    g.channels = g.chipsPerChannel = g.diesPerChip = g.planesPerDie =
        g.blocksPerPlane = g.pagesPerBlock = 0xFFFF'FFFFu;
    g.bitsPerCell = 1;
    EXPECT_EXIT(g.validate(), ::testing::ExitedWithCode(1),
                "exceeds 4294967294 pages");
}

TEST(Divider32, MatchesDivisionAcrossThe32BitRange)
{
    sim::Rng rng(32);
    for (const std::uint32_t d :
         {1u, 2u, 3u, 7u, 12u, 192u, 1000003u, 0x7FFF'FFFFu, 0x8000'0000u,
          0xFFFF'FFFEu, 0xFFFF'FFFFu}) {
        const Divider32 div(d);
        std::vector<std::uint32_t> ns = {0u, 1u, d - 1, d, d + 1,
                                         0xFFFF'FFFEu, 0xFFFF'FFFFu};
        for (int i = 0; i < 2000; ++i)
            ns.push_back(static_cast<std::uint32_t>(
                rng.uniformInt(0, 0xFFFF'FFFFu)));
        for (const std::uint32_t n : ns)
            ASSERT_EQ(div(n), n / d) << n << " / " << d;
    }
}

/**
 * PpnDecoder's one pass equals Geometry's divisions for seeded PPNs,
 * including shapes whose divisors are 1 (one bit per cell, one page per
 * block, one block per die) and shapes whose PPNs fill 32 bits.
 */
TEST(PpnDecoder, MatchesGeometryArithmetic)
{
    std::vector<Geometry> shapes;
    shapes.push_back(paperShape());
    Geometry one;
    one.channels = one.chipsPerChannel = one.diesPerChip = 1;
    one.planesPerDie = one.blocksPerPlane = 1;
    one.pagesPerBlock = 1;
    one.bitsPerCell = 1;
    shapes.push_back(one);
    Geometry slc = paperShape();
    slc.bitsPerCell = 1;
    slc.pagesPerBlock = 1;
    shapes.push_back(slc);
    Geometry odd;
    odd.channels = 3;
    odd.chipsPerChannel = 5;
    odd.diesPerChip = 7;
    odd.planesPerDie = 3;
    odd.blocksPerPlane = 61001;
    odd.pagesPerBlock = 222;
    odd.bitsPerCell = 6;
    shapes.push_back(odd); // 4,265,689,930 pages
    Geometry limit;
    limit.channels = limit.chipsPerChannel = limit.diesPerChip = 1;
    limit.planesPerDie = 1;
    limit.blocksPerPlane = 0x7FFF'FFFFu;
    limit.pagesPerBlock = 2;
    limit.bitsPerCell = 2;
    shapes.push_back(limit); // exactly kMaxPages

    sim::Rng rng(7);
    for (const Geometry &g : shapes) {
        g.validate();
        SCOPED_TRACE(::testing::Message() << g.pages() << " pages");
        const PpnDecoder decode(g);
        std::vector<Ppn> ppns = {0, g.pages() - 1, g.pagesPerBlock - 1,
                                 g.pages() / 2};
        for (int i = 0; i < 5000; ++i)
            ppns.push_back(rng.uniformInt(0, g.pages() - 1));
        for (const Ppn p : ppns) {
            const PageLocation at = decode(p);
            const PageAddr a = g.decode(p);
            ASSERT_EQ(at.ppn, p);
            ASSERT_EQ(at.block, g.blockOf(p)) << p;
            ASSERT_EQ(at.page, a.page) << p;
            ASSERT_EQ(at.wordline, g.wordlineOfPage(a.page)) << p;
            ASSERT_EQ(at.level, g.levelOfPage(a.page)) << p;
            ASSERT_EQ(at.die, g.dieOfBlock(at.block)) << p;
            ASSERT_EQ(at.die, g.dieOf(a)) << p;
            ASSERT_EQ(g.channelOfDie(at.die), a.channel) << p;
        }
    }
}

} // namespace
} // namespace ida::flash
