/**
 * @file
 * Unit tests for the L2P/P2L mapping table.
 */
#include <gtest/gtest.h>

#include "ftl/mapping.hh"

namespace ida::ftl {
namespace {

TEST(Mapping, StartsUnmapped)
{
    MappingTable m(100, 200);
    EXPECT_EQ(m.logicalPages(), 100u);
    EXPECT_EQ(m.physicalPages(), 200u);
    EXPECT_EQ(m.mappedCount(), 0u);
    EXPECT_EQ(m.lookup(0), kInvalidPpn);
    EXPECT_EQ(m.reverse(0), kInvalidLpn);
    EXPECT_FALSE(m.isMapped(42));
}

TEST(Mapping, RemapFirstWrite)
{
    MappingTable m(10, 20);
    EXPECT_EQ(m.remap(3, 7), kInvalidPpn);
    EXPECT_EQ(m.lookup(3), 7u);
    EXPECT_EQ(m.reverse(7), 3u);
    EXPECT_EQ(m.mappedCount(), 1u);
    EXPECT_TRUE(m.isMapped(3));
}

TEST(Mapping, RemapUpdateReturnsOldAndClearsReverse)
{
    MappingTable m(10, 20);
    m.remap(3, 7);
    EXPECT_EQ(m.remap(3, 12), 7u);
    EXPECT_EQ(m.lookup(3), 12u);
    EXPECT_EQ(m.reverse(7), kInvalidLpn);
    EXPECT_EQ(m.reverse(12), 3u);
    EXPECT_EQ(m.mappedCount(), 1u);
}

TEST(Mapping, UnmapClearsBothDirections)
{
    MappingTable m(10, 20);
    m.remap(5, 9);
    EXPECT_EQ(m.unmap(5), 9u);
    EXPECT_EQ(m.lookup(5), kInvalidPpn);
    EXPECT_EQ(m.reverse(9), kInvalidLpn);
    EXPECT_EQ(m.mappedCount(), 0u);
    EXPECT_EQ(m.unmap(5), kInvalidPpn); // idempotent
}

TEST(Mapping, InverseStaysConsistentUnderChurn)
{
    MappingTable m(64, 256);
    // Write every LPN twice at shifting physical locations.
    for (Lpn l = 0; l < 64; ++l)
        m.remap(l, l);
    for (Lpn l = 0; l < 64; ++l)
        m.remap(l, 128 + l);
    for (Lpn l = 0; l < 64; ++l) {
        EXPECT_EQ(m.lookup(l), 128 + l);
        EXPECT_EQ(m.reverse(128 + l), l);
        EXPECT_EQ(m.reverse(l), kInvalidLpn);
    }
    EXPECT_EQ(m.mappedCount(), 64u);
}

TEST(Mapping, UnmappedEntriesReadAsSixtyFourBitSentinels)
{
    static_assert(kInvalidPpn == ~std::uint64_t{0});
    static_assert(kInvalidLpn == ~std::uint64_t{0});
    MappingTable m(16, 32);
    for (Lpn l = 0; l < 16; ++l)
        EXPECT_EQ(m.lookup(l), ~std::uint64_t{0});
    for (Ppn p = 0; p < 32; ++p)
        EXPECT_EQ(m.reverse(p), ~std::uint64_t{0});
    // An entry cleared by unmap/remap reads as the 64-bit sentinel too.
    m.remap(2, 5);
    m.remap(2, 6);
    EXPECT_EQ(m.reverse(5), ~std::uint64_t{0});
    EXPECT_EQ(m.unmap(2), 6u);
    EXPECT_EQ(m.lookup(2), ~std::uint64_t{0});
    EXPECT_EQ(m.reverse(6), ~std::uint64_t{0});
}

TEST(Mapping, FirstRemapAndUnmapOfUnmappedReturnInvalidPpn)
{
    MappingTable m(8, 16);
    EXPECT_EQ(m.unmap(4), kInvalidPpn);
    EXPECT_EQ(m.mappedCount(), 0u);
    EXPECT_EQ(m.remap(4, 0), kInvalidPpn);
    EXPECT_EQ(m.remap(5, 15), kInvalidPpn);
    EXPECT_EQ(m.mappedCount(), 2u);
    EXPECT_EQ(m.unmap(4), 0u);
    EXPECT_EQ(m.unmap(4), kInvalidPpn);
    EXPECT_EQ(m.mappedCount(), 1u);
}

TEST(Mapping, HighestPhysicalPageRoundTrips)
{
    const std::uint64_t logical = 3000;
    const std::uint64_t physical = (std::uint64_t{1} << 20) + 7;
    MappingTable m(logical, physical);
    const Ppn top = physical - 1;
    EXPECT_EQ(m.remap(logical - 1, top), kInvalidPpn);
    EXPECT_EQ(m.lookup(logical - 1), top);
    EXPECT_EQ(m.reverse(top), logical - 1);
    // Move it away and back: the inverse follows both times.
    EXPECT_EQ(m.remap(logical - 1, 0), top);
    EXPECT_EQ(m.reverse(top), kInvalidLpn);
    EXPECT_EQ(m.remap(logical - 1, top), 0u);
    EXPECT_EQ(m.reverse(0), kInvalidLpn);
    EXPECT_EQ(m.reverse(top), logical - 1);
    EXPECT_EQ(m.unmap(logical - 1), top);
    EXPECT_EQ(m.reverse(top), kInvalidLpn);
}

TEST(MappingDeath, RemapOntoOccupiedPhysicalPagePanics)
{
    MappingTable m(10, 20);
    m.remap(1, 4);
    EXPECT_DEATH(m.remap(2, 4), "already used");
}

TEST(MappingDeath, MoreThanThirtyTwoBitsOfPhysicalPagesIsFatal)
{
    // Rejected before either array is sized (~16 GiB here).
    EXPECT_EXIT(MappingTable(1, flash::kMaxPages + 1),
                ::testing::ExitedWithCode(1),
                "4294967295 physical pages exceed 4294967294");
}

TEST(MappingDeath, PhysicalSmallerThanLogicalIsFatal)
{
    EXPECT_EXIT(MappingTable(10, 5), ::testing::ExitedWithCode(1),
                "cover");
}

} // namespace
} // namespace ida::ftl
