/**
 * @file
 * Unit tests for per-block state: programming order, validity, IDA
 * wordline modes, and the paper's Table I case classification.
 */
#include <gtest/gtest.h>

#include "flash/block.hh"
#include "one_block.hh"

namespace ida::flash {
namespace {

using testing::OneBlock;

TEST(Block, StartsErased)
{
    OneBlock t(24);
    const Block b = t.view();
    EXPECT_TRUE(b.isErased());
    EXPECT_FALSE(b.isFull());
    EXPECT_EQ(b.validCount(), 0u);
    EXPECT_EQ(b.numWordlines(), 8u);
    for (std::uint32_t p = 0; p < b.numPages(); ++p)
        EXPECT_EQ(b.pageState(p), PageState::Free);
}

TEST(Block, ProgramsInOrder)
{
    OneBlock t(6);
    const Block b = t.view();
    EXPECT_EQ(t.table.programNext(0, sim::Time{100}), 0u);
    EXPECT_EQ(t.table.programNext(0, sim::Time{101}), 1u);
    EXPECT_EQ(b.writePointer(), 2u);
    EXPECT_EQ(b.validCount(), 2u);
    EXPECT_EQ(b.programTime(), sim::Time{100});
}

TEST(Block, InvalidateTracksValidCount)
{
    OneBlock t(6);
    const Block b = t.view();
    t.table.programNext(0, sim::Time{0});
    t.table.programNext(0, sim::Time{0});
    t.table.invalidate(0);
    EXPECT_EQ(b.validCount(), 1u);
    EXPECT_EQ(b.pageState(0), PageState::Invalid);
    EXPECT_TRUE(b.isValid(1));
}

TEST(Block, FullLifecycle)
{
    OneBlock t(6);
    const Block b = t.view();
    for (int i = 0; i < 6; ++i)
        t.table.programNext(0, sim::Time{50});
    EXPECT_TRUE(b.isFull());
    t.table.invalidate(0); // LSB of WL0
    t.table.applyIda(0, 0, 0b110);
    EXPECT_TRUE(b.isIdaBlock());
    EXPECT_TRUE(b.isIdaWordline(0));
    EXPECT_FALSE(b.isIdaWordline(1));
    t.table.erase(0);
    EXPECT_TRUE(b.isErased());
    EXPECT_EQ(b.eraseCount(), 1u);
    EXPECT_FALSE(b.isIdaBlock());
    EXPECT_FALSE(b.isIdaWordline(0));
    EXPECT_EQ(b.wordlineMask(0), fullMask(3));
}

TEST(Block, ReadSensingsFollowWordlineMode)
{
    const CodingScheme c = CodingScheme::tlc124();
    OneBlock t(6);
    const Block b = t.view();
    for (int i = 0; i < 6; ++i)
        t.table.programNext(0, sim::Time{0});
    // Conventional: LSB 1, CSB 2, MSB 4.
    EXPECT_EQ(b.readSensings(0, c), 1);
    EXPECT_EQ(b.readSensings(1, c), 2);
    EXPECT_EQ(b.readSensings(2, c), 4);
    // LSB-invalid IDA on WL0: CSB 1, MSB 2.
    t.table.invalidate(0);
    t.table.applyIda(0, 0, 0b110);
    EXPECT_EQ(b.readSensings(1, c), 1);
    EXPECT_EQ(b.readSensings(2, c), 2);
    // WL1 untouched.
    EXPECT_EQ(b.readSensings(5, c), 4);
}

TEST(Block, IdaMaskCanShrinkMonotonically)
{
    OneBlock t(3);
    const Block b = t.view();
    for (int i = 0; i < 3; ++i)
        t.table.programNext(0, sim::Time{0});
    t.table.invalidate(0);
    t.table.applyIda(0, 0, 0b110);
    // CSB becomes invalid later; tightening to MSB-only is legal.
    t.table.invalidate(1);
    t.table.applyIda(0, 0, 0b100);
    EXPECT_EQ(b.wordlineMask(0), 0b100);
}

TEST(BlockDeath, ApplyIdaRefusesToDestroyValidData)
{
    OneBlock t(3);
    for (int i = 0; i < 3; ++i)
        t.table.programNext(0, sim::Time{0});
    // LSB still valid; masking it away would destroy data.
    EXPECT_DEATH(t.table.applyIda(0, 0, 0b110), "valid page");
}

TEST(BlockDeath, ApplyIdaRefusesMaskWidening)
{
    OneBlock t(3);
    for (int i = 0; i < 3; ++i)
        t.table.programNext(0, sim::Time{0});
    t.table.invalidate(0);
    t.table.invalidate(1);
    t.table.applyIda(0, 0, 0b100);
    // Widening back to CSB+MSB would move states downward: illegal.
    EXPECT_DEATH(t.table.applyIda(0, 0, 0b110), "monotonically");
}

TEST(BlockDeath, ProgramBeyondFullPanics)
{
    OneBlock t(3);
    for (int i = 0; i < 3; ++i)
        t.table.programNext(0, sim::Time{0});
    EXPECT_DEATH(t.table.programNext(0, sim::Time{0}), "full");
}

TEST(BlockDeath, DoubleInvalidatePanics)
{
    OneBlock t(3);
    t.table.programNext(0, sim::Time{0});
    t.table.invalidate(0);
    EXPECT_DEATH(t.table.invalidate(0), "not valid");
}

// ---- Table I classification (TLC). ---------------------------------------

class TableICase : public ::testing::TestWithParam<int>
{
};

TEST_P(TableICase, MatchesPaperNumbering)
{
    // Case k (1..8): LSB invalid iff k is even; CSB invalid iff
    // ((k-1)/2) % 2 == 1; MSB invalid iff k >= 5 (paper Table I).
    const int k = GetParam();
    OneBlock t(3);
    const Block b = t.view();
    for (int i = 0; i < 3; ++i)
        t.table.programNext(0, sim::Time{0});
    const bool lsbInvalid = (k % 2) == 0;
    const bool csbInvalid = ((k - 1) / 2) % 2 == 1;
    const bool msbInvalid = k >= 5;
    if (lsbInvalid)
        t.table.invalidate(0);
    if (csbInvalid)
        t.table.invalidate(1);
    if (msbInvalid)
        t.table.invalidate(2);
    EXPECT_EQ(b.tableICase(0), k);
}

INSTANTIATE_TEST_SUITE_P(AllCases, TableICase, ::testing::Range(1, 9));

TEST(Block, TableICaseZeroWhileNotFullyProgrammed)
{
    OneBlock t(3);
    const Block b = t.view();
    EXPECT_EQ(b.tableICase(0), 0);
    t.table.programNext(0, sim::Time{0});
    EXPECT_EQ(b.tableICase(0), 0);
}

} // namespace
} // namespace ida::flash
