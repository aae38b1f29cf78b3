/**
 * @file
 * Unit and property tests for the coding model and the IDA merge
 * transform — the paper's core mechanism (Sec. II-B, III-B, Figs. 2/5/6).
 */
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "flash/coding.hh"

namespace ida::flash {
namespace {

// ---- Conventional TLC coding (paper Fig. 2). ---------------------------

TEST(CodingTlc124, SensingCountsAre124)
{
    const CodingScheme c = CodingScheme::tlc124();
    EXPECT_EQ(c.bits(), 3);
    EXPECT_EQ(c.numStates(), 8);
    EXPECT_EQ(c.sensingCount(0), 1); // LSB
    EXPECT_EQ(c.sensingCount(1), 2); // CSB
    EXPECT_EQ(c.sensingCount(2), 4); // MSB
}

TEST(CodingTlc124, ReadVoltagesMatchFig2)
{
    const CodingScheme c = CodingScheme::tlc124();
    // Boundary index v separates S(v+1) from S(v+2), i.e. it is the
    // paper's V(v+1). LSB: V4 only; CSB: V2 and V6; MSB: V1 V3 V5 V7.
    EXPECT_EQ(c.readVoltages(0), (std::vector<int>{3}));
    EXPECT_EQ(c.readVoltages(1), (std::vector<int>{1, 5}));
    EXPECT_EQ(c.readVoltages(2), (std::vector<int>{0, 2, 4, 6}));
}

TEST(CodingTlc124, StateTupleExamplesFromPaper)
{
    const CodingScheme c = CodingScheme::tlc124();
    // Fig. 2: S4 holds LSB=1, CSB=0, MSB=1.
    EXPECT_EQ(c.bitOf(3, 0), 1);
    EXPECT_EQ(c.bitOf(3, 1), 0);
    EXPECT_EQ(c.bitOf(3, 2), 1);
    // Fig. 3: writing LSB=0, CSB=0, MSB=1 programs S5.
    const std::uint8_t tuple = 0b100 | 0; // level2=1, level1=0, level0=0
    EXPECT_EQ(c.stateOf(tuple), 4);
    // Erased state reads all ones.
    EXPECT_EQ(c.tupleOf(0), fullMask(3));
}

TEST(CodingTlc124, IsGrayCode)
{
    const CodingScheme c = CodingScheme::tlc124();
    for (int s = 0; s + 1 < c.numStates(); ++s) {
        const unsigned diff = c.tupleOf(s) ^ c.tupleOf(s + 1);
        EXPECT_EQ(__builtin_popcount(diff), 1)
            << "states " << s << " and " << s + 1;
    }
}

// ---- IDA merge for LSB-invalid TLC (paper Fig. 5). ----------------------

TEST(IdaMergeTlc, LsbInvalidMatchesFig5)
{
    const CodingScheme c = CodingScheme::tlc124();
    const LevelMask mask = 0b110; // CSB + MSB valid, LSB invalid
    const IdaMerge &m = c.idaMerge(mask);

    // S1..S4 move to S8..S5; S5..S8 stay.
    EXPECT_EQ(m.stateMap, (std::vector<int>{7, 6, 5, 4, 4, 5, 6, 7}));
    EXPECT_EQ(m.survivors, (std::vector<int>{4, 5, 6, 7}));

    // CSB drops to 1 sensing at V6; MSB to 2 sensings at V5 and V7.
    EXPECT_EQ(m.sensingCounts[1], 1);
    EXPECT_EQ(m.sensingCounts[2], 2);
    EXPECT_EQ(m.readVoltages[1], (std::vector<int>{5}));
    EXPECT_EQ(m.readVoltages[2], (std::vector<int>{4, 6}));
    EXPECT_TRUE(m.changesAnything());
}

TEST(IdaMergeTlc, LsbAndCsbInvalid)
{
    const CodingScheme c = CodingScheme::tlc124();
    const IdaMerge &m = c.idaMerge(0b100); // only MSB valid
    EXPECT_EQ(m.survivors.size(), 2u);
    EXPECT_EQ(m.sensingCounts[2], 1); // MSB now a single sensing
}

TEST(IdaMergeTlc, MergePreservesValidBits)
{
    const CodingScheme c = CodingScheme::tlc124();
    for (LevelMask mask = 1; mask < fullMask(3); ++mask) {
        const IdaMerge &m = c.idaMerge(mask);
        for (int s = 0; s < c.numStates(); ++s) {
            const int t = m.stateMap[s];
            EXPECT_EQ(c.tupleOf(s) & mask, c.tupleOf(t) & mask)
                << "mask " << int(mask) << " state " << s;
        }
    }
}

TEST(IdaMergeTlc, IsppMonotonicity)
{
    // ISPP can only raise the threshold voltage: every state must map to
    // an equal-or-higher state for *every* valid mask.
    const CodingScheme c = CodingScheme::tlc124();
    for (LevelMask mask = 1; mask < fullMask(3); ++mask) {
        const IdaMerge &m = c.idaMerge(mask);
        for (int s = 0; s < c.numStates(); ++s)
            EXPECT_GE(m.stateMap[s], s) << "mask " << int(mask);
    }
}

// ---- QLC (paper Fig. 6). ------------------------------------------------

TEST(IdaMergeQlc, TwoLowBitsInvalidMatchesFig6)
{
    const CodingScheme c = CodingScheme::qlc1248();
    EXPECT_EQ(c.sensingCounts(), (std::vector<int>{1, 2, 4, 8}));
    const IdaMerge &m = c.idaMerge(0b1100); // bits 1 and 2 invalid
    // Paper Fig. 6: bit 4 (MSB) drops 8 -> 2, bit 3 drops 4 -> 1.
    EXPECT_EQ(m.sensingCounts[3], 2);
    EXPECT_EQ(m.sensingCounts[2], 1);
    EXPECT_EQ(m.survivors.size(), 4u);
}

// ---- MLC. ---------------------------------------------------------------

TEST(IdaMergeMlc, LsbInvalidHalvesMsbSensing)
{
    const CodingScheme c = CodingScheme::mlc12();
    EXPECT_EQ(c.sensingCounts(), (std::vector<int>{1, 2}));
    const IdaMerge &m = c.idaMerge(0b10);
    EXPECT_EQ(m.sensingCounts[1], 1);
}

// ---- Alternative 2-3-2 TLC coding (Sec. III-B). -------------------------

TEST(CodingTlc232, SensingCountsAre232)
{
    const CodingScheme c = CodingScheme::tlc232();
    EXPECT_EQ(c.sensingCount(0), 2);
    EXPECT_EQ(c.sensingCount(1), 3);
    EXPECT_EQ(c.sensingCount(2), 2);
}

TEST(CodingTlc232, IsGrayCodeAndIdaStillHelps)
{
    const CodingScheme c = CodingScheme::tlc232();
    for (int s = 0; s + 1 < c.numStates(); ++s)
        EXPECT_EQ(__builtin_popcount(c.tupleOf(s) ^ c.tupleOf(s + 1)), 1);
    const IdaMerge &m = c.idaMerge(0b110);
    EXPECT_LE(m.sensingCounts[1], c.sensingCount(1));
    EXPECT_LE(m.sensingCounts[2], c.sensingCount(2));
    EXPECT_LT(m.sensingCounts[1] + m.sensingCounts[2],
              c.sensingCount(1) + c.sensingCount(2));
}

// ---- Latency tiers. ------------------------------------------------------

TEST(CodingTiers, TlcTierLadder)
{
    const CodingScheme c = CodingScheme::tlc124();
    EXPECT_EQ(c.latencyTier(1), 0);
    EXPECT_EQ(c.latencyTier(2), 1);
    EXPECT_EQ(c.latencyTier(4), 2);
    EXPECT_EQ(c.maxTier(), 2);
}

TEST(CodingTiers, QlcTierLadder)
{
    const CodingScheme c = CodingScheme::qlc1248();
    EXPECT_EQ(c.latencyTier(1), 0);
    EXPECT_EQ(c.latencyTier(2), 1);
    EXPECT_EQ(c.latencyTier(4), 2);
    EXPECT_EQ(c.latencyTier(8), 3);
}

// ---- Property sweep over all reflected-Gray densities and masks. --------

class ReflectedGrayProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

/** Every density with every proper non-empty mask. */
std::vector<std::tuple<int, int>>
reflectedGrayCases()
{
    std::vector<std::tuple<int, int>> cases;
    for (int bits = 2; bits <= 5; ++bits) {
        for (int mask = 1; mask < fullMask(bits); ++mask)
            cases.emplace_back(bits, mask);
    }
    return cases;
}

TEST_P(ReflectedGrayProperty, MergeInvariants)
{
    const auto [bits, maskInt] = GetParam();
    const auto mask = static_cast<LevelMask>(maskInt);

    const CodingScheme c = CodingScheme::reflectedGray(bits);
    const IdaMerge &m = c.idaMerge(mask);

    // (1) Valid-bit preservation and ISPP monotonicity.
    for (int s = 0; s < c.numStates(); ++s) {
        EXPECT_EQ(c.tupleOf(s) & mask, c.tupleOf(m.stateMap[s]) & mask);
        EXPECT_GE(m.stateMap[s], s);
    }

    // (2) Survivor count = number of distinct valid-bit projections.
    std::set<std::uint8_t> proj;
    for (int s = 0; s < c.numStates(); ++s)
        proj.insert(c.tupleOf(s) & mask);
    EXPECT_EQ(m.survivors.size(), proj.size());

    // (3) The map is idempotent: survivors map to themselves.
    for (int s : m.survivors)
        EXPECT_EQ(m.stateMap[s], s);

    // (4) Sensing counts never increase, and their sum over valid
    //     levels strictly decreases whenever there is slack above the
    //     information-theoretic floor of (2^k - 1) boundaries for k
    //     valid levels (e.g. a mask keeping only the 1-sensing LSB has
    //     nothing to gain).
    int before = 0, after = 0;
    for (int level = 0; level < bits; ++level) {
        if (!((mask >> level) & 1))
            continue;
        EXPECT_LE(m.sensingCounts[level], c.sensingCount(level));
        EXPECT_GE(m.sensingCounts[level], 1);
        before += c.sensingCount(level);
        after += m.sensingCounts[level];
    }
    const int floor = static_cast<int>(m.survivors.size()) - 1;
    EXPECT_LE(after, before);
    EXPECT_GE(after, floor);
    if (before > floor) {
        EXPECT_LT(after, before);
    }

    // (5) Surviving states remain distinguishable per level: the number
    //     of read voltages equals the sensing count.
    for (int level = 0; level < bits; ++level) {
        if ((mask >> level) & 1) {
            EXPECT_EQ(m.readVoltages[level].size(),
                      static_cast<std::size_t>(m.sensingCounts[level]));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDensitiesAllMasks, ReflectedGrayProperty,
    ::testing::ValuesIn(reflectedGrayCases()),
    [](const auto &info) {
        return "bits" + std::to_string(std::get<0>(info.param)) + "_mask" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace ida::flash
