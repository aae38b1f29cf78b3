/**
 * @file
 * Tests for the functional (data-carrying) wordline model: programming,
 * sensing, the IDA adjustment's data preservation, and disturbance.
 */
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>
#include <vector>

#include "flash/cell_array.hh"

namespace ida::flash {
namespace {

std::vector<std::vector<std::uint8_t>>
randomBits(const CodingScheme &s, std::uint32_t cells, sim::Rng &rng)
{
    std::vector<std::vector<std::uint8_t>> bits(
        static_cast<std::size_t>(s.bits()),
        std::vector<std::uint8_t>(cells));
    for (auto &level : bits) {
        for (auto &b : level)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 1));
    }
    return bits;
}

TEST(Wordline, StartsErasedAndReadsAllOnes)
{
    const CodingScheme s = CodingScheme::tlc124();
    Wordline wl(s, 16);
    EXPECT_TRUE(wl.isErased());
    for (int level = 0; level < 3; ++level) {
        for (std::uint8_t b : wl.readLevel(level))
            EXPECT_EQ(b, 1); // erased cells read 1 on every level
    }
}

TEST(Wordline, ProgramReadRoundTrip)
{
    const CodingScheme s = CodingScheme::tlc124();
    sim::Rng rng(5);
    Wordline wl(s, 64);
    const auto bits = randomBits(s, 64, rng);
    wl.program(bits);
    for (int level = 0; level < 3; ++level)
        EXPECT_EQ(wl.readLevel(level), bits[std::size_t(level)])
            << "level " << level;
}

TEST(Wordline, PaperFig3Example)
{
    // Fig. 3: writing LSB=0, CSB=0, MSB=1 programs the cell to S5.
    const CodingScheme s = CodingScheme::tlc124();
    Wordline wl(s, 1);
    wl.program({{0}, {0}, {1}});
    EXPECT_EQ(wl.state(0), 4); // S5 (0-based 4)
}

TEST(Wordline, SensingCountMatchesScheme)
{
    const CodingScheme s = CodingScheme::tlc124();
    sim::Rng rng(6);
    Wordline wl(s, 8);
    wl.program(randomBits(s, 8, rng));
    wl.readLevel(0);
    EXPECT_EQ(wl.senseCount(), 1u); // LSB: V4 only
    wl.readLevel(1);
    EXPECT_EQ(wl.senseCount(), 3u); // +2 for CSB
    wl.readLevel(2);
    EXPECT_EQ(wl.senseCount(), 7u); // +4 for MSB
}

TEST(Wordline, IdaAdjustPreservesValidDataAndHalvesSensing)
{
    // The paper's Fig. 5 end to end: program, invalidate the LSB,
    // voltage-adjust, and confirm CSB/MSB read back bit-exact with
    // fewer sensings.
    const CodingScheme s = CodingScheme::tlc124();
    sim::Rng rng(7);
    Wordline wl(s, 128);
    const auto bits = randomBits(s, 128, rng);
    wl.program(bits);

    wl.idaAdjust(0b110);
    const auto c0 = wl.senseCount();
    EXPECT_EQ(wl.readLevel(1), bits[1]);
    EXPECT_EQ(wl.senseCount() - c0, 1u); // CSB: 2 -> 1 sensing
    const auto c1 = wl.senseCount();
    EXPECT_EQ(wl.readLevel(2), bits[2]);
    EXPECT_EQ(wl.senseCount() - c1, 2u); // MSB: 4 -> 2 sensings
}

TEST(Wordline, AdjustedStatesOnlyRise)
{
    const CodingScheme s = CodingScheme::tlc124();
    sim::Rng rng(8);
    Wordline wl(s, 64);
    wl.program(randomBits(s, 64, rng));
    std::vector<int> before(64);
    for (std::uint32_t c = 0; c < 64; ++c)
        before[c] = wl.state(c);
    wl.idaAdjust(0b110);
    for (std::uint32_t c = 0; c < 64; ++c)
        EXPECT_GE(wl.state(c), before[c]);
}

TEST(Wordline, SecondTighteningAdjustWorks)
{
    const CodingScheme s = CodingScheme::tlc124();
    sim::Rng rng(9);
    Wordline wl(s, 32);
    const auto bits = randomBits(s, 32, rng);
    wl.program(bits);
    wl.idaAdjust(0b110); // LSB gone
    wl.idaAdjust(0b100); // CSB gone too
    EXPECT_EQ(wl.readLevel(2), bits[2]);
    // MSB needs one sensing now (paper: 4 -> 1 for cases 3/4).
    const auto c = wl.senseCount();
    wl.readLevel(2);
    EXPECT_EQ(wl.senseCount() - c, 1u);
}

TEST(Wordline, EraseRestoresConventional)
{
    const CodingScheme s = CodingScheme::tlc124();
    sim::Rng rng(10);
    Wordline wl(s, 8);
    wl.program(randomBits(s, 8, rng));
    wl.idaAdjust(0b100);
    wl.erase();
    EXPECT_TRUE(wl.isErased());
    EXPECT_EQ(wl.mask(), fullMask(3));
}

TEST(Wordline, DisturbCorruptsReads)
{
    const CodingScheme s = CodingScheme::tlc124();
    sim::Rng rng(11);
    Wordline wl(s, 256);
    const auto bits = randomBits(s, 256, rng);
    wl.program(bits);
    const auto moved = wl.disturb(rng, 0.5);
    EXPECT_GT(moved, 0u);
    // A one-state shift flips at least one level's bit for that cell
    // (adjacent states differ in exactly one bit in a Gray coding).
    std::uint32_t flips = 0;
    for (int level = 0; level < 3; ++level) {
        const auto got = wl.readLevel(level);
        for (std::uint32_t c = 0; c < 256; ++c)
            flips += got[c] != bits[std::size_t(level)][c];
    }
    EXPECT_EQ(flips, moved);
}

TEST(WordlineDeath, ReadingInvalidatedLevelPanics)
{
    const CodingScheme s = CodingScheme::tlc124();
    sim::Rng rng(12);
    Wordline wl(s, 4);
    wl.program(randomBits(s, 4, rng));
    wl.idaAdjust(0b110);
    EXPECT_DEATH(wl.readLevel(0), "invalidated");
}

TEST(WordlineDeath, ReprogramWithoutErasePanics)
{
    const CodingScheme s = CodingScheme::tlc124();
    sim::Rng rng(13);
    Wordline wl(s, 4);
    const auto bits = randomBits(s, 4, rng);
    wl.program(bits);
    EXPECT_DEATH(wl.program(bits), "not erased");
}

// ---- Property sweep: every scheme, every mask, random data. --------------

struct WlCase
{
    const char *name;
    CodingScheme (*make)();
};

// Names the case in ctest's "GetParam() = ..." suffix; without it gtest
// prints the raw bytes, function pointer included, which change with
// ASLR at every test discovery.
void
PrintTo(const WlCase &c, std::ostream *os)
{
    *os << c.name;
}

/** Every scheme with every mask that keeps a level and drops one. */
std::vector<std::tuple<WlCase, int>>
wordlineCases()
{
    std::vector<std::tuple<WlCase, int>> cases;
    for (const WlCase &c : {WlCase{"tlc124", &CodingScheme::tlc124},
                            WlCase{"tlc232", &CodingScheme::tlc232},
                            WlCase{"mlc12", &CodingScheme::mlc12},
                            WlCase{"qlc1248", &CodingScheme::qlc1248}}) {
        for (int mask = 1; mask < fullMask(c.make().bits()); ++mask)
            cases.emplace_back(c, mask);
    }
    return cases;
}

class WordlineProperty
    : public ::testing::TestWithParam<std::tuple<WlCase, int>>
{
};

TEST_P(WordlineProperty, AdjustPreservesAllValidLevels)
{
    const auto [c, maskInt] = GetParam();
    const CodingScheme scheme = c.make();
    const auto mask = static_cast<LevelMask>(maskInt);

    sim::Rng rng(99 + static_cast<std::uint64_t>(maskInt));
    Wordline wl(scheme, 256);
    std::vector<std::vector<std::uint8_t>> bits(
        static_cast<std::size_t>(scheme.bits()),
        std::vector<std::uint8_t>(256));
    for (auto &level : bits) {
        for (auto &b : level)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 1));
    }
    wl.program(bits);
    wl.idaAdjust(mask);

    for (int level = 0; level < scheme.bits(); ++level) {
        if (!((mask >> level) & 1))
            continue;
        const auto before = wl.senseCount();
        EXPECT_EQ(wl.readLevel(level), bits[std::size_t(level)])
            << c.name << " mask " << maskInt << " level " << level;
        EXPECT_EQ(wl.senseCount() - before,
                  static_cast<std::uint64_t>(
                      scheme.idaMerge(mask).sensingCounts[level]));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllMasks, WordlineProperty,
    ::testing::ValuesIn(wordlineCases()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_mask" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace ida::flash
