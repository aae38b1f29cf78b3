/**
 * @file
 * Property tests of the IDA merge transform (flash/coding.hh): for
 * every preset scheme and every valid-level mask — and for randomized
 * state tables — the merge must preserve surviving-page data, only move
 * states toward higher voltages (ISPP-legal), and report sensing counts
 * consistent with its own survivor set. The preset cases additionally
 * pin the paper's headline reductions (Fig. 5 / Fig. 6) as exact
 * numbers so a regression cannot hide behind the generic invariants.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include "flash/coding.hh"
#include "sim/rng.hh"

namespace ida {
namespace {

using flash::CodingScheme;
using flash::LevelMask;

/** Human-readable context for a failing (scheme, mask) pair. */
std::string
describeCase(const CodingScheme &s, LevelMask mask)
{
    std::ostringstream os;
    os << s.name() << " bits=" << s.bits() << " validMask=0x" << std::hex
       << int(mask) << std::dec << " table=[";
    for (int st = 0; st < s.numStates(); ++st)
        os << (st ? "," : "") << int(s.tupleOf(st));
    os << "]";
    return os.str();
}

/**
 * Check every merge invariant for one (scheme, mask) pair. Kept as one
 * function so the preset sweep, the Gray-code sweep, and the random
 * fuzz all enforce the identical contract.
 */
void
verifyMerge(const CodingScheme &s, LevelMask mask)
{
    SCOPED_TRACE(describeCase(s, mask));
    const auto &m = s.idaMerge(mask);
    const int n = s.numStates();
    ASSERT_EQ(m.validMask, mask);
    ASSERT_EQ(static_cast<int>(m.stateMap.size()), n);

    for (int st = 0; st < n; ++st) {
        const int to = m.stateMap[st];
        ASSERT_GE(to, st) << "ISPP violation: state " << st
                          << " mapped down to " << to;
        ASSERT_LT(to, n);
        // Data preservation: every still-valid level reads the same bit
        // out of the merged state as it did before the merge.
        for (int level = 0; level < s.bits(); ++level) {
            if (!((mask >> level) & 1))
                continue;
            EXPECT_EQ(s.bitOf(to, level), s.bitOf(st, level))
                << "valid level " << level << " corrupted by merge of "
                << "state " << st << " -> " << to;
        }
        // Idempotence: survivors map to themselves.
        EXPECT_EQ(m.stateMap[to], to);
    }

    // The survivor list is exactly the (sorted, deduplicated) image of
    // the state map, and each survivor is the highest-voltage member of
    // its equivalence class (it is >= everything mapping onto it).
    std::vector<int> image(m.stateMap);
    std::sort(image.begin(), image.end());
    image.erase(std::unique(image.begin(), image.end()), image.end());
    EXPECT_EQ(m.survivors, image);
    for (int st = 0; st < n; ++st)
        EXPECT_LE(st, m.stateMap[st]);

    // Sensing counts: reading level L senses once per boundary where
    // bit L flips between voltage-adjacent *survivors* — recompute that
    // from the survivor list and require exact agreement, plus the
    // readVoltages lists to match in size and in transition content.
    ASSERT_EQ(static_cast<int>(m.sensingCounts.size()), s.bits());
    ASSERT_EQ(static_cast<int>(m.readVoltages.size()), s.bits());
    for (int level = 0; level < s.bits(); ++level) {
        if (!((mask >> level) & 1)) {
            EXPECT_EQ(m.sensingCounts[level], 0)
                << "invalid level " << level << " kept a sensing count";
            EXPECT_TRUE(m.readVoltages[level].empty());
            continue;
        }
        int transitions = 0;
        for (std::size_t i = 1; i < m.survivors.size(); ++i) {
            if (s.bitOf(m.survivors[i - 1], level) !=
                s.bitOf(m.survivors[i], level))
                ++transitions;
        }
        EXPECT_EQ(m.sensingCounts[level], transitions)
            << "level " << level << " count disagrees with survivors";
        EXPECT_EQ(static_cast<int>(m.readVoltages[level].size()),
                  m.sensingCounts[level]);
        // A merge can only remove read voltages, never add work.
        EXPECT_LE(m.sensingCounts[level], s.sensingCount(level));
        // Every reported boundary really separates survivors whose bit
        // L differs (boundary v sits between states v and v+1).
        for (int v : m.readVoltages[level]) {
            ASSERT_GE(v, 0);
            ASSERT_LT(v, n - 1);
            int below = -1, above = -1;
            for (int sv : m.survivors) {
                if (sv <= v)
                    below = sv;
                if (sv > v && above < 0)
                    above = sv;
            }
            ASSERT_GE(below, 0) << "boundary " << v << " below survivors";
            ASSERT_GE(above, 0) << "boundary " << v << " above survivors";
            EXPECT_NE(s.bitOf(below, level), s.bitOf(above, level))
                << "boundary " << v << " separates equal bits of level "
                << level;
        }
    }
}

/** All proper masks of @p s, ordered by how many levels are invalid —
 *  so a failure surfaces at its minimal (easiest to debug) mask. */
std::vector<LevelMask>
properMasksByInvalidCount(const CodingScheme &s)
{
    const LevelMask full = flash::fullMask(s.bits());
    std::vector<LevelMask> masks;
    for (LevelMask m = 1; m < full; ++m)
        masks.push_back(m);
    std::stable_sort(masks.begin(), masks.end(),
                     [&](LevelMask a, LevelMask b) {
                         return __builtin_popcount(full & ~a) <
                                __builtin_popcount(full & ~b);
                     });
    return masks;
}

// ---- Exhaustive sweep over the preset schemes. --------------------------

struct SchemeCase
{
    const char *name;
    CodingScheme (*make)();
};

/**
 * Print a case by name. Without this gtest dumps the raw object bytes,
 * which hold a string and a function address that move with ASLR, so
 * the listed test names would differ on every run.
 */
void
PrintTo(const SchemeCase &c, std::ostream *os)
{
    *os << c.name;
}

class MergeProperty : public ::testing::TestWithParam<SchemeCase>
{
};

TEST_P(MergeProperty, AllMasksSatisfyMergeInvariants)
{
    const CodingScheme s = GetParam().make();
    for (LevelMask mask : properMasksByInvalidCount(s))
        verifyMerge(s, mask);
}

TEST_P(MergeProperty, MergeIsMemoizedConsistently)
{
    const CodingScheme s = GetParam().make();
    const LevelMask mask = 1; // only the LSB valid
    const auto &a = s.idaMerge(mask);
    const auto &b = s.idaMerge(mask);
    EXPECT_EQ(&a, &b) << "memoized merge not returned by reference";
    EXPECT_EQ(a.stateMap, b.stateMap);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MergeProperty,
    ::testing::Values(
        SchemeCase{"tlc124", &CodingScheme::tlc124},
        SchemeCase{"tlc232", &CodingScheme::tlc232},
        SchemeCase{"mlc12", &CodingScheme::mlc12},
        SchemeCase{"qlc1248", &CodingScheme::qlc1248}),
    [](const auto &info) { return info.param.name; });

// ---- The paper's headline reductions, as exact numbers. -----------------

TEST(MergeHeadline, Tlc124LsbInvalidGivesFig5Counts)
{
    // Fig. 5 cases 2/3: LSB invalid -> CSB 2->1 and MSB 4->2.
    const CodingScheme s = CodingScheme::tlc124();
    const auto &m = s.idaMerge(0b110);
    EXPECT_EQ(m.sensingCounts, (std::vector<int>{0, 1, 2}));
}

TEST(MergeHeadline, Tlc124OnlyMsbValidReadsWithOneSensing)
{
    // Fig. 5 case 4: LSB+CSB invalid -> MSB 4->1 (tLSB latency).
    const CodingScheme s = CodingScheme::tlc124();
    const auto &m = s.idaMerge(0b100);
    EXPECT_EQ(m.sensingCounts, (std::vector<int>{0, 0, 1}));
}

TEST(MergeHeadline, Qlc1248LowHalfInvalidGivesFig6Counts)
{
    // Fig. 6: both low bits invalid -> bit3 4->1 and bit4 8->2.
    const CodingScheme s = CodingScheme::qlc1248();
    const auto &m = s.idaMerge(0b1100);
    EXPECT_EQ(m.sensingCounts[2], 1);
    EXPECT_EQ(m.sensingCounts[3], 2);
}

TEST(MergeHeadline, Mlc12LsbInvalidHalvesMsb)
{
    const CodingScheme s = CodingScheme::mlc12();
    const auto &m = s.idaMerge(0b10);
    EXPECT_EQ(m.sensingCounts, (std::vector<int>{0, 1}));
}

// ---- Reflected-Gray halving law across densities. -----------------------

TEST(MergeGrayLaw, LowLevelInvalidationHalvesHigherCounts)
{
    // In a binary-reflected Gray code, level L needs 2^L sensings, and
    // invalidating the k lowest levels divides every surviving count by
    // 2^k: count(L) = 2^(L-k). Check the law for MLC through PLC.
    for (int bits = 2; bits <= 5; ++bits) {
        const CodingScheme s = CodingScheme::reflectedGray(bits);
        for (int k = 1; k < bits; ++k) {
            const auto mask = static_cast<LevelMask>(
                flash::fullMask(bits) & ~flash::fullMask(k));
            const auto &m = s.idaMerge(mask);
            SCOPED_TRACE(describeCase(s, mask));
            for (int level = k; level < bits; ++level)
                EXPECT_EQ(m.sensingCounts[level], 1 << (level - k))
                    << "level " << level << " with " << k
                    << " low levels invalid";
        }
    }
}

// ---- Randomized state tables. -------------------------------------------

/**
 * A random (generally non-Gray) permutation table with the required
 * all-ones erased state. Exercises merge paths no preset reaches:
 * adjacent states differing in several bits, equivalence classes with
 * non-contiguous members, etc.
 */
CodingScheme
randomScheme(int bits, std::uint64_t seed)
{
    const int n = 1 << bits;
    std::vector<std::uint8_t> table(n);
    std::iota(table.begin(), table.end(), std::uint8_t{0});
    sim::Rng rng(seed);
    for (int i = n - 1; i > 0; --i) {
        const auto j = static_cast<int>(
            rng.uniformInt(0, static_cast<std::uint64_t>(i)));
        std::swap(table[i], table[j]);
    }
    // The erased state must read all ones on every level.
    const auto ones = static_cast<std::uint8_t>(n - 1);
    const auto it = std::find(table.begin(), table.end(), ones);
    std::swap(table[0], *it);
    std::ostringstream name;
    name << "fuzz" << bits << "b_seed" << seed;
    return CodingScheme(bits, std::move(table), name.str());
}

TEST(MergeFuzz, RandomTablesSatisfyMergeInvariants)
{
    // ~40 random tables across MLC/TLC/QLC densities. Masks are checked
    // in order of increasing invalid-level count, so the first reported
    // failure is already the minimal counterexample for its table; the
    // SCOPED_TRACE carries the full table and seed for replay.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const int bits = 2 + static_cast<int>(seed % 3);
        const CodingScheme s = randomScheme(bits, seed);
        for (LevelMask mask : properMasksByInvalidCount(s)) {
            verifyMerge(s, mask);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

} // namespace
} // namespace ida
