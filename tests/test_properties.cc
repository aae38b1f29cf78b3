/**
 * @file
 * Parameterized property tests spanning modules: latency monotonicity
 * of the IDA transform, timing-tier consistency across devices, and
 * randomized mapping churn.
 */
#include <gtest/gtest.h>

#include <ostream>

#include "flash/timing.hh"
#include "ftl/mapping.hh"
#include "sim/rng.hh"

namespace ida {
namespace {

// ---- Property: IDA never makes any valid level slower. ------------------

struct SchemeCase
{
    const char *name;
    flash::CodingScheme (*make)();
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

class IdaLatencyProperty : public ::testing::TestWithParam<SchemeCase>
{
};

TEST_P(IdaLatencyProperty, MergedLatencyNeverExceedsConventional)
{
    const flash::CodingScheme scheme = GetParam().make();
    const flash::FlashTiming timing;
    const auto full = flash::fullMask(scheme.bits());
    for (flash::LevelMask mask = 1; mask < full; ++mask) {
        const auto &m = scheme.idaMerge(mask);
        for (int level = 0; level < scheme.bits(); ++level) {
            if (!((mask >> level) & 1))
                continue;
            EXPECT_LE(timing.readLatency(scheme, m.sensingCounts[level]),
                      timing.conventionalReadLatency(scheme, level))
                << GetParam().name << " mask " << int(mask) << " level "
                << level;
        }
    }
}

TEST_P(IdaLatencyProperty, TopLevelAloneReachesFastestTier)
{
    // When only the highest level remains valid, its read must collapse
    // to a single sensing (the paper's case-4 MSB -> tLSB claim).
    const flash::CodingScheme scheme = GetParam().make();
    const int top = scheme.bits() - 1;
    const auto mask = static_cast<flash::LevelMask>(1u << top);
    const auto &m = scheme.idaMerge(mask);
    EXPECT_EQ(m.sensingCounts[top], 1);
    const flash::FlashTiming timing;
    EXPECT_EQ(timing.readLatency(scheme, m.sensingCounts[top]),
              timing.lsbRead);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, IdaLatencyProperty,
    ::testing::Values(
        SchemeCase{"tlc124", &flash::CodingScheme::tlc124},
        SchemeCase{"tlc232", &flash::CodingScheme::tlc232},
        SchemeCase{"mlc12", &flash::CodingScheme::mlc12},
        SchemeCase{"qlc1248", &flash::CodingScheme::qlc1248}),
    [](const auto &info) { return info.param.name; });

// ---- Property: dTR scaling (Fig. 9) is linear per tier. ------------------

class DeltaTrProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DeltaTrProperty, TierLatenciesScaleLinearly)
{
    const sim::Time dtr = GetParam() * sim::kUsec;
    const auto t = flash::FlashTiming::tlcWithDeltaTr(dtr);
    const auto scheme = flash::CodingScheme::tlc124();
    EXPECT_EQ(t.conventionalReadLatency(scheme, 2) -
                  t.conventionalReadLatency(scheme, 1),
              dtr);
    EXPECT_EQ(t.conventionalReadLatency(scheme, 1) -
                  t.conventionalReadLatency(scheme, 0),
              dtr);
}

INSTANTIATE_TEST_SUITE_P(Fig9Sweep, DeltaTrProperty,
                         ::testing::Values(30, 40, 50, 60, 70));

// ---- Property: randomized mapping churn keeps the inverse exact. --------

class MappingChurnProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MappingChurnProperty, InverseAlwaysExact)
{
    sim::Rng rng(GetParam());
    const std::uint64_t L = 200, P = 400;
    ftl::MappingTable m(L, P);
    std::vector<bool> physUsed(P, false);
    std::vector<ftl::Ppn> expect(L, flash::kInvalidPpn);

    std::uint64_t nextFree = 0;
    for (int op = 0; op < 2000; ++op) {
        const ftl::Lpn lpn = rng.uniformInt(0, L - 1);
        if (rng.chance(0.15) && expect[lpn] != flash::kInvalidPpn) {
            m.unmap(lpn);
            physUsed[expect[lpn]] = false;
            expect[lpn] = flash::kInvalidPpn;
            continue;
        }
        // Find a free physical page (wrap around).
        std::uint64_t tries = 0;
        while (physUsed[nextFree % P] && tries++ < P)
            ++nextFree;
        if (tries >= P)
            break;
        const ftl::Ppn dst = nextFree % P;
        const ftl::Ppn old = m.remap(lpn, dst);
        EXPECT_EQ(old, expect[lpn]);
        if (old != flash::kInvalidPpn)
            physUsed[old] = false;
        physUsed[dst] = true;
        expect[lpn] = dst;
    }
    // Final audit.
    std::uint64_t mapped = 0;
    for (ftl::Lpn l = 0; l < L; ++l) {
        EXPECT_EQ(m.lookup(l), expect[l]);
        if (expect[l] != flash::kInvalidPpn) {
            ++mapped;
            EXPECT_EQ(m.reverse(expect[l]), l);
        }
    }
    EXPECT_EQ(m.mappedCount(), mapped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingChurnProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace ida
