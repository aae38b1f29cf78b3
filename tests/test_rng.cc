/**
 * @file
 * Unit tests for the deterministic RNG utilities and the Zipf sampler.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <vector>

#include "sim/rng.hh"

namespace ida::sim {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1'000'000), b.uniformInt(0, 1'000'000));
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng r(1);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(2);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean)
{
    Rng r(3);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(Rng, Uniform01AndExponentialMatchTheStdDistributionsDrawForDraw)
{
    // The inline fast paths must reproduce the std distributions they
    // replaced exactly, or every seeded trace and golden would move.
    for (std::uint64_t seed : {1u, 7u, 42u, 20181020u}) {
        Rng fast(seed);
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> u01(0.0, 1.0);
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(fast.uniform01(), u01(ref)) << "draw " << i;
            const double mean = 1.0 + (i % 97) * 13.5;
            std::exponential_distribution<double> expo(1.0 / mean);
            ASSERT_EQ(fast.exponential(mean), expo(ref)) << "draw " << i;
        }
    }
}

TEST(Rng, EngineMatchesStdMt19937_64)
{
    // Same seeding and outputs as the std engine, across 12 refills.
    for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                               std::uint64_t{5489},
                               ~std::uint64_t{0}}) {
        Mt19937_64 fast(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 12 * 312; ++i)
            ASSERT_EQ(fast(), ref()) << "seed " << seed << " draw " << i;
    }
}

TEST(Rng, UniformIntMatchesTheStdDistributionDrawForDraw)
{
    Rng fast(13);
    std::mt19937_64 ref(13);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t hi = 1 + static_cast<std::uint64_t>(i) * 7919;
        std::uniform_int_distribution<std::uint64_t> d(3, hi + 3);
        ASSERT_EQ(fast.uniformInt(3, hi + 3), d(ref)) << "draw " << i;
    }
    std::uniform_int_distribution<std::uint64_t> full;
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(fast.uniformInt(0, ~std::uint64_t{0}), full(ref));
}

/** The conversion uniform01 must reproduce: generate_canonical's. */
double
refUnit(std::uint64_t x)
{
    const double u = static_cast<double>(x) * 0x1p-64;
    return u < 1.0 ? u : std::nextafter(1.0, 0.0);
}

TEST(Rng, ToUnitRoundsLikeTheUnsignedConversion)
{
    std::vector<std::uint64_t> xs = {0, 1, ~std::uint64_t{0}};
    // Every binade that rounds: a mantissa (odd and even) followed by
    // the dropped bits just below, at and above the round-half-even tie,
    // and all zeros / all ones.
    for (int shift = 1; shift <= 11; ++shift) {
        const std::uint64_t half = std::uint64_t{1} << (shift - 1);
        const std::uint64_t drop = (std::uint64_t{1} << shift) - 1;
        for (std::uint64_t mant :
             {std::uint64_t{1} << 52, (std::uint64_t{1} << 52) + 1,
              (std::uint64_t{1} << 53) - 2, (std::uint64_t{1} << 53) - 1,
              std::uint64_t{0x1a2b3c4d5e6f7}, std::uint64_t{0x1a2b3c4d5e6f8}}) {
            for (std::uint64_t low :
                 {std::uint64_t{0}, half - 1, half, half + 1, drop}) {
                xs.push_back((mant << shift) | low);
            }
        }
    }
    // Around 2^53 (the first rounded integers) and 2^63 (the sign bit
    // a signed conversion would misread), and just below 2^64 (clamp).
    for (std::int64_t d = -4100; d <= 4100; ++d) {
        xs.push_back((std::uint64_t{1} << 53) + static_cast<std::uint64_t>(d));
        xs.push_back((std::uint64_t{1} << 63) + static_cast<std::uint64_t>(d));
        if (d < 0)
            xs.push_back(static_cast<std::uint64_t>(d));
    }
    std::mt19937_64 bits(99);
    for (int i = 0; i < 100000; ++i)
        xs.push_back(bits() >> (i % 64));
    for (std::uint64_t x : xs)
        ASSERT_EQ(Rng::toUnit(x), refUnit(x)) << "x = " << x;
}

TEST(Rng, LognormalMatchesTheStdDistributionDrawForDraw)
{
    for (std::uint64_t seed : {1u, 106u, 300u}) {
        Rng fast(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 20000; ++i) {
            const double mean = 1.0 + (i % 61) * 0.75;
            const double sigma = 0.1 + (i % 7) * 0.2;
            const double mu = std::log(mean) - 0.5 * sigma * sigma;
            // A fresh distribution per draw, as the generator used it:
            // the polar method's second normal is never used.
            std::lognormal_distribution<double> d(mu, sigma);
            const double want = d(ref);
            if (i % 2 == 0)
                ASSERT_EQ(fast.lognormal(mu, sigma), want) << "draw " << i;
            else
                ASSERT_EQ(fast.lognormalMean(mean, sigma), want)
                    << "draw " << i;
        }
    }
}

TEST(Rng, LognormalArithmeticMean)
{
    Rng r(4);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.lognormalMean(8.0, 0.8);
    EXPECT_NEAR(sum / n, 8.0, 0.4);
}

TEST(Zipf, UniformWhenSkewZero)
{
    Rng r(5);
    ZipfSampler z(10, 0.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[z(r)];
    for (const auto &[rank, c] : counts)
        EXPECT_NEAR(c / 20000.0, 0.1, 0.02);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng r(6);
    ZipfSampler z(1000, 1.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        ++counts[z(r)];
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[10]);
    EXPECT_GT(counts[10], counts[100]);
}

TEST(Zipf, MatchesTheoreticalHeadProbability)
{
    Rng r(7);
    const std::uint64_t n = 100;
    ZipfSampler z(n, 1.0);
    double h = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k)
        h += 1.0 / static_cast<double>(k);
    const double p0 = 1.0 / h;
    int hits = 0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i)
        hits += z(r) == 0;
    EXPECT_NEAR(hits / double(draws), p0, 0.01);
}

TEST(Zipf, SingleElement)
{
    Rng r(8);
    ZipfSampler z(1, 1.2);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(z(r), 0u);
}

TEST(Zipf, GuideTableSearchEqualsLowerBound)
{
    // The guide index floor(u * m) must never start past lower_bound's
    // rank: probe every CDF entry, both its neighbours and u = 0.
    for (std::uint64_t n : {1u, 2u, 3u, 1000u, 65537u}) {
        for (double s : {0.6, 1.1}) {
            const ZipfSampler z(n, s);
            const std::vector<double> &cdf = z.cdf();
            ASSERT_EQ(cdf.size(), n);
            std::vector<double> us = {0.0};
            for (double c : cdf) {
                us.push_back(std::nextafter(c, 0.0));
                us.push_back(c);
                us.push_back(std::nextafter(c, 2.0));
            }
            for (double u : us) {
                if (u >= 1.0)
                    continue;
                const auto want = static_cast<std::uint64_t>(
                    std::lower_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
                ASSERT_EQ(z.rankOf(u), want)
                    << "n " << n << " s " << s << " u " << u;
            }
        }
    }
}

TEST(Zipf, GuideTableHandlesACdfEntryOnItsGrid)
{
    // For n = 8 the guide has m = 2 entries. Bisect for a skew whose
    // cdf[0] is exactly the grid point 1/2: guide[1] must still be rank
    // 0, the first rank whose CDF reaches 1/2.
    double lo = 0.01, hi = 20.0;
    for (int it = 0; it < 200; ++it) {
        const double s = 0.5 * (lo + hi);
        const ZipfSampler z(8, s);
        if (z.cdf()[0] == 0.5) {
            EXPECT_EQ(z.rankOf(0.5), 0u);
            EXPECT_EQ(z.rankOf(std::nextafter(0.5, 1.0)), 1u);
            return;
        }
        (z.cdf()[0] < 0.5 ? lo : hi) = s;
    }
    FAIL() << "no skew puts cdf[0] exactly on 1/2";
}

TEST(Zipf, AllRanksReachable)
{
    Rng r(9);
    ZipfSampler z(5, 0.8);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 5000; ++i)
        ++counts[z(r)];
    EXPECT_EQ(counts.size(), 5u);
}

} // namespace
} // namespace ida::sim
