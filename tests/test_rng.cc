/**
 * @file
 * Unit tests for the deterministic RNG utilities and the Zipf sampler.
 */
#include <gtest/gtest.h>

#include <map>
#include <random>

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
