/**
 * @file
 * Unit tests for statistics primitives and the table printer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "stats/histogram.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace ida::stats {
namespace {

TEST(Summary, Accumulates)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.add(10.0);
    s.add(20.0);
    s.add(30.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 20.0);
    EXPECT_DOUBLE_EQ(s.min(), 10.0);
    EXPECT_DOUBLE_EQ(s.max(), 30.0);
}

TEST(Summary, MergeAndReset)
{
    Summary a, b;
    a.add(1.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
}

TEST(Histogram, MeanIsExact)
{
    Histogram h(1.0, 1.5, 32);
    for (double v : {5.0, 10.0, 15.0})
        h.add(v);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Histogram, QuantileApproximatesWithinBucketResolution)
{
    Histogram h(1.0, 1.25, 64);
    for (int i = 1; i <= 1000; ++i)
        h.add(static_cast<double>(i));
    const double p50 = h.quantile(0.50);
    const double p99 = h.quantile(0.99);
    // Geometric buckets: the estimate may overshoot by one growth step.
    EXPECT_GE(p50, 500.0 / 1.25);
    EXPECT_LE(p50, 500.0 * 1.6);
    EXPECT_GE(p99, 990.0 / 1.25);
    EXPECT_LE(p99, 1000.0 * 1.6);
    EXPECT_GE(p99, p50);
}

TEST(Histogram, NegativeValuesClampToZeroBucket)
{
    Histogram h;
    h.add(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, OverflowBucketCatchesHugeValues)
{
    Histogram h(1.0, 2.0, 4);
    h.add(1e12);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Histogram, QuantileMatchesSortedVectorNearestRank)
{
    // Property test against the exact nearest-rank reference: sample
    // #ceil(q*n) of the sorted data lives in some bucket (x, x*g], and
    // the histogram must report exactly that bucket's upper bound.
    const double growth = 1.25;
    Histogram h(1.0, growth, 64);
    std::mt19937_64 gen(7);
    std::uniform_real_distribution<double> dist(1.0, 900.0);
    std::vector<double> ref;
    for (int i = 0; i < 5000; ++i) {
        const double v = dist(gen);
        h.add(v);
        ref.push_back(v);
    }
    std::sort(ref.begin(), ref.end());
    for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(ref.size())));
        const double exact = ref[rank - 1];
        const double est = h.quantile(q);
        EXPECT_GE(est, exact) << "q=" << q;
        EXPECT_LE(est, exact * growth * (1.0 + 1e-9)) << "q=" << q;
    }
}

TEST(Histogram, QuantileNearestRankBoundaries)
{
    // sorted data: {2, 100, 100, 100}; nearest rank = ceil(q * 4).
    // Bucket bounds (lo=1, g=2): 2 -> 4.0, 100 -> 128.0. The old
    // floor/strict-greater quantile returned rank ceil(q*n)+1, i.e.
    // 128.0 at q=0.25 here.
    Histogram h(1.0, 2.0, 10);
    h.add(2.0);
    for (int i = 0; i < 3; ++i)
        h.add(100.0);
    EXPECT_NEAR(h.quantile(0.25), 4.0, 1e-9);   // rank 1: the 2.0
    EXPECT_NEAR(h.quantile(0.26), 128.0, 1e-9); // rank 2: first 100.0
    EXPECT_NEAR(h.quantile(1.0), 128.0, 1e-9);  // rank n: the max
    EXPECT_NEAR(h.quantile(1e-12), 4.0, 1e-9);  // rank clamps up to 1
}

TEST(Histogram, NanIsExcludedEntirely)
{
    Histogram h;
    h.add(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.nonFiniteCount(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, PositiveInfinityCountsInOverflowOnly)
{
    Histogram h(1.0, 2.0, 4);
    h.add(std::numeric_limits<double>::infinity());
    h.add(3.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.nonFiniteCount(), 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 1.5); // inf kept out of the sum
    EXPECT_TRUE(std::isfinite(h.quantile(0.99)));
}

TEST(Histogram, NegativeInfinityClampsToZero)
{
    Histogram h;
    h.add(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.nonFiniteCount(), 0u); // representable after the clamp
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.add(3.0);
    h.add(std::numeric_limits<double>::quiet_NaN());
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.nonFiniteCount(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, MergeEmptyIntoNonEmptyIsIdentity)
{
    Histogram a(1.0, 1.25, 96), empty(1.0, 1.25, 96);
    for (double v : {2.0, 8.0, 64.0})
        a.add(v);
    const double p50 = a.quantile(0.5);
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), (2.0 + 8.0 + 64.0) / 3.0);
    EXPECT_DOUBLE_EQ(a.quantile(0.5), p50);

    // The other direction: an empty histogram absorbs the donor whole.
    empty.merge(a);
    EXPECT_EQ(empty.count(), 3u);
    EXPECT_DOUBLE_EQ(empty.mean(), a.mean());
    EXPECT_DOUBLE_EQ(empty.quantile(0.99), a.quantile(0.99));
}

TEST(Histogram, MergeMatchesSingleStreamBucketForBucket)
{
    // Merging shards must equal having added every sample to one
    // histogram — counts, sum, and every bucket.
    Histogram whole(1.0, 1.5, 48), shard1(1.0, 1.5, 48),
        shard2(1.0, 1.5, 48);
    for (int i = 1; i <= 40; ++i) {
        const double v = 0.7 * i * i; // spans many buckets
        whole.add(v);
        (i % 2 ? shard1 : shard2).add(v);
    }
    shard1.merge(shard2);
    EXPECT_EQ(shard1.count(), whole.count());
    EXPECT_DOUBLE_EQ(shard1.mean(), whole.mean());
    ASSERT_EQ(shard1.buckets().size(), whole.buckets().size());
    for (std::size_t b = 0; b < whole.buckets().size(); ++b)
        EXPECT_EQ(shard1.buckets()[b], whole.buckets()[b]) << "bucket " << b;
    for (double q : {0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(shard1.quantile(q), whole.quantile(q)) << q;
}

TEST(Histogram, MergePropagatesNonFiniteCounts)
{
    Histogram a, b;
    a.add(1.0);
    b.add(std::numeric_limits<double>::quiet_NaN());
    b.add(std::numeric_limits<double>::infinity());
    b.add(4.0);
    a.merge(b);
    // +inf lands in the overflow bucket (counted, excluded from the
    // sum); NaN is excluded everywhere but remembered.
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.nonFiniteCount(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), (1.0 + 4.0) / 3.0);
}

TEST(Histogram, MergeQuantilesStayWithinBucketResolution)
{
    // Quantile stability under merge: a merged histogram's quantile can
    // only move within one bucket's resolution of the donors' envelope,
    // never outside [min donor q, max donor q] rounded to bucket bounds.
    Histogram a(1.0, 1.25, 64), b(1.0, 1.25, 64);
    for (int i = 0; i < 100; ++i)
        a.add(10.0);
    for (int i = 0; i < 100; ++i)
        b.add(1000.0);
    const double qa = a.quantile(0.5), qb = b.quantile(0.5);
    a.merge(b);
    EXPECT_GE(a.quantile(0.5), std::min(qa, qb));
    EXPECT_LE(a.quantile(0.5), std::max(qa, qb));
    EXPECT_DOUBLE_EQ(a.quantile(0.25), qa);
    EXPECT_DOUBLE_EQ(a.quantile(0.9), qb);
}

/** The bucket formula the edge table must reproduce, evaluated directly. */
int
formulaBucket(double x, double lo, double growth, int buckets)
{
    if (!(x >= lo))
        return 0;
    const double b = 1.0 + std::log(x / lo) / std::log(growth);
    if (!(b < static_cast<double>(buckets)))
        return buckets;
    return static_cast<int>(b);
}

/**
 * Both layouts in use: (1.0, 1.25, 96) for the device and fleet read
 * histograms, the default (1.0, 1.3, 96) for trace attribution. The
 * table must agree with the formula on every double within 4096 ulps of
 * each bucket edge, where rounding decides, and on random samples.
 */
TEST(Histogram, EdgeTableMatchesTheLogFormula)
{
    struct Layout
    {
        double lo, growth;
        int buckets;
    };
    for (const Layout l : {Layout{1.0, 1.25, 96}, Layout{1.0, 1.3, 96}}) {
        const Histogram h(l.lo, l.growth, l.buckets);
        std::uint64_t mismatches = 0;
        auto check = [&](double x) {
            if (h.bucketOf(x) != formulaBucket(x, l.lo, l.growth, l.buckets))
                ++mismatches;
        };
        const double inf = std::numeric_limits<double>::infinity();
        for (int k = 0; k <= l.buckets; ++k) {
            const double edge = l.lo * std::pow(l.growth, k);
            double up = edge;
            double down = edge;
            check(edge);
            for (int u = 0; u < 4096; ++u) {
                check(up = std::nextafter(up, inf));
                check(down = std::nextafter(down, 0.0));
            }
        }
        std::mt19937_64 gen(7);
        std::uniform_real_distribution<double> exponent(
            -1.0, static_cast<double>(l.buckets) + 2.0);
        std::uniform_real_distribution<double> linear(0.0, 1e6);
        for (int i = 0; i < 500'000; ++i) {
            check(l.lo * std::pow(l.growth, exponent(gen)));
            check(linear(gen));
        }
        check(0.0);
        check(std::numeric_limits<double>::max());
        EXPECT_EQ(mismatches, 0u)
            << "layout (" << l.lo << ", " << l.growth << ", " << l.buckets
            << ")";
    }
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
    EXPECT_EQ(Table::pct(0.285, 1), "28.5%");
}

TEST(TableDeath, RowWidthMismatchIsFatal)
{
    Table t({"a", "b"});
    EXPECT_EXIT(t.addRow({"only-one"}), ::testing::ExitedWithCode(1),
                "row width");
}

} // namespace
} // namespace ida::stats
