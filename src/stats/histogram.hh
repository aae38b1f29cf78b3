/**
 * @file
 * Log-bucketed histogram for latency distributions with percentile
 * queries (used for response-time tails in docs/ARTIFACTS.md and tests).
 */
#pragma once

#include <cstdint>
#include <vector>

namespace ida::stats {

/**
 * Histogram over non-negative values with geometrically growing buckets.
 *
 * Bucket b (1 <= b < buckets) covers [lo * g^(b-1), lo * g^b); values
 * below @p lo land in bucket 0, values from lo * g^(buckets-1) up in the
 * overflow bucket.
 * Percentiles are approximate (bucket upper bound), which is plenty for
 * latency reporting.
 */
class Histogram
{
  public:
    /**
     * @param lo      upper bound of the first bucket (> 0).
     * @param growth  geometric bucket growth factor (> 1).
     * @param buckets number of buckets before overflow.
     */
    Histogram(double lo = 1.0, double growth = 1.3, int buckets = 96);

    void add(double x);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Samples that arrived NaN or infinite (excluded from sum/mean). */
    std::uint64_t nonFiniteCount() const { return nonFinite_; }

    /** Approximate quantile (0 < q <= 1), e.g. 0.99 for p99. */
    double quantile(double q) const;

    /** Upper bound of bucket @p b. */
    double bucketBound(int b) const;

    /**
     * Bucket a finite, non-negative @p x lands in: 1 + floor(log(x/lo)
     * / log(growth)) as computed in doubles, 0 below lo, and the
     * overflow bucket from there on up.
     */
    int bucketOf(double x) const;

    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    /**
     * Fold another histogram into this one, bucket by bucket. Both must
     * share the exact bucket layout (lo, growth, bucket count) — a
     * mismatch is a caller bug (sim::fatal). Merging is commutative and
     * associative, so a fleet-wide merge is order-independent.
     */
    void merge(const Histogram &o);

    void reset();

  private:
    /** Bucket of @p x by the defining formula, 1 + log(x/lo)/log(g). */
    int bucketByFormula(double x) const;

    double lo_;
    double logGrowth_;
    /**
     * edges_[k] is the smallest double bucketByFormula() puts in bucket
     * k + 1, so bucketOf() is a binary search with no std::log per add.
     */
    std::vector<double> edges_;
    std::vector<std::uint64_t> counts_; // last entry = overflow
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    std::uint64_t nonFinite_ = 0;
};

} // namespace ida::stats
