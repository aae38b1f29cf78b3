#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/log.hh"

namespace ida::stats {

Histogram::Histogram(double lo, double growth, int buckets)
    : lo_(lo), logGrowth_(std::log(growth)),
      counts_(static_cast<std::size_t>(buckets) + 1, 0)
{
    if (lo <= 0.0 || growth <= 1.0 || buckets < 1)
        sim::fatal("Histogram: need lo > 0, growth > 1, buckets >= 1");
    // Start each edge at its exact value, then walk it in ulps to the
    // formula's own boundary, so the search below reproduces the
    // formula's rounding sample for sample.
    const double inf = std::numeric_limits<double>::infinity();
    edges_.reserve(static_cast<std::size_t>(buckets));
    for (int k = 1; k <= buckets; ++k) {
        double e = lo * std::exp(logGrowth_ * static_cast<double>(k - 1));
        while (bucketByFormula(e) < k)
            e = std::nextafter(e, inf);
        while (e > lo && bucketByFormula(std::nextafter(e, 0.0)) >= k)
            e = std::nextafter(e, 0.0);
        edges_.push_back(e);
    }
}

int
Histogram::bucketByFormula(double x) const
{
    // The negated comparison also routes NaN into bucket 0, keeping the
    // cast below defined for any input.
    if (!(x >= lo_))
        return 0;
    const int last = static_cast<int>(counts_.size()) - 1;
    const double b = 1.0 + std::log(x / lo_) / logGrowth_;
    // +inf (and any huge sample) lands in the overflow bucket without
    // ever reaching an out-of-range float-to-int cast.
    if (!(b < static_cast<double>(last)))
        return last;
    return static_cast<int>(b);
}

int
Histogram::bucketOf(double x) const
{
    if (!(x >= lo_)) // below the first edge, or NaN
        return 0;
    // Count the edges <= x by a binary search whose step is a
    // conditional move: sample order gives a branch nothing to learn.
    const double *e = edges_.data();
    std::size_t n = edges_.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        e = e[half] <= x ? e + half : e;
        n -= half;
    }
    return static_cast<int>(e - edges_.data()) + (*e <= x ? 1 : 0);
}

void
Histogram::add(double x)
{
    if (std::isnan(x)) {
        ++nonFinite_;
        return;
    }
    if (std::isinf(x) && x > 0.0) {
        // Count the sample in the overflow bucket but keep it out of
        // sum_, which would otherwise poison mean() forever.
        ++nonFinite_;
        ++counts_.back();
        ++count_;
        return;
    }
    if (x < 0.0)
        x = 0.0; // clamps -inf too
    ++counts_[static_cast<std::size_t>(bucketOf(x))];
    ++count_;
    sum_ += x;
}

double
Histogram::bucketBound(int b) const
{
    return lo_ * std::exp(logGrowth_ * static_cast<double>(b));
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    // Nearest-rank: the quantile is sample #ceil(q * n) (1-based) of the
    // sorted data. The old floor/strict-greater form returned the bucket
    // of sample ceil(q*n)+1, so p99 of 100 samples reported the max.
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    target = std::min(std::max<std::uint64_t>(target, 1), count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        seen += counts_[b];
        if (seen >= target)
            return bucketBound(static_cast<int>(b));
    }
    return bucketBound(static_cast<int>(counts_.size()) - 1);
}

void
Histogram::merge(const Histogram &o)
{
    if (lo_ != o.lo_ || logGrowth_ != o.logGrowth_ ||
        counts_.size() != o.counts_.size())
        sim::fatal("Histogram::merge: bucket layouts differ");
    for (std::size_t b = 0; b < counts_.size(); ++b)
        counts_[b] += o.counts_[b];
    count_ += o.count_;
    sum_ += o.sum_;
    nonFinite_ += o.nonFinite_;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    nonFinite_ = 0;
}

} // namespace ida::stats
