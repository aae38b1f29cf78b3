#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace ida::stats {

Histogram::Histogram(double lo, double growth, int buckets)
    : lo_(lo), logGrowth_(std::log(growth)),
      counts_(static_cast<std::size_t>(buckets) + 1, 0)
{
    if (lo <= 0.0 || growth <= 1.0 || buckets < 1)
        sim::fatal("Histogram: need lo > 0, growth > 1, buckets >= 1");
}

int
Histogram::bucketOf(double x) const
{
    // The negated comparison also routes NaN into bucket 0, keeping the
    // cast below defined for any input.
    if (!(x >= lo_))
        return 0;
    const int last = static_cast<int>(counts_.size()) - 1;
    // ida-lint: allow(IDA009) add() calls this only for a new sample
    const double b = 1.0 + std::log(x / lo_) / logGrowth_;
    // +inf (and any huge sample) lands in the overflow bucket without
    // ever reaching an out-of-range float-to-int cast.
    if (!(b < static_cast<double>(last)))
        return last;
    return static_cast<int>(b);
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
    if (x != lastX_) {
        lastX_ = x;
        lastBucket_ = bucketOf(x);
    }
    ++counts_[static_cast<std::size_t>(lastBucket_)];
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
