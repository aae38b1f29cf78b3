#include "sim/rng.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ida::sim {

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    assert(lo <= hi);
    std::uniform_int_distribution<std::uint64_t> d(lo, hi);
    return d(engine_);
}

double
Rng::lognormalMean(double mean, double sigma)
{
    assert(mean > 0.0);
    // Choose mu so the arithmetic mean of the lognormal equals `mean`.
    // Workload-generation sampling, not event dispatch.
    // ida-lint: allow(IDA009)
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    std::lognormal_distribution<double> d(mu, sigma);
    return d(engine_);
}

std::uint64_t
Rng::geometric(double p)
{
    if (p >= 1.0 || p <= 0.0)
        return 0;
    std::geometric_distribution<std::uint64_t> d(p);
    return d(engine_);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s)
{
    assert(n >= 1);
    if (s_ <= 0.0)
        return; // uniform fast path, no table needed
    cdf_.resize(n_);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < n_; ++k) {
        // Construction-time CDF build, amortized over every draw.
        // ida-lint: allow(IDA009)
        sum += std::pow(static_cast<double>(k + 1), -s_);
        cdf_[k] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
    cdf_.back() = 1.0;
}

std::uint64_t
ZipfSampler::operator()(Rng &rng) const
{
    if (n_ == 1)
        return 0;
    if (cdf_.empty())
        return rng.uniformInt(0, n_ - 1);
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(it - cdf_.begin());
}

} // namespace ida::sim
