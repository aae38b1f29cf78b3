#include "sim/rng.hh"

#include <bit>
#include <random>

namespace ida::sim {

Mt19937_64::Mt19937_64(std::uint64_t seed)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
        const std::uint64_t prev = state_[i - 1];
        state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }
}

void
Mt19937_64::refill()
{
    // y joins the top 33 bits of one word with the low 31 of the next;
    // the twist constant applies when y is odd. (0 - (y & 1)) is all
    // ones exactly then, so the mask selects it without a branch.
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    constexpr std::uint64_t kA = 0xb5026f5aa96619e9ull;
    auto twist = [this](std::size_t k, std::size_t next, std::size_t far) {
        const std::uint64_t y =
            (state_[k] & kUpper) | (state_[next] & ~kUpper);
        state_[k] = state_[far] ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
    };
    std::size_t k = 0;
    for (; k < kN - kM; ++k)
        twist(k, k + 1, k + kM);
    for (; k < kN - 1; ++k)
        twist(k, k + 1, k + kM - kN);
    twist(kN - 1, 0, kM - 1);
    pos_ = 0;
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    assert(lo <= hi);
    std::uniform_int_distribution<std::uint64_t> d(lo, hi);
    return d(engine_);
}

double
Rng::lognormal(double mu, double sigma)
{
    // libstdc++'s normal_distribution (Marsaglia polar method) and
    // lognormal_distribution, operation for operation.
    double x, y, r2;
    do {
        x = 2.0 * uniform01() - 1.0;
        y = 2.0 * uniform01() - 1.0;
        r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double normal = y * std::sqrt(-2 * std::log(r2) / r2);
    return std::exp(sigma * normal + mu);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s)
{
    assert(n >= 1 && n <= std::uint64_t{1} << 32);
    if (s_ <= 0.0)
        return; // uniform fast path, no table needed
    cdf_.resize(n_);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < n_; ++k) {
        // Construction-time CDF build, amortized over every draw.
        sum += std::pow(static_cast<double>(k + 1), -s_);
        cdf_[k] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
    cdf_.back() = 1.0;

    // guide_[j] = the first rank with cdf >= j / m: one forward sweep,
    // since both j / m and the CDF increase.
    guide_.resize(std::bit_floor(std::max<std::uint64_t>(1, n_ / 4)));
    guideSize_ = static_cast<double>(guide_.size());
    std::uint32_t k = 0;
    for (std::size_t j = 0; j < guide_.size(); ++j) {
        const double lo = static_cast<double>(j) / guideSize_;
        while (cdf_[k] < lo)
            ++k;
        guide_[j] = k;
    }
}

} // namespace ida::sim
