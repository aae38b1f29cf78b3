/**
 * @file
 * Deterministic random-number utilities for workload generation and the
 * stochastic device models (voltage-adjust disturbance, read retry).
 *
 * Every stochastic component takes an explicit Rng so experiments are
 * reproducible from a single seed and so baseline/IDA runs can be fed
 * identical request streams.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ida::sim {

/**
 * MT19937-64 (Matsumoto & Nishimura): the same seeding and the same
 * output sequence as std::mt19937_64, with a branch-free refill (the
 * twist constant is applied through a mask built from the low bit).
 * A UniformRandomBitGenerator, so std distributions see the same draws.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937_64(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type
    operator()()
    {
        if (pos_ == kN)
            refill();
        std::uint64_t z = state_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        return z;
    }

  private:
    static constexpr std::size_t kN = 312; // state words
    static constexpr std::size_t kM = 156; // twist offset

    void refill();

    std::array<std::uint64_t, kN> state_{};
    std::size_t pos_ = kN;
};

/**
 * A seeded random source with the distributions the simulator needs.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /**
     * Uniform real in [0, 1). One 64-bit draw scaled by 2^-64 and clamped
     * below 1 — exactly what std::generate_canonical<double, 53> computes
     * for a 64-bit engine, without its per-call long-double setup.
     */
    double uniform01() { return toUnit(engine_()); }

    /**
     * double(x) * 2^-64, clamped below 1. double(x) is formed from two
     * signed conversions: both halves and hi * 2^32 are exact, so the
     * one rounded add equals the round-to-nearest unsigned conversion
     * for every x, without its top-bit branch. min() maps a rounded-up
     * 1.0 to 1 - 2^-53, the largest double below 1, and leaves every
     * u < 1 unchanged.
     */
    static double
    toUnit(std::uint64_t x)
    {
        const auto hi = static_cast<double>(static_cast<std::int64_t>(x >> 32));
        const auto lo =
            static_cast<double>(static_cast<std::int64_t>(x & 0xffffffffu));
        return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform01() < p;
    }

    /**
     * Exponential variate with mean @p mean (>= 0; 0 gives 0); the same
     * arithmetic as std::exponential_distribution with rate 1 / mean.
     */
    double
    exponential(double mean)
    {
        assert(mean >= 0.0);
        return -std::log(1.0 - uniform01()) / (1.0 / mean);
    }

    /**
     * Lognormal variate exp(mu + sigma * N(0, 1)): draw for draw what a
     * fresh std::lognormal_distribution(mu, sigma) returns (libstdc++'s
     * polar method, its second normal discarded).
     */
    double lognormal(double mu, double sigma);

    /** The mu that gives a lognormal of arithmetic mean @p mean. */
    static double
    lognormalMu(double mean, double sigma)
    {
        assert(mean > 0.0);
        return std::log(mean) - 0.5 * sigma * sigma;
    }

    /**
     * Lognormal variate with the given arithmetic mean and sigma of the
     * underlying normal.
     */
    double
    lognormalMean(double mean, double sigma)
    {
        return lognormal(lognormalMu(mean, sigma), sigma);
    }

  private:
    Mt19937_64 engine_;
};

/**
 * Zipf(s) sampler over ranks {0, .., n-1}; rank 0 is the most popular.
 *
 * Exact inverse-CDF sampling over a precomputed table (8 bytes/rank),
 * searched through a Chen–Asau guide table: guide[j] is the first rank
 * whose CDF reaches j / m, so a draw u starts at guide[floor(u * m)] and
 * scans forward to the first rank with cdf >= u — the rank lower_bound
 * returns. m, the largest power of two <= max(1, n / 4), makes u * m
 * exact and keeps the guide at 1/8 of the CDF's bytes; a draw scans
 * n / (2m), 2 to 4, ranks past its start on average.
 * s = 0 degenerates to uniform; larger s is more skewed.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double s);

    /** Draw one rank in [0, n). */
    std::uint64_t
    operator()(Rng &rng) const
    {
        if (n_ == 1)
            return 0;
        if (cdf_.empty())
            return rng.uniformInt(0, n_ - 1);
        return rankOf(rng.uniform01());
    }

    /** The first rank whose CDF reaches @p u in [0, 1); needs s > 0. */
    std::uint64_t
    rankOf(double u) const
    {
        std::uint64_t k = guide_[static_cast<std::size_t>(u * guideSize_)];
        while (cdf_[k] < u)
            ++k;
        return k;
    }

    std::uint64_t size() const { return n_; }
    double skew() const { return s_; }

    /** The CDF table; empty when s = 0. */
    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::uint64_t n_;
    double s_;
    std::vector<double> cdf_;          // empty when s_ == 0 (uniform)
    std::vector<std::uint32_t> guide_; // Chen–Asau index into cdf_
    double guideSize_ = 0.0;           // guide_.size(), a power of two
};

} // namespace ida::sim
