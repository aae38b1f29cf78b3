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

#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace ida::sim {

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
     * for mt19937_64, without its per-call long-double setup.
     */
    double
    uniform01()
    {
        const double u = static_cast<double>(engine_()) * 0x1p-64;
        return u < 1.0 ? u : std::nextafter(1.0, 0.0);
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
     * Exponential variate with mean @p mean (> 0); the same arithmetic as
     * std::exponential_distribution with rate 1 / mean.
     */
    double
    exponential(double mean)
    {
        assert(mean > 0.0);
        // Workload-generation sampling, not event dispatch.
        // ida-lint: allow(IDA009)
        return -std::log(1.0 - uniform01()) / (1.0 / mean);
    }

    /**
     * Lognormal variate with the given arithmetic mean and sigma of the
     * underlying normal. Used for request-size distributions.
     */
    double lognormalMean(double mean, double sigma);

    /** Geometric number of extra trials with success probability p. */
    std::uint64_t geometric(double p);

    /** Access to the raw engine for std distributions. */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

/**
 * Zipf(s) sampler over ranks {0, .., n-1}; rank 0 is the most popular.
 *
 * Exact inverse-CDF sampling over a precomputed table: construction is
 * O(n), each draw is O(log n). Footprints in this simulator are at most
 * a few million pages, for which the table (8 bytes/rank) is cheap.
 * s = 0 degenerates to uniform; larger s is more skewed.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double s);

    /** Draw one rank in [0, n). */
    std::uint64_t operator()(Rng &rng) const;

    std::uint64_t size() const { return n_; }
    double skew() const { return s_; }

  private:
    std::uint64_t n_;
    double s_;
    std::vector<double> cdf_; // empty when s_ == 0 (uniform fast path)
};

} // namespace ida::sim
