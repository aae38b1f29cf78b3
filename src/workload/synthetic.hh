/**
 * @file
 * Synthetic MSR-Cambridge-substitute workload generator.
 *
 * The paper replays 11 read-intensive MSR Cambridge block traces
 * (Table III). Those traces are not redistributable here, so this
 * generator reproduces the characteristics the paper identifies as the
 * ones that matter (see DESIGN.md, substitution notes):
 *
 *  - read request ratio and read data ratio,
 *  - mean read/write request sizes (lognormal-distributed),
 *  - a Zipf-skewed read working set over the footprint,
 *  - a *differently*-skewed, partially-overlapping update working set,
 *    whose temporally scattered updates invalidate individual pages of
 *    wordlines and thereby create the LSB/CSB-invalid scenarios IDA
 *    exploits (paper Fig. 4),
 *  - bursty arrivals (hyperexponential gaps), which give the queueing
 *    behaviour behind the paper's indirect "I/O wait" benefit.
 *
 * Reads and writes map their Zipf rank to a page through two different
 * affine permutations of the footprint, so the read-hot and write-hot
 * sets overlap only partially, like independently measured workloads.
 */
#pragma once

#include <cstdint>

#include "sim/rng.hh"
#include "workload/trace.hh"

namespace ida::workload {

/** Generator parameters for one synthetic workload. */
struct SyntheticConfig
{
    /** Logical footprint in pages; requests stay inside it. */
    std::uint64_t footprintPages = 100'000;

    /** Fraction of *requests* that are reads (Table III col. 2). */
    double readRatio = 0.9;

    /** Mean read request size in pages (Table III col. 3 / 8KB). */
    double readSizePagesMean = 4.0;

    /** Mean write request size in pages. */
    double writeSizePagesMean = 2.0;

    /** Lognormal sigma of request sizes. */
    double sizeSigma = 0.8;

    /** Largest request in pages. */
    std::uint32_t maxRequestPages = 64;

    /** Zipf skew of read addresses. */
    double readZipf = 0.9;

    /** Zipf skew of update (write) addresses. */
    double writeZipf = 1.05;

    /**
     * Updates land in the last `writeRegionFraction` of the footprint
     * (1.0 = anywhere). Server-style workloads update a subset of the
     * data while the read-hot remainder stays immutable.
     */
    double writeRegionFraction = 1.0;

    /** Total number of requests to generate. */
    std::uint64_t totalRequests = 200'000;

    /** Trace duration; arrivals pace to totalRequests over it. */
    sim::Time duration = 4 * sim::kHour;

    /**
     * Burstiness: fraction of gaps drawn from the short mode of the
     * hyperexponential (0 = pure Poisson).
     */
    double burstFraction = 0.85;

    /** Short-mode gap mean as a fraction of the overall mean gap. */
    double burstGapScale = 0.02;

    /**
     * Make each burst homogeneous (all reads or all writes). The MSR
     * Cambridge traces come from write-off-loaded servers where writes
     * arrive as batched flushes separate from read bursts; mixing 2.3 ms
     * programs into read bursts would put every read behind a program.
     */
    bool segregateBursts = true;

    /**
     * Fraction of requests converted into TRIMs of their address range
     * (0 = none, the page-granular classic). Trims deallocate data the
     * host no longer needs — the invalidity source the sector-mask
     * ablation feeds on.
     */
    double trimFraction = 0.0;

    /**
     * Fraction of requests narrowed to a sub-page sector range on a
     * single page (0 = none). Models the small metadata/log I/O that
     * partially overwrites or deallocates flash pages.
     */
    double subPageFraction = 0.0;

    /** Sectors per page for sub-page narrowing (match the geometry). */
    std::uint32_t sectorsPerPage = 16;

    /** Generator seed (independent of the device seed). */
    std::uint64_t seed = 1;
};

/** Streaming synthetic trace. */
class SyntheticTrace : public TraceStream
{
  public:
    explicit SyntheticTrace(const SyntheticConfig &cfg);

    bool next(IoRequest &out) override;

    const SyntheticConfig &config() const { return cfg_; }

  private:
    std::uint64_t permute(std::uint64_t rank, std::uint64_t mult,
                          std::uint64_t add) const;
    std::uint32_t sampleSize(double mu);

    SyntheticConfig cfg_;
    sim::Rng rng_;
    sim::ZipfSampler readZipf_;
    sim::ZipfSampler writeZipf_;
    std::uint64_t readMult_, readAdd_;
    std::uint64_t writeMult_, writeAdd_;
    double readSizeMu_, writeSizeMu_; // lognormal mu of the size draws
    std::uint64_t emitted_ = 0;
    double clock_ = 0.0;   // ns, double to accumulate fractional gaps
    double meanGap_;       // ns
    double longGapMean_;   // ns
    double shortGapMean_;  // ns
    bool burstIsRead_ = true;
};

} // namespace ida::workload
