#include "workload/synthetic.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "sim/log.hh"

namespace ida::workload {

namespace {

/** Find a multiplier coprime to n, starting from a large odd seed. */
std::uint64_t
coprimeMult(std::uint64_t n, std::uint64_t start)
{
    std::uint64_t m = start | 1;
    while (std::gcd(m % n, n) != 1)
        m += 2;
    return m % n;
}

/**
 * @p cfg if it keeps the stream's contract, else a fatal error naming
 * the knob. Runs before any member is built: the Zipf samplers size
 * their tables from the footprint.
 */
const SyntheticConfig &
validated(const SyntheticConfig &cfg)
{
    if (cfg.footprintPages == 0 || cfg.totalRequests == 0)
        sim::fatal("SyntheticConfig: footprint and request count must be "
                   "nonzero");
    // permute() computes rank * mult + add in 64 bits, with all three
    // below the footprint.
    if (cfg.footprintPages > flash::kMaxPages)
        sim::fatal("SyntheticConfig: footprintPages must be at most " +
                   std::to_string(flash::kMaxPages));
    if (cfg.maxRequestPages < 1 || cfg.maxRequestPages > cfg.footprintPages)
        sim::fatal("SyntheticConfig: maxRequestPages must be in [1, "
                   "footprintPages]");
    if (cfg.readRatio < 0.0 || cfg.readRatio > 1.0)
        sim::fatal("SyntheticConfig: readRatio must be in [0, 1]");
    if (!(cfg.readSizePagesMean > 0.0 && cfg.writeSizePagesMean > 0.0))
        sim::fatal("SyntheticConfig: readSizePagesMean and "
                   "writeSizePagesMean must be > 0");
    if (cfg.writeRegionFraction <= 0.0 || cfg.writeRegionFraction > 1.0)
        sim::fatal("SyntheticConfig: writeRegionFraction must be in "
                   "(0, 1]");
    if (cfg.burstFraction < 0.0 || cfg.burstFraction > 1.0)
        sim::fatal("SyntheticConfig: burstFraction must be in [0, 1]");
    if (cfg.burstGapScale < 0.0)
        sim::fatal("SyntheticConfig: burstGapScale must be >= 0");
    // The long-mode gap mean, (1 - burstFraction * burstGapScale) *
    // meanGap / (1 - burstFraction), must not go negative.
    if (cfg.burstFraction * cfg.burstGapScale > 1.0)
        sim::fatal("SyntheticConfig: burstFraction * burstGapScale must "
                   "be <= 1");
    if (cfg.trimFraction < 0.0 || cfg.trimFraction > 1.0)
        sim::fatal("SyntheticConfig: trimFraction must be in [0, 1]");
    if (cfg.subPageFraction < 0.0 || cfg.subPageFraction > 1.0)
        sim::fatal("SyntheticConfig: subPageFraction must be in [0, 1]");
    if (cfg.subPageFraction > 0.0 &&
        (cfg.sectorsPerPage < 2 ||
         cfg.sectorsPerPage > flash::kMaxSectorsPerPage))
        sim::fatal("SyntheticConfig: sectorsPerPage must be in [2, 16] "
                   "when sub-page requests are enabled");
    return cfg;
}

} // namespace

SyntheticTrace::SyntheticTrace(const SyntheticConfig &cfg)
    : cfg_(validated(cfg)), rng_(cfg.seed),
      readZipf_(cfg.footprintPages, cfg.readZipf),
      writeZipf_(std::max<std::uint64_t>(
                     1, static_cast<std::uint64_t>(
                            static_cast<double>(cfg.footprintPages) *
                            cfg.writeRegionFraction)),
                 cfg.writeZipf),
      readSizeMu_(sim::Rng::lognormalMu(cfg.readSizePagesMean,
                                        cfg.sizeSigma)),
      writeSizeMu_(sim::Rng::lognormalMu(cfg.writeSizePagesMean,
                                         cfg.sizeSigma))
{
    readMult_ = coprimeMult(cfg_.footprintPages, 0x9E3779B97F4A7C15ull);
    readAdd_ = 0x2545F4914F6CDD1Dull % cfg_.footprintPages;
    writeMult_ = coprimeMult(cfg_.footprintPages, 0xC2B2AE3D27D4EB4Full);
    writeAdd_ = 0xD6E8FEB86659FD93ull % cfg_.footprintPages;

    meanGap_ = static_cast<double>(cfg_.duration.count()) /
               static_cast<double>(cfg_.totalRequests);
    // Hyperexponential mixture preserving the overall mean:
    // p_b * short + (1 - p_b) * long = meanGap.
    shortGapMean_ = meanGap_ * cfg_.burstGapScale;
    const double pb = cfg_.burstFraction;
    // validated() bounds pb * burstGapScale by 1; max() absorbs the
    // rounding at that bound.
    longGapMean_ = std::max(0.0, (meanGap_ - pb * shortGapMean_) /
                                     std::max(1.0 - pb, 1e-9));
}

std::uint64_t
SyntheticTrace::permute(std::uint64_t rank, std::uint64_t mult,
                        std::uint64_t add) const
{
    // Affine permutation of Z_footprint: bijective since gcd(mult, n)=1.
    const std::uint64_t n = cfg_.footprintPages;
    // Exact in 64 bits: rank, mult, add < n <= kMaxPages < 2^32.
    return (rank * mult + add) % n;
}

std::uint32_t
SyntheticTrace::sampleSize(double mu)
{
    const double v = rng_.lognormal(mu, cfg_.sizeSigma);
    auto pages = static_cast<std::uint32_t>(std::llround(v));
    pages = std::clamp<std::uint32_t>(pages, 1, cfg_.maxRequestPages);
    return pages;
}

bool
SyntheticTrace::next(IoRequest &out)
{
    if (emitted_ >= cfg_.totalRequests)
        return false;
    ++emitted_;

    const bool in_burst = rng_.chance(cfg_.burstFraction);
    const double gap = in_burst ? rng_.exponential(shortGapMean_)
                                : rng_.exponential(longGapMean_);
    clock_ += gap;
    out.arrival = sim::Time{static_cast<std::int64_t>(clock_)};

    if (cfg_.segregateBursts) {
        // A long gap starts a new burst, which draws a fresh type; the
        // whole burst keeps it (batched flushes vs. read runs).
        if (!in_burst || emitted_ == 1)
            burstIsRead_ = rng_.chance(cfg_.readRatio);
        out.isRead = burstIsRead_;
    } else {
        out.isRead = rng_.chance(cfg_.readRatio);
    }
    const bool read = out.isRead;
    std::uint64_t page;
    if (read) {
        page = permute(readZipf_(rng_), readMult_, readAdd_);
    } else {
        // Updates are confined to the tail writeRegionFraction of the
        // footprint (reads cover everything).
        const std::uint64_t region = writeZipf_.size();
        const std::uint64_t base = cfg_.footprintPages - region;
        page = base +
               permute(writeZipf_(rng_), writeMult_, writeAdd_) % region;
    }
    out.pageCount = sampleSize(read ? readSizeMu_ : writeSizeMu_);
    // Keep the request inside the footprint.
    if (page + out.pageCount > cfg_.footprintPages) {
        out.startPage = cfg_.footprintPages - out.pageCount;
    } else {
        out.startPage = page;
    }

    // Sector-granularity extensions. The draws below are appended at
    // the end and strictly guarded by the > 0.0 checks (chance()
    // consumes a draw), so the default page-granular configuration
    // replays a byte-identical request stream.
    out.isTrim = false;
    out.startSector = 0;
    out.sectorCount = 0;
    if (cfg_.trimFraction > 0.0 && rng_.chance(cfg_.trimFraction))
        out.isTrim = true;
    if (cfg_.subPageFraction > 0.0 && rng_.chance(cfg_.subPageFraction)) {
        const std::uint32_t spp = cfg_.sectorsPerPage;
        out.pageCount = 1;
        const auto start =
            static_cast<std::uint32_t>(rng_.uniformInt(0, spp - 1));
        auto count = static_cast<std::uint32_t>(
            1 + rng_.uniformInt(0, spp - start - 1));
        if (start == 0 && count == spp)
            count = spp - 1; // keep it genuinely sub-page
        out.startSector = start;
        out.sectorCount = count;
    }
    return true;
}

} // namespace ida::workload
