/**
 * @file
 * Model-based test driver for the FTL.
 *
 * Replays a seeded op sequence against a live Ssd *and* a trivial
 * reference model of what an FTL must guarantee:
 *
 *  - read-your-writes: a read of data the host wrote (and has not
 *    trimmed) never takes the unmapped-read path, and a read of
 *    never-written data always does — checked exactly, by predicting
 *    the device's unmapped-read counter from the model;
 *  - mapping agreement: the reference map of which logical pages hold
 *    data matches the L2P table entry-for-entry at every drain point;
 *  - conservation and IDA mask validity: a cross-layer Auditor runs
 *    throughout (and at every drain point); any violation fails.
 *
 * The driver issues ops in submission order with strictly increasing
 * arrival times, so the model — which applies each op instantly — sees
 * exactly the state the device will have when the op dispatches (state
 * mutates synchronously at dispatch; flash commands carry timing only).
 *
 * Determinism: everything derives from ModelConfig::seed, so a failing
 * (seed, ops) pair is a complete reproducer; shrink by re-running with
 * a smaller `ops`.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "audit/auditor.hh"
#include "sim/rng.hh"
#include "ssd/ssd.hh"

namespace ida::testing {

/** One model run's parameters. */
struct ModelConfig
{
    std::uint64_t seed = 1;
    std::uint64_t ops = 10'000;
    /** Ops admitted between drain-and-validate points. */
    std::uint64_t batchOps = 250;
    /** Audit cadence in executed events (maybeRun during the drive). */
    std::uint64_t auditEvery = 1'800;
};

/** What a model run observed; the test asserts on these. */
struct ModelOutcome
{
    std::uint64_t opsIssued = 0;
    std::uint64_t modelFailures = 0;
    std::string firstFailure;
    std::uint64_t auditViolations = 0;
    std::uint64_t audits = 0;
    std::string auditSummary;
    std::uint64_t executedEvents = 0;
    std::uint64_t unmappedReads = 0; // predicted == observed when clean
    std::uint64_t refreshes = 0;
};

namespace detail {

class ModelDriver
{
  public:
    explicit ModelDriver(const ModelConfig &mc)
        : mc_(mc), rng_(mc.seed * 0x9e3779b97f4a7c15ull + 1)
    {
    }

    ModelOutcome run()
    {
        ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
        cfg.seed = mc_.seed;
        cfg.ftl.enableIda = true; // IDA wordlines feed the mask audit
        // ~500us between ops puts a 10k-op run at ~5 simulated
        // seconds; a 10s refresh period with preload ages spread over
        // it guarantees refresh-migration coverage.
        cfg.ftl.refreshPeriod = 10 * sim::kSec;
        cfg.ftl.refreshCheckInterval = sim::kSec;
        cfg.ftl.maxConcurrentRefresh = 2;
        // The model admits ops faster than the default-tuned GC hover
        // level can absorb (allocation happens at dispatch): give GC
        // enough free-block headroom per plane that a whole batch fits
        // between drain points.
        cfg.ftl.gcFreeThreshold = 6;

        ssd::Ssd ssd(cfg);
        ssd_ = &ssd;
        audit::Auditor auditor(ssd);
        auditor_ = &auditor;

        setup();
        ssd.start();

        while (outcome_.opsIssued < mc_.ops) {
            const std::uint64_t batch = std::min<std::uint64_t>(
                mc_.batchOps, mc_.ops - outcome_.opsIssued);
            admitBatch(batch);
            drain();
            auditor.runAll();
            validate();
            if (outcome_.modelFailures > 0)
                break; // a diverged model only compounds
        }

        outcome_.auditViolations = auditor.totalViolations();
        outcome_.audits = auditor.runs();
        outcome_.auditSummary = auditor.summary();
        outcome_.executedEvents = ssd.events().executed();
        outcome_.unmappedReads = predictedUnmapped_;
        outcome_.refreshes = ssd.ftl().stats().refresh.refreshes;
        ssd_ = nullptr;
        auditor_ = nullptr;
        return outcome_;
    }

  private:
    // ---- shared plumbing -------------------------------------------

    void fail(const std::string &what)
    {
        if (outcome_.modelFailures == 0)
            outcome_.firstFailure = what;
        ++outcome_.modelFailures;
    }

    template <typename... Ts> std::string cat(Ts &&...parts)
    {
        std::ostringstream os;
        (os << ... << parts);
        return os.str();
    }

    void admitBatch(std::uint64_t n)
    {
        // The previous drain may have run the event clock past our
        // submission clock; arrivals must never be in the past.
        clock_ = std::max(clock_, ssd_->events().now());
        for (std::uint64_t i = 0; i < n; ++i) {
            clock_ += rng_.uniformInt(100, 900) * sim::kUsec;
            ++outcome_.opsIssued;
            oneOp();
        }
    }

    void drain()
    {
        // Step by an amount incommensurate with the refresh-scan
        // cadence (refreshCheckInterval, a round second): a step of
        // exactly 1s would land every drained() check right on a scan
        // boundary, observing the refresh it just launched — forever,
        // on a device that is otherwise idle.
        const sim::Time step = sim::kSec + 3 * sim::kMsec;
        const sim::Time limit =
            std::max(ssd_->events().now(), clock_) + sim::kHour;
        while (!ssd_->drained() && ssd_->events().now() < limit) {
            ssd_->events().runUntil(ssd_->events().now() + step);
            auditor_->maybeRun(mc_.auditEvery);
        }
        if (!ssd_->drained())
            fail("device did not drain");
    }

    void validate()
    {
        validateMapping();
        const std::uint64_t observed =
            ssd_->ftl().stats().hostReadsUnmapped;
        if (observed != predictedUnmapped_)
            fail(cat("read-your-writes: device served ", observed,
                     " unmapped reads, the reference map predicts ",
                     predictedUnmapped_));
    }

    void setup()
    {
        footprint_ = ssd_->logicalPages() * 8 / 10;
        const std::uint64_t preloaded = footprint_ / 2;
        ssd_->preloadSequential(preloaded);
        mapped_.assign(footprint_, false);
        std::fill(mapped_.begin(),
                  mapped_.begin() +
                      static_cast<std::ptrdiff_t>(preloaded),
                  true);
    }

    void oneOp()
    {
        const double kind = rng_.uniform01();
        auto lpn = static_cast<flash::Lpn>(
            rng_.uniformInt(0, footprint_ - 1));
        ssd::HostRequest r;
        r.arrival = clock_;
        if (kind < 0.08) {
            r.isTrim = true;
            r.startPage = lpn;
            r.pageCount = 1;
            mapped_[lpn] = false;
            ssd_->submit(r);
            return;
        }
        r.isRead = kind < 0.5;
        r.pageCount =
            static_cast<std::uint32_t>(1 + rng_.uniformInt(0, 2));
        if (lpn + r.pageCount > footprint_)
            lpn = footprint_ - r.pageCount;
        r.startPage = lpn;
        for (std::uint32_t i = 0; i < r.pageCount; ++i) {
            if (r.isRead) {
                if (!mapped_[lpn + i])
                    ++predictedUnmapped_;
            } else {
                mapped_[lpn + i] = true;
            }
        }
        ssd_->submit(r);
    }

    void validateMapping()
    {
        const auto &map = ssd_->ftl().mapping();
        for (flash::Lpn lpn = 0; lpn < footprint_; ++lpn) {
            const bool dev = map.lookup(lpn) != flash::kInvalidPpn;
            if (dev != static_cast<bool>(mapped_[lpn])) {
                fail(cat("mapping: lpn ", lpn, " is ",
                         dev ? "mapped" : "unmapped",
                         ", the reference map says ",
                         mapped_[lpn] ? "mapped" : "unmapped"));
                return; // one is enough; they'd cascade
            }
        }
    }

    ModelConfig mc_;
    sim::Rng rng_;
    ssd::Ssd *ssd_ = nullptr;
    audit::Auditor *auditor_ = nullptr;
    ModelOutcome outcome_;
    sim::Time clock_{};

    // reference state
    std::uint64_t footprint_ = 0;
    std::vector<bool> mapped_;

    std::uint64_t predictedUnmapped_ = 0;
};

} // namespace detail

/** Run the model driver; see the file comment for what it asserts. */
inline ModelOutcome
runFtlModel(const ModelConfig &mc)
{
    return detail::ModelDriver(mc).run();
}

} // namespace ida::testing
