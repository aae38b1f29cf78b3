#include "workload/runner.hh"

#include <algorithm>
#include <chrono>

#include "sim/log.hh"
#include "trace/recorder.hh"

namespace ida::workload {

double
RunResult::normalizedReadResp(const RunResult &base) const
{
    if (base.readRespUs <= 0.0)
        return 0.0;
    return readRespUs / base.readRespUs;
}

double
RunResult::readImprovement(const RunResult &base) const
{
    return 1.0 - normalizedReadResp(base);
}

namespace {

/** Staging buffer cap: the runner's own copy stays small on long traces. */
constexpr std::size_t kSubmitBatch = 256;

/**
 * @p req as a host request arriving at @p arrival, its page range
 * clamped into the preloaded @p footprint so every read is mapped.
 */
ssd::HostRequest
toHostRequest(const IoRequest &req, sim::Time arrival,
              std::uint64_t footprint)
{
    ssd::HostRequest hr;
    hr.arrival = arrival;
    hr.isRead = req.isRead;
    hr.isTrim = req.isTrim;
    hr.startSector = req.startSector;
    hr.sectorCount = req.sectorCount;
    hr.startPage = footprint > 0 ? req.startPage % footprint : 0;
    hr.pageCount = req.pageCount;
    if (hr.startPage + hr.pageCount > footprint)
        hr.startPage = footprint - std::min<std::uint64_t>(
            hr.pageCount, footprint);
    return hr;
}

void
flushBatch(ssd::Ssd &ssd, std::vector<ssd::HostRequest> &batch)
{
    if (batch.empty())
        return;
    ssd.submitBatch(batch);
    batch.clear();
}

RunResult
runStream(const ssd::SsdConfig &device, TraceStream &trace,
          std::uint64_t footprint_pages, sim::Time refresh_period,
          double warmup_fraction, sim::Time duration_hint,
          const std::string &label, const WorkloadPreset *pre_age = nullptr)
{
    const auto wall0 = std::chrono::steady_clock::now();

    ssd::SsdConfig cfg = device;
    setRunKnobs(cfg.ftl, refresh_period, warmup_fraction, duration_hint);
    ssd::Ssd ssd(cfg);

    const std::uint64_t footprint =
        clampFootprint(footprint_pages, ssd.logicalPages());
    ssd.preloadSequential(footprint);
    if (pre_age)
        preAge(*pre_age, footprint, ssd.ftl());

    // Feed the whole trace up front in submitBatch calls. The device
    // parks future arrivals in its arrival FIFO, so the event queue
    // holds one arrival event rather than the trace, and a same-tick
    // burst (common in block traces) is dispatched by one event.
    sim::Time last_arrival{};
    IoRequest req;
    std::vector<ssd::HostRequest> batch;
    batch.reserve(kSubmitBatch);
    while (trace.next(req)) {
        ssd::HostRequest hr = toHostRequest(req, req.arrival, footprint);
        last_arrival = std::max(last_arrival, hr.arrival);
        // Flush on a new arrival tick (keeps runs whole) or at the
        // buffer cap, so memory stays bounded on huge traces.
        if (!batch.empty() && (batch.back().arrival != hr.arrival ||
                               batch.size() >= kSubmitBatch))
            flushBatch(ssd, batch);
        batch.push_back(std::move(hr));
    }
    flushBatch(ssd, batch);

    const sim::Time horizon = std::max(duration_hint, last_arrival);
    const sim::Time measure_start = warmup_fraction * horizon;
    ssd.setMeasureStart(measure_start);
    ssd.events().schedule(measure_start, [&ssd] {
        ssd.ftl().resetReadClassification();
    });
    ssd.start();

    // Run to the horizon, then drain outstanding traffic (bounded).
    ssd.events().runUntil(horizon);
    const sim::Time drain_limit = horizon + 10 * sim::kMin;
    while (!ssd.drained() && ssd.events().now() < drain_limit)
        ssd.events().runUntil(ssd.events().now() + sim::kSec);
    if (!ssd.drained())
        sim::warn("runner: device did not drain within the limit");

    RunResult r = harvestResult(ssd, label, footprint);
    r.traceMalformedLines = trace.malformedLines();
    r.traceOutOfOrderLines = trace.outOfOrderLines();
    r.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();
    return r;
}

} // namespace

RunResult
harvestResult(const ssd::Ssd &ssd, const std::string &workload_label,
              std::uint64_t footprint_pages)
{
    RunResult r;
    r.workload = workload_label;
    r.system = ssd.config().systemLabel();
    const ssd::SsdStats &st = ssd.stats();
    r.readRespUs = st.readResponseUs.mean();
    r.readP99Us = st.readHist.quantile(0.99);
    r.writeRespUs = st.writeResponseUs.mean();
    r.throughputMBps = st.readThroughputMBps();
    r.measuredReads = st.readRequests;
    r.measuredWrites = st.writeRequests;
    r.ftl = ssd.ftl().stats();
    r.chip = ssd.chips().stats();
    r.wear = ftl::captureWear(ssd.chips());
    r.trimRequests = st.trimRequests;
    r.pastSchedules = ssd.events().pastSchedules();
    r.partialValidPages = ssd.ftl().countPartialValidPages();
    r.idaEligibleWordlines = ssd.ftl().countIdaEligibleWordlines();
    if (ssd.tracer())
        r.attribution = ssd.tracer()->summary();
    r.cache = ssd.ftl().readCacheStats();
    r.inUseBlocksEnd = ssd.ftl().blocks().inUseBlocks();
    r.totalBlocks = ssd.config().geometry.blocks();
    r.footprintPages = footprint_pages;
    r.simulatedTime = ssd.events().now();
    return r;
}

void
setRunKnobs(ftl::FtlConfig &ftl, sim::Time refresh_period,
            double warmup_fraction, sim::Time duration)
{
    ftl.refreshPeriod = refresh_period;
    ftl.refreshCheckInterval =
        std::max<sim::Time>(refresh_period / 64, sim::kSec);
    if (duration > sim::Time{}) {
        // Preloaded (pre-trace) data becomes refresh-eligible during the
        // warm-up window, so the measured window sees the steady state
        // the paper measures: resident data already refreshed once.
        ftl.preloadAgeSpread =
            std::max(warmup_fraction * duration, sim::kSec);
    }
}

std::uint64_t
clampFootprint(std::uint64_t pages, std::uint64_t logical_pages)
{
    return std::min<std::uint64_t>(
        pages, static_cast<std::uint64_t>(
                   0.7 * static_cast<double>(logical_pages)));
}

RunResult
runPreset(const ssd::SsdConfig &device, const WorkloadPreset &preset)
{
    SyntheticTrace trace(preset.synth);
    return runStream(device, trace, preset.synth.footprintPages,
                     preset.refreshPeriod, preset.warmupFraction,
                     preset.synth.duration, preset.name, &preset);
}

RunResult
runTrace(const ssd::SsdConfig &device, TraceStream &trace,
         std::uint64_t footprint_pages, sim::Time refresh_period,
         double warmup_fraction, const std::string &label)
{
    return runStream(device, trace, footprint_pages, refresh_period,
                     warmup_fraction, sim::Time{}, label);
}

RunResult
runClosedLoop(const ssd::SsdConfig &device, const WorkloadPreset &preset,
              int queue_depth)
{
    const auto wall0 = std::chrono::steady_clock::now();

    ssd::SsdConfig cfg = device;
    setRunKnobs(cfg.ftl, preset.refreshPeriod, 0.0, sim::Time{});
    // At saturation the run is short; age everything so refreshes (and
    // their IDA adjustments) happen during the warm-up portion.
    cfg.ftl.preloadAgeSpread = sim::kSec;
    ssd::Ssd ssd(cfg);

    SyntheticTrace trace(preset.synth);
    const std::uint64_t footprint =
        clampFootprint(preset.synth.footprintPages, ssd.logicalPages());
    ssd.preloadSequential(footprint);
    preAge(preset, footprint, ssd.ftl());
    ssd.start();

    // Preparation: a saturation run lasts only seconds of simulated
    // time, far less than a refresh scan interval — so complete the
    // initial refresh wave (which IDA-codes the resident data) before
    // any traffic is offered. The wave is done when no job is running
    // and no *first-time* candidate remains (IDA blocks re-expire a
    // full period later, long after the run ends).
    const sim::Time prep_limit = 30ll * 24 * sim::kHour;
    for (;;) {
        ssd.events().runUntil(ssd.events().now() + 10 * sim::kSec);
        bool fresh_candidates = false;
        for (flash::BlockId b : ssd.ftl().blocks().refreshCandidates(
                 ssd.events().now(), cfg.ftl.refreshPeriod)) {
            if (!ssd.ftl().blocks().meta(b).forceMigrateNextRefresh()) {
                fresh_candidates = true;
                break;
            }
        }
        if ((ssd.ftl().quiescent() && !fresh_candidates) ||
            ssd.events().now() > prep_limit) {
            break;
        }
    }

    const std::uint64_t warm = static_cast<std::uint64_t>(
        preset.warmupFraction *
        static_cast<double>(preset.synth.totalRequests));
    std::uint64_t submitted = 0;
    bool exhausted = false;

    // Self-sustaining pump: each completion submits the next request.
    std::function<void(sim::Time)> pump = [&](sim::Time) {
        IoRequest r;
        if (!trace.next(r)) {
            exhausted = true;
            return;
        }
        if (submitted == warm) {
            const sim::Time t0 = ssd.events().now();
            ssd.setMeasureStart(t0);
            ssd.ftl().resetReadClassification();
        }
        ++submitted;
        ssd::HostRequest hr =
            toHostRequest(r, ssd.events().now(), footprint);
        hr.onComplete = pump;
        ssd.submit(hr);
    };
    for (int i = 0; i < queue_depth; ++i)
        pump(sim::Time{});

    const sim::Time limit = 30ll * 24 * sim::kHour;
    while (!(exhausted && ssd.drained()) && ssd.events().now() < limit) {
        if (ssd.events().empty())
            break;
        ssd.events().runUntil(ssd.events().now() + sim::kSec);
    }

    RunResult r = harvestResult(ssd, preset.name, footprint);
    r.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();
    return r;
}

} // namespace ida::workload
