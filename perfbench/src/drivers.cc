#include "drivers.hh"

#include <algorithm>
#include <ctime>
#include <memory>

#include "workload/runner.hh"
#include "workload/synthetic.hh"

namespace perfbench {

using namespace ida;

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig10_read", "mixed_gc", "mix_openloop", "fleet16"};
    return names;
}

namespace {

/** The paper's IDA-E20 TLC system (Sec. IV-C). */
ssd::SsdConfig
idaE20(ssd::SsdConfig cfg)
{
    cfg.ftl.enableIda = true;
    cfg.adjustErrorRate = 0.20;
    return cfg;
}

} // namespace

bool
makeWorkload(const std::string &name, std::uint64_t workload_seed,
             std::uint64_t device_seed, double scale, Workload &w)
{
    w = Workload{};
    w.name = name;
    if (name == "fig10_read" || name == "mixed_gc") {
        // Fig. 10's closed loop on its device, page mode, no DRAM tiers.
        w.loop = Loop::Closed;
        w.device = idaE20(ssd::SsdConfig::paperTlc());
        w.device.ftl.sectorMode = false;
        w.preset = workload::scaled(
            workload::presetByName(name == "fig10_read" ? "proj_1"
                                                        : "src1_0"),
            scale);
    } else if (name == "mix_openloop") {
        // The sector/cache mix replayed on its arrival schedule, with a
        // refresh period short enough that refresh and IDA adjusts run
        // inside the measured window.
        w.loop = Loop::Open;
        w.device = idaE20(ssd::SsdConfig::paperTlc());
        w.device.ftl.sectorMode = true;
        w.device.ftl.writeBuffer.capacityPages = 128;
        w.device.ftl.readCache.capacityPages = 4096;
        w.preset =
            workload::scaled(workload::presetByName("fig10-mix"), scale);
        w.preset.refreshPeriod = w.preset.synth.duration / 4;
    } else if (name == "fleet16") {
        // The fleet_throughput shape at one shard.
        w.loop = Loop::Fleet;
        fleet::FleetConfig &fc = w.fleet;
        fc.device = idaE20(ssd::SsdConfig::tiny());
        fc.devices = 16;
        fc.stripePages = 8;
        fc.shards = 1;
        fc.epoch = 50 * sim::kMsec;
        workload::WorkloadPreset &p = w.preset;
        p.name = name;
        p.synth.footprintPages = std::uint64_t{fc.devices} * 600;
        p.synth.readRatio = 0.9;
        p.warmupFraction = 0.25;
        // Requests, duration and refresh period scale together; the
        // footprint is bound by the fleet's capacity, so pre-aging
        // keeps its absolute depth, as workload::scaled arranges.
        p.synth.totalRequests = std::max<std::uint64_t>(
            1000, static_cast<std::uint64_t>(60'000 * scale));
        p.synth.duration = std::max(sim::kMin, 30 * sim::kMin * scale);
        p.refreshPeriod = std::max(sim::kMin, 2 * sim::kMin * scale);
        p.prewriteFraction = 0.3 / scale;
    } else {
        return false;
    }
    w.preset.synth.seed = workload_seed;
    if (w.loop == Loop::Fleet)
        w.fleet.fleetSeed = device_seed;
    else
        w.device.seed = device_seed;
    return true;
}

namespace {

/** Flat run-window counters summed over the device(s). */
struct Counters
{
    std::uint64_t reads = 0, programs = 0, erases = 0, adjusts = 0;
    std::uint64_t retryRounds = 0, sensing = 0, sensingConv = 0;
    std::uint64_t sensingSaved = 0;
    double dieBusyNs = 0.0, channelBusyNs = 0.0;
    std::uint64_t gcInvocations = 0, gcErases = 0, gcMigrated = 0;
    std::uint64_t refreshJobs = 0, adjustedWordlines = 0;
    std::uint64_t refreshExtraReads = 0, refreshExtraWrites = 0;
    std::uint64_t rmwReads = 0, rmwRetries = 0;
    std::uint64_t cacheHits = 0, cacheMisses = 0, cacheEvictions = 0;
    std::uint64_t events = 0;

    void
    add(const ssd::Ssd &s, int sign)
    {
        const auto f = [sign](std::uint64_t &acc, std::uint64_t v) {
            acc = sign > 0 ? acc + v : acc - v;
        };
        const flash::ChipStats &c = s.chips().stats();
        f(reads, c.reads);
        f(programs, c.programs);
        f(erases, c.erases);
        f(adjusts, c.adjusts);
        f(retryRounds, c.retrySenseRounds);
        f(sensing, c.sensingOps);
        f(sensingConv, c.sensingOpsConventional);
        f(sensingSaved, c.sensingOpsSaved);
        dieBusyNs += sign * static_cast<double>(c.dieBusy.count());
        channelBusyNs += sign * static_cast<double>(c.channelBusy.count());
        const ftl::FtlStats &t = s.ftl().stats();
        f(gcInvocations, t.gc.invocations);
        f(gcErases, t.gc.erases);
        f(gcMigrated, t.gc.migratedPages);
        f(refreshJobs, t.refresh.refreshes);
        f(adjustedWordlines, t.refresh.adjustedWordlines);
        f(refreshExtraReads, t.refresh.extraReads);
        f(refreshExtraWrites, t.refresh.extraWrites);
        f(rmwReads, t.sector.rmwReads);
        f(rmwRetries, t.sector.rmwRetries);
        const cache::ReadCacheStats &rc = s.ftl().readCacheStats();
        f(cacheHits, rc.hits);
        f(cacheMisses, rc.misses);
        f(cacheEvictions, rc.evictions);
        f(events, s.events().executed());
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

std::uint64_t
clampFootprint(std::uint64_t pages, std::uint64_t logical)
{
    return std::min<std::uint64_t>(
        pages, static_cast<std::uint64_t>(0.7 *
                                          static_cast<double>(logical)));
}

/**
 * The runner's pre-aging: a write stream from the same generator with a
 * derived seed, applied instantly through @p write. Returns whether any
 * stream was applied (finalizePreload then follows).
 */
template <typename WriteFn>
bool
prewrite(const workload::WorkloadPreset &p, std::uint64_t footprint,
         WriteFn &&write)
{
    if (p.prewriteFraction <= 0.0)
        return false;
    workload::SyntheticConfig pc = p.synth;
    pc.seed = p.synth.seed ^ 0x5eedu;
    pc.totalRequests = static_cast<std::uint64_t>(
        static_cast<double>(pc.totalRequests) * p.prewriteFraction);
    workload::SyntheticTrace pre(pc);
    workload::IoRequest w;
    while (pre.next(w)) {
        if (w.isRead || w.isTrim)
            continue;
        const flash::Lpn start =
            footprint > 0 ? w.startPage % footprint : 0;
        for (std::uint32_t i = 0; i < w.pageCount; ++i) {
            if (start + i < footprint)
                write(start + i);
        }
    }
    return true;
}

enum class Kind : std::uint8_t { Read, Write, Trim };

/**
 * Book-keeping shared by every host loop: one record per request, the
 * latencies of the measured window, and the page stream for the cache
 * leg.
 */
class Ledger
{
  public:
    explicit Ledger(LegInputs *capture) : capture_(capture) {}

    std::uint64_t
    add(const ssd::HostRequest &r)
    {
        const auto id = static_cast<std::uint64_t>(arrival_.size());
        const Kind k = r.isTrim ? Kind::Trim
                                : (r.isRead ? Kind::Read : Kind::Write);
        arrival_.push_back(r.arrival);
        kind_.push_back(k);
        done_.push_back(0);
        if (k == Kind::Write)
            hostPagesWritten_ += r.pageCount;
        if (capture_ && capture_->pageOps.size() < kMaxPageOps) {
            for (std::uint32_t i = 0; i < r.pageCount; ++i)
                capture_->pageOps.push_back(((r.startPage + i) << 1) |
                                            (k != Kind::Read ? 1u : 0u));
        }
        return id;
    }

    /** Record a completion; @p in_window selects measured requests. */
    void
    complete(std::uint64_t id, sim::Time done, bool in_window)
    {
        ++done_[id];
        if (!in_window || kind_[id] == Kind::Trim)
            return;
        const double us = sim::toUsec(done - arrival_[id]);
        (kind_[id] == Kind::Read ? readUs_ : writeUs_).push_back(us);
        lastDone_ = std::max(lastDone_, done);
    }

    void
    samplePending(std::size_t pending)
    {
        pendingMax_ = std::max<std::uint64_t>(pendingMax_, pending);
        pendingSum_ += static_cast<double>(pending);
        ++pendingSamples_;
    }

    sim::Time arrival(std::uint64_t id) const { return arrival_[id]; }
    std::uint64_t requests() const { return arrival_.size(); }
    std::uint64_t hostPagesWritten() const { return hostPagesWritten_; }
    sim::Time lastDone() const { return lastDone_; }
    std::uint64_t pendingMax() const { return pendingMax_; }
    double pendingMean() const
    {
        return ratio(pendingSum_, static_cast<double>(pendingSamples_));
    }

    /** Requests not completed exactly once. */
    std::uint64_t
    notCompletedOnce() const
    {
        return static_cast<std::uint64_t>(
            std::count_if(done_.begin(), done_.end(),
                          [](std::uint8_t n) { return n != 1; }));
    }

    /** Sum the window into @p t; hand over the samples if @p keep. */
    void
    finish(Trial &t, bool keep)
    {
        for (double us : readUs_)
            t.sim.readUs += us;
        for (double us : writeUs_)
            t.sim.writeUs += us;
        t.sim.reads = readUs_.size();
        t.sim.writes = writeUs_.size();
        t.counts["bench.zero_latency_read_frac"] =
            ratio(static_cast<double>(std::count(readUs_.begin(),
                                                 readUs_.end(), 0.0)),
                  static_cast<double>(readUs_.size()));
        if (keep) {
            t.readUs = std::move(readUs_);
            t.writeUs = std::move(writeUs_);
        }
    }

  private:
    static constexpr std::size_t kMaxPageOps = 4'000'000;

    LegInputs *capture_;
    std::vector<sim::Time> arrival_;
    std::vector<Kind> kind_;
    std::vector<std::uint8_t> done_;
    std::vector<double> readUs_, writeUs_;
    std::uint64_t hostPagesWritten_ = 0;
    sim::Time lastDone_{};
    std::uint64_t pendingMax_ = 0;
    double pendingSum_ = 0.0;
    std::uint64_t pendingSamples_ = 0;
};

ssd::HostRequest
toHost(const workload::IoRequest &r, std::uint64_t footprint)
{
    // The runner's address folding: clamp into the preloaded footprint
    // so every read is mapped.
    ssd::HostRequest hr;
    hr.arrival = r.arrival;
    hr.isRead = r.isRead;
    hr.isTrim = r.isTrim;
    hr.startSector = r.startSector;
    hr.sectorCount = r.sectorCount;
    hr.startPage = footprint > 0 ? r.startPage % footprint : 0;
    hr.pageCount = r.pageCount;
    if (hr.startPage + hr.pageCount > footprint)
        hr.startPage = footprint - std::min<std::uint64_t>(hr.pageCount,
                                                           footprint);
    return hr;
}

/** Preload the footprint and pre-age it, as the runner does. */
void
preloadDevice(ssd::Ssd &ssd, const workload::WorkloadPreset &p,
              std::uint64_t footprint)
{
    ssd.preloadSequential(footprint);
    if (prewrite(p, footprint,
                 [&ssd](flash::Lpn lpn) { ssd.ftl().preloadWrite(lpn); }))
        ssd.ftl().finalizePreload();
}

/**
 * Fill the checks, counts and metrics every single-device loop shares.
 * Returns the events the run executed.
 */
std::uint64_t
finishDeviceTrial(Trial &t, const ssd::Ssd &ssd, Ledger &ledger,
                  const Counters &before, sim::Time sim_start,
                  sim::Time window_start, const workload::RunResult &rr,
                  bool keep_samples, LegInputs *capture)
{
    Counters d = before;
    d.add(ssd, +1);
    const double ios = static_cast<double>(t.hostIos);
    const flash::Geometry &g = ssd.config().geometry;
    const double simNs =
        static_cast<double>((ssd.events().now() - sim_start).count());

    ledger.finish(t, keep_samples);
    t.sim.windowSimS = sim::toSec(ledger.lastDone() - window_start);
    t.sim.sensingSaved = d.sensingSaved;
    t.sim.sensingConv = d.sensingConv;

    const ftl::FtlStats &fs = ssd.ftl().stats();
    std::uint64_t levelReads = 0;
    for (std::uint64_t n : fs.readClass.byLevel)
        levelReads += n;

    auto &c = t.counts;
    c["sim.events_per_io"] = ratio(static_cast<double>(d.events), ios);
    c["sim.pending_max"] = static_cast<double>(ledger.pendingMax());
    c["sim.past_schedules"] =
        static_cast<double>(ssd.events().pastSchedules());
    c["ftl.refresh.jobs"] = static_cast<double>(d.refreshJobs);
    c["ftl.refresh.adjusted_wordlines"] =
        static_cast<double>(d.adjustedWordlines);
    c["ftl.refresh.extra_reads"] = static_cast<double>(d.refreshExtraReads);
    c["ftl.refresh.extra_writes"] =
        static_cast<double>(d.refreshExtraWrites);
    c["ftl.gc.invocations"] = static_cast<double>(d.gcInvocations);
    c["ftl.gc.migrated_pages"] = static_cast<double>(d.gcMigrated);
    c["ftl.gc.erases"] = static_cast<double>(d.gcErases);
    c["ftl.waf"] = ratio(d.programs, ledger.hostPagesWritten());
    c["ftl.ida_served_frac"] = ratio(fs.readClass.idaServed, levelReads);
    c["ftl.sector.rmw_reads"] = static_cast<double>(d.rmwReads);
    c["ftl.sector.rmw_retry_frac"] = ratio(d.rmwRetries, d.rmwReads);
    c["ftl.max_in_use_frac"] = ratio(fs.maxInUseBlocks, g.blocks());
    c["cache.hit_ratio"] = ratio(d.cacheHits, d.cacheHits + d.cacheMisses);
    c["cache.evictions"] = static_cast<double>(d.cacheEvictions);
    c["flash.reads_per_io"] = ratio(static_cast<double>(d.reads), ios);
    c["flash.programs_per_io"] = ratio(static_cast<double>(d.programs), ios);
    c["flash.erases"] = static_cast<double>(d.erases);
    c["flash.adjusts"] = static_cast<double>(d.adjusts);
    c["flash.sensing_per_read"] = ratio(d.sensing, d.reads);
    c["flash.die_util"] = ratio(d.dieBusyNs, g.dies() * simNs);
    c["flash.channel_util"] = ratio(d.channelBusyNs, g.channels * simNs);
    c["ecc.retry_rounds_per_read"] = ratio(d.retryRounds, d.reads);
    c["stats.measured_ios"] =
        static_cast<double>(rr.measuredReads + rr.measuredWrites);
    c["bench.window_ios"] = static_cast<double>(t.sim.reads + t.sim.writes);

    const std::uint64_t bad = ledger.notCompletedOnce();
    if (bad != 0) {
        t.failed += bad;
        t.failures.push_back(std::to_string(bad) +
                             " requests not completed exactly once");
    }
    if (!ssd.drained())
        t.failures.push_back("device did not drain");
    if (ssd.events().pastSchedules() != 0)
        t.failures.push_back("pastSchedules != 0");
    if (t.sim.sensingSaved == 0)
        t.failures.push_back("sensing_saved_frac is 0 with IDA on");

    if (capture) {
        capture->pendingMean = ledger.pendingMean();
        capture->simNsPerEvent = ratio(simNs, static_cast<double>(d.events));
        capture->ecc = ssd.ftl().ecc();
        capture->cacheCapacity =
            ssd.config().ftl.readCache.capacityPages > 0
                ? ssd.config().ftl.readCache.capacityPages
                : 4096;
        for (flash::BlockId b = 0; b < g.blocks(); ++b) {
            const flash::Block &blk = ssd.chips().block(b);
            capture->wear.emplace_back(blk.eraseCount(),
                                       ssd.events().now() - blk.programTime());
        }
    }
    return d.events;
}

/** Span-derived times common to the single-device loops. */
void
deviceTimes(Trial &t, const SpanTotals &s, std::uint64_t events)
{
    auto &m = t.times;
    m["workload.next_ns"] =
        ratio(s.self(SpanName::Next),
              static_cast<double>(s.calls(SpanName::Next)));
    m["workload.share"] =
        ratio(s.total(SpanName::Next), s.total(SpanName::Run));
    m["ssd.submit_ns"] = ratio(s.total(SpanName::Submit),
                               static_cast<double>(t.attempted));
    m["ssd.ctor_s"] = s.total(SpanName::SsdCtor) * 1e-9;
    m["sim.run_self_ns_per_io"] = ratio(s.self(SpanName::SimRun),
                                        static_cast<double>(t.hostIos));
    m["sim.run_self_ns_per_event"] =
        ratio(s.self(SpanName::SimRun), static_cast<double>(events));
    m["ftl.preload_s"] = s.total(SpanName::Preload) * 1e-9;
    m["ftl.refresh_wave_s"] = s.total(SpanName::RefreshWave) * 1e-9;
    m["stats.harvest_ms"] = s.total(SpanName::Harvest) * 1e-6;
    m["fleet.ctor_s"] = 0.0;
    m["fleet.preload_s"] = 0.0;
    m["fleet.run_ns_per_io"] = 0.0;
}

/** The closed loop: runClosedLoop's calls, with the benchmark's pump. */
class ClosedLoop
{
  public:
    ClosedLoop(ssd::Ssd &ssd, SpanLog &log, workload::SyntheticTrace &trace,
               std::uint64_t footprint, std::uint64_t warm, Ledger &ledger)
        : ssd_(ssd), log_(log), trace_(trace), footprint_(footprint),
          warm_(warm), ledger_(ledger)
    {
    }

    void
    pump()
    {
        Scope pumpSpan(log_, SpanName::Pump, ledger_.requests());
        workload::IoRequest r;
        {
            Scope next(log_, SpanName::Next, ledger_.requests());
            if (!trace_.next(r)) {
                exhausted_ = true;
                return;
            }
        }
        if (ledger_.requests() == warm_) {
            windowStart_ = ssd_.events().now();
            ssd_.setMeasureStart(windowStart_);
            ssd_.ftl().resetReadClassification();
        }
        ssd::HostRequest hr = toHost(r, footprint_);
        hr.arrival = ssd_.events().now();
        const std::uint64_t id = ledger_.add(hr);
        hr.onComplete = [this, id](sim::Time done) {
            ledger_.complete(id, done, id >= warm_);
            ledger_.samplePending(ssd_.events().pending());
            pump();
        };
        Scope submit(log_, SpanName::Submit, id);
        ssd_.submit(hr);
    }

    bool exhausted() const { return exhausted_; }
    sim::Time windowStart() const { return windowStart_; }

  private:
    ssd::Ssd &ssd_;
    SpanLog &log_;
    workload::SyntheticTrace &trace_;
    std::uint64_t footprint_;
    std::uint64_t warm_;
    Ledger &ledger_;
    sim::Time windowStart_{};
    bool exhausted_ = false;
};

Trial
runClosed(const Workload &w, SpanLog &log, bool keep_samples,
          LegInputs *capture)
{
    const workload::WorkloadPreset &p = w.preset;
    ssd::SsdConfig cfg = w.device;
    cfg.ftl.refreshPeriod = p.refreshPeriod;
    cfg.ftl.refreshCheckInterval =
        std::max<sim::Time>(p.refreshPeriod / 64, sim::kSec);
    cfg.ftl.preloadAgeSpread = sim::kSec;

    Trial t;
    Scope trial(log, SpanName::Trial);
    const double cpu0 = cpuSeconds();
    Scope setup(log, SpanName::Setup);
    std::unique_ptr<ssd::Ssd> dev;
    {
        Scope s(log, SpanName::SsdCtor);
        dev = std::make_unique<ssd::Ssd>(cfg);
    }
    ssd::Ssd &ssd = *dev;
    workload::SyntheticTrace trace(p.synth);
    const std::uint64_t footprint =
        clampFootprint(p.synth.footprintPages, ssd.logicalPages());
    {
        Scope s(log, SpanName::Preload);
        preloadDevice(ssd, p, footprint);
    }
    ssd.start();

    // The runner's preparation: finish the initial refresh wave (which
    // IDA-codes the resident data) before any traffic is offered.
    const std::uint64_t waveEvents0 = ssd.events().executed();
    const std::uint64_t waveJobs0 = ssd.ftl().stats().refresh.refreshes;
    {
        Scope s(log, SpanName::RefreshWave);
        const sim::Time prepLimit = 30ll * 24 * sim::kHour;
        for (;;) {
            ssd.events().runUntil(ssd.events().now() + 10 * sim::kSec);
            bool fresh = false;
            for (flash::BlockId b : ssd.ftl().blocks().refreshCandidates(
                     ssd.events().now(), cfg.ftl.refreshPeriod)) {
                if (!ssd.ftl().blocks().meta(b).forceMigrateNextRefresh()) {
                    fresh = true;
                    break;
                }
            }
            if ((ssd.ftl().quiescent() && !fresh) ||
                ssd.events().now() > prepLimit)
                break;
        }
    }
    setup.close();
    t.setupCpuS = cpuSeconds() - cpu0;
    t.counts["ftl.refresh_wave_events"] =
        static_cast<double>(ssd.events().executed() - waveEvents0);
    t.counts["ftl.refresh_wave_jobs"] = static_cast<double>(
        ssd.ftl().stats().refresh.refreshes - waveJobs0);

    Counters before;
    before.add(ssd, -1);
    const sim::Time simStart = ssd.events().now();
    Ledger ledger(capture);
    const auto warm = static_cast<std::uint64_t>(
        p.warmupFraction * static_cast<double>(p.synth.totalRequests));
    ClosedLoop loop(ssd, log, trace, footprint, warm, ledger);

    const double cpuRun0 = cpuSeconds();
    Scope run(log, SpanName::Run);
    for (int i = 0; i < w.queueDepth; ++i)
        loop.pump();
    const sim::Time limit = 30ll * 24 * sim::kHour;
    while (!(loop.exhausted() && ssd.drained()) &&
           ssd.events().now() < limit) {
        if (ssd.events().empty())
            break;
        Scope s(log, SpanName::SimRun);
        ssd.events().runUntil(ssd.events().now() + sim::kSec);
    }
    workload::RunResult rr;
    {
        Scope s(log, SpanName::Harvest);
        rr = workload::harvestResult(ssd, p.name, footprint);
    }
    run.close();
    t.runCpuS = cpuSeconds() - cpuRun0;
    trial.close();

    t.attempted = ledger.requests();
    t.hostIos = ledger.requests();
    t.archive = rr.toJson(/*include_volatile=*/false);
    const std::uint64_t events =
        finishDeviceTrial(t, ssd, ledger, before, simStart,
                          loop.windowStart(), rr, keep_samples, capture);
    if (log.enabled())
        deviceTimes(t, log.totals(), events);
    return t;
}

/** The open loop: the runner's stream replay on the trace's schedule. */
Trial
runOpen(const Workload &w, SpanLog &log, bool keep_samples,
        LegInputs *capture)
{
    const workload::WorkloadPreset &p = w.preset;
    ssd::SsdConfig cfg = w.device;
    cfg.ftl.refreshPeriod = p.refreshPeriod;
    cfg.ftl.refreshCheckInterval =
        std::max<sim::Time>(p.refreshPeriod / 64, sim::kSec);
    // Preloaded data becomes refresh-eligible during the warm-up.
    cfg.ftl.preloadAgeSpread =
        std::max(p.warmupFraction * p.synth.duration, sim::kSec);

    Trial t;
    Scope trial(log, SpanName::Trial);
    const double cpu0 = cpuSeconds();
    Scope setup(log, SpanName::Setup);
    std::unique_ptr<ssd::Ssd> dev;
    {
        Scope s(log, SpanName::SsdCtor);
        dev = std::make_unique<ssd::Ssd>(cfg);
    }
    ssd::Ssd &ssd = *dev;
    workload::SyntheticTrace trace(p.synth);
    const std::uint64_t footprint =
        clampFootprint(p.synth.footprintPages, ssd.logicalPages());
    {
        Scope s(log, SpanName::Preload);
        preloadDevice(ssd, p, footprint);
    }
    setup.close();
    t.setupCpuS = cpuSeconds() - cpu0;
    t.counts["ftl.refresh_wave_events"] = 0.0;
    t.counts["ftl.refresh_wave_jobs"] = 0.0;

    Counters before;
    before.add(ssd, -1);
    const sim::Time simStart = ssd.events().now();
    Ledger ledger(capture);
    // What a completion needs, behind one pointer: with the request id
    // the capture fits std::function's inline buffer, so completions
    // allocate nothing.
    struct Completion
    {
        Ledger &ledger;
        ssd::Ssd &ssd;
        sim::Time measureStart{};
    } ctx{ledger, ssd};

    const double cpuRun0 = cpuSeconds();
    Scope run(log, SpanName::Run);
    // Feed the whole trace up front in admission batches, one per
    // arrival tick (capped), as the runner does.
    constexpr std::size_t kSubmitBatch = 256;
    std::vector<ssd::HostRequest> batch;
    batch.reserve(kSubmitBatch);
    const auto flush = [&] {
        if (batch.empty())
            return;
        {
            Scope s(log, SpanName::Submit);
            ssd.submitBatch(batch);
        }
        batch.clear();
        ledger.samplePending(ssd.events().pending());
    };
    sim::Time lastArrival{};
    for (;;) {
        workload::IoRequest r;
        {
            Scope s(log, SpanName::Next, ledger.requests());
            if (!trace.next(r))
                break;
        }
        ssd::HostRequest hr = toHost(r, footprint);
        lastArrival = std::max(lastArrival, hr.arrival);
        if (!batch.empty() && (batch.back().arrival != hr.arrival ||
                               batch.size() >= kSubmitBatch))
            flush();
        const std::uint64_t id = ledger.add(hr);
        hr.onComplete = [c = &ctx, id](sim::Time done) {
            c->ledger.complete(id, done,
                               c->ledger.arrival(id) >= c->measureStart);
            c->ledger.samplePending(c->ssd.events().pending());
        };
        batch.push_back(std::move(hr));
    }
    flush();

    const sim::Time horizon = std::max(p.synth.duration, lastArrival);
    const sim::Time measureStart = p.warmupFraction * horizon;
    ctx.measureStart = measureStart;
    ssd.setMeasureStart(measureStart);
    ssd.events().schedule(measureStart, [&ssd] {
        ssd.backend().resetReadClassification();
    });
    ssd.start();
    {
        Scope s(log, SpanName::SimRun);
        ssd.events().runUntil(horizon);
    }
    const sim::Time drainLimit = horizon + 10 * sim::kMin;
    while (!ssd.drained() && ssd.events().now() < drainLimit) {
        Scope s(log, SpanName::SimRun);
        ssd.events().runUntil(ssd.events().now() + sim::kSec);
    }
    workload::RunResult rr;
    {
        Scope s(log, SpanName::Harvest);
        rr = workload::harvestResult(ssd, p.name, footprint);
    }
    run.close();
    t.runCpuS = cpuSeconds() - cpuRun0;
    trial.close();

    t.attempted = ledger.requests();
    t.hostIos = ledger.requests();
    t.archive = rr.toJson(/*include_volatile=*/false);
    const std::uint64_t events =
        finishDeviceTrial(t, ssd, ledger, before, simStart, measureStart, rr,
                          keep_samples, capture);
    if (log.enabled())
        deviceTimes(t, log.totals(), events);
    return t;
}

/**
 * The fleet's request stream: the synthetic trace, with each draw
 * timed and recorded so requests can be counted and the window sized.
 * Fleet::run draws between epochs, when the member queues may be read,
 * so each draw also samples their depth.
 */
class FleetStream : public workload::TraceStream
{
  public:
    FleetStream(workload::SyntheticTrace &inner, const fleet::Fleet &fl,
                std::uint64_t footprint, SpanLog &log, Ledger &ledger,
                sim::Time measure_start)
        : inner_(inner), fleet_(fl), footprint_(footprint), log_(log),
          ledger_(ledger), measureStart_(measure_start)
    {
    }

    bool
    next(workload::IoRequest &out) override
    {
        Scope s(log_, SpanName::Next, ledger_.requests());
        if (!inner_.next(out))
            return false;
        // Fleet::stage folds addresses the way toHost does.
        ledger_.add(toHost(out, footprint_));
        if (out.arrival >= measureStart_ && !out.isTrim)
            ++window_;
        for (std::uint32_t d = 0; d < fleet_.deviceCount(); ++d)
            ledger_.samplePending(fleet_.device(d).events().pending());
        return true;
    }

    std::uint64_t window() const { return window_; }

  private:
    workload::SyntheticTrace &inner_;
    const fleet::Fleet &fleet_;
    std::uint64_t footprint_;
    SpanLog &log_;
    Ledger &ledger_;
    sim::Time measureStart_;
    std::uint64_t window_ = 0;
};

/** fleet16: the Fleet constructor, preload and run, as runFleetPreset. */
Trial
runFleet(const Workload &w, SpanLog &log, LegInputs *capture)
{
    const workload::WorkloadPreset &p = w.preset;
    fleet::FleetConfig fc = w.fleet;
    fc.device.ftl.refreshPeriod = p.refreshPeriod;
    fc.device.ftl.refreshCheckInterval =
        std::max<sim::Time>(p.refreshPeriod / 64, sim::kSec);
    fc.device.ftl.preloadAgeSpread =
        std::max(p.warmupFraction * p.synth.duration, sim::kSec);

    Trial t;
    Scope trial(log, SpanName::Trial);
    const double cpu0 = cpuSeconds();
    Scope setup(log, SpanName::Setup);
    std::unique_ptr<fleet::Fleet> fl;
    {
        Scope s(log, SpanName::FleetCtor);
        fl = std::make_unique<fleet::Fleet>(fc);
    }
    workload::SyntheticTrace trace(p.synth);
    const std::uint64_t footprint =
        clampFootprint(p.synth.footprintPages, fl->logicalPages());
    {
        Scope s(log, SpanName::FleetPreload);
        fl->preloadSequential(footprint);
        if (prewrite(p, footprint,
                     [&fl](flash::Lpn lpn) { fl->preloadWrite(lpn); }))
            fl->finalizePreload();
    }
    setup.close();
    t.setupCpuS = cpuSeconds() - cpu0;

    Counters before;
    for (std::uint32_t d = 0; d < fl->deviceCount(); ++d)
        before.add(fl->device(d), -1);
    Ledger ledger(capture);
    fleet::FleetRunOptions opt;
    opt.measureStart = p.warmupFraction * p.synth.duration;
    opt.horizon = p.synth.duration;
    opt.label = p.name;
    FleetStream stream(trace, *fl, footprint, log, ledger,
                       opt.measureStart);

    const double cpuRun0 = cpuSeconds();
    Scope run(log, SpanName::Run);
    fleet::FleetResult res;
    {
        Scope s(log, SpanName::FleetRun);
        res = fl->run(stream, opt);
    }
    run.close();
    t.runCpuS = cpuSeconds() - cpuRun0;
    trial.close();

    t.attempted = ledger.requests();
    t.hostIos = fl->completedRequests();
    t.archive = res.toJson(/*include_volatile=*/false);
    Counters d = before;
    std::uint64_t maxInUse = 0, idaServed = 0, levelReads = 0;
    for (std::uint32_t i = 0; i < fl->deviceCount(); ++i) {
        const ssd::Ssd &dev = fl->device(i);
        d.add(dev, +1);
        const ftl::FtlStats &fs = dev.ftl().stats();
        maxInUse = std::max(maxInUse, fs.maxInUseBlocks);
        idaServed += fs.readClass.idaServed;
        for (std::uint64_t n : fs.readClass.byLevel)
            levelReads += n;
    }
    const double ios = static_cast<double>(t.hostIos);
    const flash::Geometry &g = fc.device.geometry;
    const double simNs = static_cast<double>(res.simulatedTime.count());
    const double devices = fl->deviceCount();

    // Fleet requests complete inside Fleet::run, out of the host's
    // sight: the window's means come from FleetResult, and no sample of
    // single fleet requests is available (see README.md).
    t.sim.readUs = res.readRespUs * static_cast<double>(res.measuredReads);
    t.sim.reads = res.measuredReads;
    t.sim.writeUs = res.writeRespUs * static_cast<double>(res.measuredWrites);
    t.sim.writes = res.measuredWrites;
    t.sim.windowSimS = sim::toSec(res.simulatedTime - opt.measureStart);
    t.sim.sensingSaved = d.sensingSaved;
    t.sim.sensingConv = d.sensingConv;

    auto &c = t.counts;
    c["sim.events_per_io"] = ratio(static_cast<double>(d.events), ios);
    c["sim.pending_max"] = static_cast<double>(ledger.pendingMax());
    c["sim.past_schedules"] = static_cast<double>(res.pastSchedules);
    c["ftl.refresh_wave_events"] = 0.0;
    c["ftl.refresh_wave_jobs"] = 0.0;
    c["ftl.refresh.jobs"] = static_cast<double>(d.refreshJobs);
    c["ftl.refresh.adjusted_wordlines"] =
        static_cast<double>(d.adjustedWordlines);
    c["ftl.refresh.extra_reads"] = static_cast<double>(d.refreshExtraReads);
    c["ftl.refresh.extra_writes"] =
        static_cast<double>(d.refreshExtraWrites);
    c["ftl.gc.invocations"] = static_cast<double>(d.gcInvocations);
    c["ftl.gc.migrated_pages"] = static_cast<double>(d.gcMigrated);
    c["ftl.gc.erases"] = static_cast<double>(d.gcErases);
    c["ftl.waf"] = ratio(d.programs, ledger.hostPagesWritten());
    c["ftl.ida_served_frac"] = ratio(idaServed, levelReads);
    c["ftl.sector.rmw_reads"] = static_cast<double>(d.rmwReads);
    c["ftl.sector.rmw_retry_frac"] = ratio(d.rmwRetries, d.rmwReads);
    c["ftl.max_in_use_frac"] = ratio(maxInUse, g.blocks());
    c["cache.hit_ratio"] = ratio(d.cacheHits, d.cacheHits + d.cacheMisses);
    c["cache.evictions"] = static_cast<double>(d.cacheEvictions);
    c["flash.reads_per_io"] = ratio(static_cast<double>(d.reads), ios);
    c["flash.programs_per_io"] = ratio(static_cast<double>(d.programs), ios);
    c["flash.erases"] = static_cast<double>(d.erases);
    c["flash.adjusts"] = static_cast<double>(d.adjusts);
    c["flash.sensing_per_read"] = ratio(d.sensing, d.reads);
    c["flash.die_util"] = ratio(d.dieBusyNs, devices * g.dies() * simNs);
    c["flash.channel_util"] =
        ratio(d.channelBusyNs, devices * g.channels * simNs);
    c["ecc.retry_rounds_per_read"] = ratio(d.retryRounds, d.reads);
    c["stats.measured_ios"] =
        static_cast<double>(res.measuredReads + res.measuredWrites);
    c["bench.window_ios"] = static_cast<double>(stream.window());
    c["fleet.subs_per_io"] = ratio(res.subRequestsStaged, t.attempted);
    c["bench.zero_latency_read_frac"] = 0.0;

    const std::uint64_t open = fl->openRequests();
    if (open != 0 || fl->submittedRequests() != t.attempted) {
        t.failed += open;
        t.failures.push_back(std::to_string(open) +
                             " fleet requests not completed");
    }
    if (res.subRequestsStaged != res.subRequestsCompleted)
        t.failures.push_back("staged sub-requests != completed");
    if (!fl->allDrained())
        t.failures.push_back("fleet did not drain");
    if (res.pastSchedules != 0)
        t.failures.push_back("pastSchedules != 0");
    if (t.sim.sensingSaved == 0)
        t.failures.push_back("sensing_saved_frac is 0 with IDA on");

    if (capture) {
        // The leg prices one member's queue: its depth and the
        // simulated time that passes per event on it.
        capture->simNsPerEvent =
            ratio(simNs * devices, static_cast<double>(d.events));
        capture->pendingMean = ledger.pendingMean();
        capture->ecc = fl->device(0).ftl().ecc();
        for (std::uint32_t i = 0; i < fl->deviceCount(); ++i) {
            const ssd::Ssd &dev = fl->device(i);
            for (flash::BlockId b = 0; b < g.blocks(); ++b) {
                const flash::Block &blk = dev.chips().block(b);
                capture->wear.emplace_back(
                    blk.eraseCount(), dev.events().now() - blk.programTime());
            }
        }
    }

    if (log.enabled()) {
        const SpanTotals s = log.totals();
        auto &m = t.times;
        m["workload.next_ns"] =
            ratio(s.self(SpanName::Next),
                  static_cast<double>(s.calls(SpanName::Next)));
        m["workload.share"] =
            ratio(s.total(SpanName::Next), s.total(SpanName::Run));
        m["ssd.submit_ns"] = 0.0;
        m["ssd.ctor_s"] = 0.0;
        m["sim.run_self_ns_per_io"] = 0.0;
        m["sim.run_self_ns_per_event"] = 0.0;
        m["ftl.preload_s"] = 0.0;
        m["ftl.refresh_wave_s"] = 0.0;
        m["stats.harvest_ms"] = 0.0;
        m["fleet.ctor_s"] = s.total(SpanName::FleetCtor) * 1e-9;
        m["fleet.preload_s"] = s.total(SpanName::FleetPreload) * 1e-9;
        m["fleet.run_ns_per_io"] =
            ratio(s.self(SpanName::FleetRun), static_cast<double>(t.attempted));
    }
    return t;
}

} // namespace

std::string
runnerArchive(const Workload &w)
{
    switch (w.loop) {
      case Loop::Closed:
        return workload::runClosedLoop(w.device, w.preset, w.queueDepth)
            .toJson(false);
      case Loop::Open:
        return workload::runPreset(w.device, w.preset).toJson(false);
      case Loop::Fleet:
        return fleet::runFleetPreset(w.fleet, w.preset).toJson(false);
    }
    return {};
}

Trial
runTrial(const Workload &w, SpanLog &log, bool keep_samples,
         LegInputs *capture)
{
    Trial t;
    switch (w.loop) {
      case Loop::Closed:
        t = runClosed(w, log, keep_samples, capture);
        break;
      case Loop::Open:
        t = runOpen(w, log, keep_samples, capture);
        break;
      case Loop::Fleet:
        t = runFleet(w, log, capture);
        break;
    }
    if (w.loop != Loop::Fleet)
        t.counts["fleet.subs_per_io"] = 0.0;
    // A trial that failed a check counts every attempted op as failed.
    if (!t.failures.empty())
        t.failed = t.attempted;
    log.endTrial();
    return t;
}

} // namespace perfbench
