#include "fleet/fleet.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>

#include "sim/log.hh"
#include "stats/json_writer.hh"
#include "workload/synthetic.hh"

namespace ida::fleet {

std::uint64_t
deviceSeed(std::uint64_t fleet_seed, std::uint32_t device)
{
    // splitmix64 over (fleet seed, member index): the same finalizer
    // workload::seedFromTag uses, one level further down the hierarchy.
    std::uint64_t h =
        fleet_seed + (std::uint64_t{device} + 1) * 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

namespace {

/** @p cfg if the fleet can run it, else a fatal error naming the knob. */
const FleetConfig &
validated(const FleetConfig &cfg)
{
    if (cfg.devices < 1)
        sim::fatal("Fleet: FleetConfig::devices must be >= 1, got " +
                   std::to_string(cfg.devices));
    if (cfg.stripePages < 1)
        sim::fatal("Fleet: FleetConfig::stripePages must be >= 1, got " +
                   std::to_string(cfg.stripePages));
    if (cfg.shards != 1)
        sim::fatal("Fleet: FleetConfig::shards must be 1, got " +
                   std::to_string(cfg.shards));
    if (cfg.epoch <= sim::Time{})
        sim::fatal("Fleet: FleetConfig::epoch must be > 0, got " +
                   std::to_string(cfg.epoch.count()) + " ns");
    return cfg;
}

} // namespace

Fleet::Fleet(const FleetConfig &cfg)
    : cfg_(validated(cfg)), map_(cfg.devices, cfg.stripePages)
{
    devices_.reserve(cfg_.devices);
    for (std::uint32_t d = 0; d < cfg_.devices; ++d) {
        ssd::SsdConfig member = cfg_.device;
        member.seed ^= deviceSeed(cfg_.fleetSeed, d);
        devices_.push_back(std::make_unique<ssd::Ssd>(member));
    }
    staged_.resize(cfg_.devices);
}

std::uint64_t
Fleet::logicalPages() const
{
    return std::uint64_t{map_.devices()} * devices_[0]->logicalPages();
}

void
Fleet::preloadSequential(std::uint64_t pages)
{
    footprint_ = pages;
    for (std::uint32_t d = 0; d < map_.devices(); ++d)
        devices_[d]->preloadSequential(map_.devicePages(pages, d));
}

void
Fleet::preloadWrite(flash::Lpn fleet_lpn)
{
    devices_[map_.deviceOf(fleet_lpn)]->ftl().preloadWrite(
        map_.deviceLpn(fleet_lpn));
}

void
Fleet::finalizePreload()
{
    for (auto &dev : devices_)
        dev->ftl().finalizePreload();
}

void
Fleet::stage(const workload::IoRequest &req)
{
    const std::uint64_t space =
        footprint_ > 0 ? footprint_ : logicalPages();
    flash::Lpn start = req.startPage % space;
    std::uint32_t count = req.pageCount;
    if (count == 0)
        count = 1;
    if (start + count > space)
        start = space - std::min<std::uint64_t>(count, space);

    const std::uint32_t slot = slots_.acquire();
    Slot &sl = slots_[slot];
    sl = Slot{};
    sl.arrival = req.arrival;
    sl.isRead = req.isRead;
    sl.isTrim = req.isTrim;
    sl.pages = count;
    ++submittedReqs_;

    std::uint32_t runs = 0;
    map_.split(start, count, [&](const StripeRun &run) {
        ssd::HostRequest hr;
        hr.arrival = req.arrival;
        hr.isRead = req.isRead;
        hr.isTrim = req.isTrim;
        hr.startPage = run.startPage;
        hr.pageCount = run.pageCount;
        hr.onComplete = [this, slot](sim::Time done) {
            Slot &sl = slots_[slot];
            sl.lastDone = std::max(sl.lastDone, done);
            ++completedSubs_;
            if (--sl.pending == 0)
                finishRequest(slot);
        };
        staged_[run.device].push_back(hr);
        ++runs;
    });
    // Sub-page ranges survive only when the request maps to a single
    // run (they cannot straddle stripes); otherwise the request widens
    // to page granularity, like the paper's page-mapped baseline.
    if (req.sectorCount != 0 && runs == 1 &&
        count == req.pageCount) {
        auto &devQueue = staged_[map_.deviceOf(start)];
        devQueue.back().startSector = req.startSector;
        devQueue.back().sectorCount = req.sectorCount;
    }
    sl.pending = runs;
    stagedSubs_ += runs;
}

void
Fleet::submitStaged()
{
    for (std::uint32_t d = 0; d < map_.devices(); ++d) {
        if (staged_[d].empty())
            continue;
        devices_[d]->submitBatch(staged_[d]);
        staged_[d].clear();
    }
}

void
Fleet::finishRequest(std::uint32_t slot)
{
    const Slot &sl = slots_[slot];
    ++completedReqs_;
    if (sl.arrival >= measureStart_ && !sl.isTrim) {
        const double us = sim::toUsec(sl.lastDone - sl.arrival);
        if (sl.isRead) {
            readRespUs_.add(us);
            readHist_.add(us);
            ++measuredReads_;
            bytesRead_ += std::uint64_t{sl.pages} *
                          cfg_.device.geometry.pageSizeBytes;
        } else {
            writeRespUs_.add(us);
            ++measuredWrites_;
        }
        lastCompletion_ = std::max(lastCompletion_, sl.lastDone);
    }
    slots_.release(slot);
}

std::uint64_t
Fleet::pendingSubRequests() const
{
    std::uint64_t pending = 0;
    slots_.forEachLive([&](const Slot &sl) { pending += sl.pending; });
    return pending;
}

bool
Fleet::allDrained() const
{
    return std::all_of(devices_.begin(), devices_.end(),
                       [](const auto &d) { return d->drained(); });
}

FleetResult
Fleet::run(workload::TraceStream &trace, const FleetRunOptions &opt)
{
    const auto wall0 = std::chrono::steady_clock::now();

    measureStart_ = opt.measureStart;
    for (auto &dev : devices_) {
        dev->setMeasureStart(opt.measureStart);
        ssd::Ssd *raw = dev.get();
        dev->events().schedule(opt.measureStart, [raw] {
            raw->ftl().resetReadClassification();
        });
        dev->start();
    }

    workload::IoRequest req;
    bool have = trace.next(req);
    sim::Time lastArrival{};

    for (;;) {
        const sim::Time end = fleetNow_ + cfg_.epoch;
        while (have && req.arrival < end) {
            lastArrival = std::max(lastArrival, req.arrival);
            stage(req);
            have = trace.next(req);
        }
        submitStaged();
        // Device-index order, then each device's event order: the
        // order fleet requests finish in.
        for (auto &dev : devices_)
            dev->events().runUntil(end);
        fleetNow_ = end;
        if (!have && openRequests() == 0 && allDrained())
            break;
        const sim::Time drainLimit =
            std::max(opt.horizon, lastArrival) + 10 * sim::kMin;
        if (!have && fleetNow_ >= drainLimit) {
            sim::warn("fleet: did not drain within the limit");
            break;
        }
    }

    FleetResult res;
    res.workload = opt.label;
    res.system = devices_[0]->config().systemLabel();
    res.devices = map_.devices();
    res.stripePages = map_.stripePages();
    res.readRespUs = readRespUs_.mean();
    res.readP99Us = readHist_.quantile(0.99);
    res.writeRespUs = writeRespUs_.mean();
    const sim::Time window = lastCompletion_ - measureStart_;
    res.throughputMBps =
        window > sim::Time{}
            ? (static_cast<double>(bytesRead_) / (1024.0 * 1024.0)) /
                  sim::toSec(window)
            : 0.0;
    res.measuredReads = measuredReads_;
    res.measuredWrites = measuredWrites_;
    res.subRequestsStaged = stagedSubs_;
    res.subRequestsCompleted = completedSubs_;
    res.simulatedTime = fleetNow_;

    stats::Summary devRead;
    stats::Histogram devHist{1.0, 1.25, 96};
    res.perDevice.reserve(map_.devices());
    for (std::uint32_t d = 0; d < map_.devices(); ++d) {
        const ssd::Ssd &dev = *devices_[d];
        res.perDevice.push_back(workload::harvestResult(
            dev, opt.label, map_.devicePages(footprint_, d)));
        res.pastSchedules += dev.events().pastSchedules();
        devRead.merge(dev.stats().readResponseUs);
        devHist.merge(dev.stats().readHist);
    }
    res.deviceReadRespUs = devRead.mean();
    res.deviceReadP99Us = devHist.quantile(0.99);
    res.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
    return res;
}

void
FleetResult::writeJson(stats::JsonWriter &w, bool include_volatile) const
{
    w.beginObject();
    w.field("workload", workload);
    w.field("system", system);
    w.field("devices", std::uint64_t{devices});
    w.field("stripePages", stripePages);

    w.field("readRespUs", readRespUs);
    w.field("readP99Us", readP99Us);
    w.field("writeRespUs", writeRespUs);
    w.field("throughputMBps", throughputMBps);
    w.field("measuredReads", measuredReads);
    w.field("measuredWrites", measuredWrites);
    w.field("subRequestsStaged", subRequestsStaged);
    w.field("subRequestsCompleted", subRequestsCompleted);
    w.field("pastSchedules", pastSchedules);
    w.field("deviceReadRespUs", deviceReadRespUs);
    w.field("deviceReadP99Us", deviceReadP99Us);
    w.field("simulatedSec", sim::toSec(simulatedTime));

    w.key("perDevice");
    w.beginArray();
    for (const workload::RunResult &r : perDevice)
        r.writeJson(w, /*include_volatile=*/false);
    w.endArray();

    if (include_volatile)
        w.field("wallSeconds", wallSeconds);
    w.endObject();
}

std::string
FleetResult::toJson(bool include_volatile) const
{
    std::ostringstream os;
    stats::JsonWriter w(os);
    writeJson(w, include_volatile);
    return os.str();
}

FleetResult
runFleetPreset(const FleetConfig &cfg,
               const workload::WorkloadPreset &preset)
{
    FleetConfig fc = cfg;
    workload::setRunKnobs(fc.device.ftl, preset.refreshPeriod,
                          preset.warmupFraction, preset.synth.duration);
    Fleet fleet(fc);

    const std::uint64_t footprint = workload::clampFootprint(
        preset.synth.footprintPages, fleet.logicalPages());
    fleet.preloadSequential(footprint);
    workload::preAge(preset, footprint, fleet);

    workload::SyntheticTrace trace(preset.synth);
    FleetRunOptions opt;
    opt.measureStart = preset.warmupFraction * preset.synth.duration;
    opt.horizon = preset.synth.duration;
    opt.label = preset.name;
    return fleet.run(trace, opt);
}

} // namespace ida::fleet
