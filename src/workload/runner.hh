/**
 * @file
 * Experiment runner: executes one workload preset against one device
 * configuration and collects the metrics the paper's tables and figures
 * report. All benchmark harnesses and examples are thin wrappers over
 * this.
 */
#pragma once

#include <cstdint>
#include <string>

#include "ftl/wear.hh"
#include "ssd/ssd.hh"
#include "trace/attribution.hh"
#include "workload/presets.hh"
#include "workload/synthetic.hh"

namespace ida::stats {
class JsonWriter;
}

namespace ida::workload {

/** The measurements of one (workload, system) run. */
struct RunResult
{
    std::string workload;
    std::string system;

    double readRespUs = 0.0;     // mean read response time
    double readP99Us = 0.0;      // approximate p99 read response
    double writeRespUs = 0.0;    // mean write response time
    double throughputMBps = 0.0; // measured read throughput
    std::uint64_t measuredReads = 0;
    std::uint64_t measuredWrites = 0;

    ftl::FtlStats ftl;       // classification, refresh, GC counters
    flash::ChipStats chip;   // command counts / busy times
    ftl::WearSnapshot wear;  // erase distribution at end of run
    cache::ReadCacheStats cache; // read/page cache hit/miss/merge counters
    std::uint64_t trimRequests = 0; // measured TRIM requests
    /**
     * Event-kernel causality gauge: schedule() calls handed a past
     * timestamp (sim::EventQueue::pastSchedules). Always serialized so
     * CI can assert it is zero — a nonzero value means a model flow
     * scheduled into the past and was silently clamped (or, in a fleet
     * run, a sub-request was staged behind a member's clock). IDA_AUDIT
     * builds panic on the first occurrence instead.
     */
    std::uint64_t pastSchedules = 0;
    /** End-of-run gauge: valid pages with a strict-subset sector mask. */
    std::uint64_t partialValidPages = 0;
    /** End-of-run gauge: wordlines IDA could merge (LSB invalid). */
    std::uint64_t idaEligibleWordlines = 0;
    /**
     * Per-phase latency attribution (src/trace). Populated (enabled ==
     * true) only when the harvested device had a recorder attached
     * (Ssd::enableTracing); the runner's own runs attach none, so their
     * archives carry zeroed phases under the same JSON schema. Covers
     * the whole run including warm-up (spans are device-side and have
     * no measurement window).
     */
    trace::AttributionSummary attribution;
    std::uint64_t inUseBlocksEnd = 0;
    std::uint64_t totalBlocks = 0;
    std::uint64_t footprintPages = 0;
    /** Trace-input hygiene (nonzero only for file-backed streams). */
    std::uint64_t traceMalformedLines = 0;
    std::uint64_t traceOutOfOrderLines = 0;
    sim::Time simulatedTime{};
    double wallSeconds = 0.0;

    /** this.readRespUs / base.readRespUs (the paper's normalization). */
    double normalizedReadResp(const RunResult &base) const;

    /** 1 - normalizedReadResp: the paper's "improvement" percentage. */
    double readImprovement(const RunResult &base) const;

    /**
     * Serialize every measurement as one JSON object through @p w.
     *
     * With @p include_volatile false, wall-clock fields (wallSeconds)
     * are omitted so that two runs measuring identical values emit
     * byte-identical JSON — the form the bench harnesses archive, and
     * what makes `--jobs 1` and `--jobs N` exports diffable.
     */
    void writeJson(stats::JsonWriter &w, bool include_volatile) const;

    /** writeJson to a string (convenience; volatile fields included). */
    std::string toJson(bool include_volatile = true) const;
};

/**
 * Run @p preset against @p device.
 *
 * The runner preloads the footprint, replays the trace with the first
 * `warmupFraction` unmeasured, drains outstanding I/O, and harvests
 * statistics. The preset's refresh period overrides the device config's.
 * The footprint is clamped to 70% of the device's logical capacity (it
 * only matters for the small MLC/QLC geometries).
 */
RunResult runPreset(const ssd::SsdConfig &device,
                    const WorkloadPreset &preset);

/** Run an arbitrary trace stream (e.g. a real MSR trace). */
RunResult runTrace(const ssd::SsdConfig &device, TraceStream &trace,
                   std::uint64_t footprint_pages, sim::Time refresh_period,
                   double warmup_fraction, const std::string &label);

/**
 * Closed-loop (saturation) run: the preset's trace supplies request
 * types/addresses/sizes but arrivals are ignored — @p queue_depth
 * requests are kept outstanding at all times. This measures *device*
 * throughput (the paper's Fig. 10), which an open-loop replay cannot
 * (it is arrival-limited by construction).
 */
RunResult runClosedLoop(const ssd::SsdConfig &device,
                        const WorkloadPreset &preset, int queue_depth);

/**
 * Read every end-of-run measurement out of @p ssd into a RunResult.
 *
 * Shared by the single-device runners above and the fleet layer
 * (src/fleet), which harvests one result per member device. Fills
 * everything except the trace-hygiene counters and wallSeconds, which
 * only the caller knows.
 */
RunResult harvestResult(const ssd::Ssd &ssd,
                        const std::string &workload_label,
                        std::uint64_t footprint_pages);

// Set-up shared by the runners above and fleet::runFleetPreset.

/**
 * Set the FTL knobs a run takes from its workload: @p refresh_period,
 * checked every period/64 but at least every second, and, when
 * @p duration is positive, a preload age spread of
 * max(warmup_fraction * duration, 1 s).
 */
void setRunKnobs(ftl::FtlConfig &ftl, sim::Time refresh_period,
                 double warmup_fraction, sim::Time duration);

/** The preloaded footprint: @p pages, at most 70% of @p logical_pages. */
std::uint64_t clampFootprint(std::uint64_t pages,
                             std::uint64_t logical_pages);

/**
 * Pre-age the resident data (WorkloadPreset::prewriteFraction), so
 * blocks carry realistic invalid-page populations when the first
 * refreshes hit: replay the preset's stream at seed ^ 0x5eed, cut to
 * prewriteFraction of its requests, write each page it writes inside
 * @p footprint instantly through @p target.preloadWrite, then call
 * @p target.finalizePreload. @p target is an ftl::Ftl or a
 * fleet::Fleet. Does nothing when the preset asks for no pre-aging.
 */
template <typename Target>
void
preAge(const WorkloadPreset &preset, std::uint64_t footprint,
       Target &target)
{
    if (preset.prewriteFraction <= 0.0)
        return;
    SyntheticConfig pc = preset.synth;
    pc.seed = preset.synth.seed ^ 0x5eedu;
    pc.totalRequests = static_cast<std::uint64_t>(
        static_cast<double>(pc.totalRequests) * preset.prewriteFraction);
    SyntheticTrace pre(pc);
    IoRequest w;
    while (pre.next(w)) {
        if (w.isRead || w.isTrim)
            continue;
        const flash::Lpn start = footprint > 0 ? w.startPage % footprint : 0;
        for (std::uint32_t i = 0; i < w.pageCount; ++i) {
            if (start + i < footprint)
                target.preloadWrite(start + i);
        }
    }
    target.finalizePreload();
}

} // namespace ida::workload
