/**
 * @file
 * Experiment runner: executes one workload preset against one device
 * configuration and collects the metrics the paper's tables and figures
 * report. All benchmark harnesses and examples are thin wrappers over
 * this.
 */
#pragma once

#include <string>

#include "ftl/wear.hh"
#include "ssd/ssd.hh"
#include "trace/attribution.hh"
#include "workload/presets.hh"

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
     * run, a cross-shard lookahead horizon was violated). IDA_AUDIT
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

} // namespace ida::workload
