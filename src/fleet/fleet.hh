/**
 * @file
 * Deterministic multi-device fleet: one flat host LBA space striped
 * over N independent member SSDs, simulated on the calling thread.
 *
 * # Execution model
 *
 * Member devices never exchange events mid-flight: a fleet request is
 * split by the StripeMap into per-device sub-requests up front, and
 * each device then simulates its slice on its own private EventQueue.
 * The fleet advances in fixed epochs of length FleetConfig::epoch:
 *
 *   1. stage every trace arrival in [t, t+H) into per-device batches
 *      and submit them;
 *   2. advance each member's queue with runUntil(t+H), in device-index
 *      order. A sub-request's completion updates its fleet request,
 *      which finishes when its last stripe does (completion time = max
 *      over the stripes).
 *
 * # Determinism contract
 *
 * A fleet run is byte-identical (FleetResult::toJson(false), aggregate
 * and per-device) for a fixed config: devices run in index order and
 * each device runs in event order, so fleet requests finish in a fixed
 * order. Per-device seeds are derived, not shared: member d runs with
 * `device.seed ^ deviceSeed(fleetSeed, d)`, the same tag-derived-seed
 * discipline as workload::seedFromTag, extended one level down
 * (harnesses put seedFromTag(tag) into FleetConfig::fleetSeed).
 *
 * A sub-request submitted to a device that already advanced past its
 * arrival would be a causality violation; the member queues surface
 * exactly that as a past-time schedule (sim::PastSchedulePolicy: a
 * panic by default, a counted clamp on a queue switched to Clamp), and
 * FleetResult::pastSchedules sums the counters so CI can assert zero.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/stripe.hh"
#include "sim/slab.hh"
#include "ssd/ssd.hh"
#include "stats/histogram.hh"
#include "stats/stats.hh"
#include "workload/presets.hh"
#include "workload/runner.hh"
#include "workload/trace.hh"

namespace ida::fleet {

/** Parameters of a fleet: member template plus array shape. */
struct FleetConfig
{
    /** Per-member device configuration (seed is re-derived per device). */
    ssd::SsdConfig device;

    /** Member count (>= 1). */
    std::uint32_t devices = 4;

    /** Stripe unit in pages (>= 1). */
    std::uint64_t stripePages = 8;

    /**
     * Must be 1: the fleet runs its members on the calling thread. Kept
     * only so callers that still set it to 1 build unchanged.
     */
    int shards = 1;

    /**
     * Epoch H (> 0): arrivals in [t, t+H) are staged, then every member
     * runs to t+H. Devices never interact, so H moves no member event;
     * the run ends on an epoch boundary.
     */
    sim::Time epoch = 10 * sim::kMsec;

    /**
     * Fleet-level seed, xor-folded into each member's device seed via
     * deviceSeed(). Harnesses set workload::seedFromTag(tag) here to
     * extend the batch layer's tag-derived-seed discipline to fleets.
     */
    std::uint64_t fleetSeed = 0;
};

/**
 * Stable per-member seed component: splitmix64 over (fleet seed,
 * device index), so members get decorrelated device-noise streams that
 * move as a group when the fleet seed changes.
 */
std::uint64_t deviceSeed(std::uint64_t fleet_seed, std::uint32_t device);

/** Knobs for one Fleet::run invocation. */
struct FleetRunOptions
{
    /** Fleet requests arriving before this are warm-up (unmeasured). */
    sim::Time measureStart{};

    /** Expected trace duration; the drain limit builds on it. */
    sim::Time horizon{};

    /** Workload label recorded in the results. */
    std::string label;
};

/** The measurements of one fleet run: aggregate plus per-member. */
struct FleetResult
{
    std::string workload;
    std::string system; ///< member system label, e.g. "IDA-E20"
    std::uint32_t devices = 0;
    std::uint64_t stripePages = 0;

    // Fleet-request-granular (arrival -> max over stripe completions).
    double readRespUs = 0.0;
    double readP99Us = 0.0;
    double writeRespUs = 0.0;
    double throughputMBps = 0.0;
    std::uint64_t measuredReads = 0;
    std::uint64_t measuredWrites = 0;

    /** Sub-requests fanned out / completed (conservation check pair). */
    std::uint64_t subRequestsStaged = 0;
    std::uint64_t subRequestsCompleted = 0;

    /** Sum of member queues' past-time schedule counters (CI: == 0). */
    std::uint64_t pastSchedules = 0;

    /** Device-level read latency, merged across members. */
    double deviceReadRespUs = 0.0;
    double deviceReadP99Us = 0.0;

    sim::Time simulatedTime{};
    double wallSeconds = 0.0; ///< volatile, never in archive JSON

    /** Per-member harvest, index == device index. */
    std::vector<workload::RunResult> perDevice;

    /**
     * Serialize aggregate and per-device measurements as one JSON
     * object. With @p include_volatile false, wall-clock fields are
     * omitted — the byte-comparable archive form (per-device results
     * are always in archive form; their wall clock is meaningless).
     */
    void writeJson(stats::JsonWriter &w, bool include_volatile) const;

    /** writeJson to a string (volatile fields included by default). */
    std::string toJson(bool include_volatile = true) const;
};

/**
 * The fleet itself: owns the member SSDs.
 *
 * Usage: construct, preloadSequential(), then run() a trace. device()
 * and the counters are exposed for the fleet auditor (fleet_audit.hh)
 * and are consistent between epochs.
 */
class Fleet
{
  public:
    /** Rejects, naming the knob, any config it cannot run. */
    explicit Fleet(const FleetConfig &cfg);

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    const FleetConfig &config() const { return cfg_; }
    const StripeMap &stripes() const { return map_; }
    std::uint32_t deviceCount() const { return map_.devices(); }
    ssd::Ssd &device(std::uint32_t d) { return *devices_[d]; }
    const ssd::Ssd &device(std::uint32_t d) const { return *devices_[d]; }

    /** Exported fleet capacity in pages (sum over members). */
    std::uint64_t logicalPages() const;

    /** Instantly back fleet pages [0, pages) across the stripes. */
    void preloadSequential(std::uint64_t pages);

    /** Instant pre-run write of one fleet page (block aging). */
    void preloadWrite(flash::Lpn fleet_lpn);

    /** Finish preloading (flushes member preload state). */
    void finalizePreload();

    /**
     * Replay @p trace (fleet LBA space, non-decreasing arrivals) to
     * exhaustion, then drain. Addresses are folded into the preloaded
     * footprint like the single-device runner.
     */
    FleetResult run(workload::TraceStream &trace,
                    const FleetRunOptions &opt);

    // Counters for the fleet auditor; valid between epochs.
    std::uint64_t stagedSubRequests() const { return stagedSubs_; }
    std::uint64_t completedSubRequests() const { return completedSubs_; }
    std::uint64_t submittedRequests() const { return submittedReqs_; }
    std::uint64_t completedRequests() const { return completedReqs_; }
    std::uint64_t openRequests() const {
        return submittedReqs_ - completedReqs_;
    }
    /** Pending sub-requests summed over open fleet slots. */
    std::uint64_t pendingSubRequests() const;
    /** The fleet clock: the last epoch boundary reached. */
    sim::Time now() const { return fleetNow_; }
    bool allDrained() const;

  private:
    /** One fleet request while any stripe sub-request is in flight. */
    struct Slot
    {
        sim::Time arrival{};
        sim::Time lastDone{};
        std::uint32_t pending = 0;
        std::uint32_t pages = 0;
        bool isRead = true;
        bool isTrim = false;
    };

    void stage(const workload::IoRequest &req);
    void submitStaged();
    void finishRequest(std::uint32_t slot);

    FleetConfig cfg_;
    StripeMap map_;
    std::vector<std::unique_ptr<ssd::Ssd>> devices_;
    std::uint64_t footprint_ = 0; ///< preloaded fleet pages (fold base)

    sim::Slab<Slot> slots_;
    std::vector<std::vector<ssd::HostRequest>> staged_;

    std::uint64_t stagedSubs_ = 0;
    std::uint64_t completedSubs_ = 0;
    std::uint64_t submittedReqs_ = 0;
    std::uint64_t completedReqs_ = 0;
    sim::Time fleetNow_{};

    // Fleet-request-granular measurements.
    sim::Time measureStart_{};
    sim::Time lastCompletion_{};
    stats::Summary readRespUs_;
    stats::Summary writeRespUs_;
    stats::Histogram readHist_{1.0, 1.25, 96};
    std::uint64_t measuredReads_ = 0;
    std::uint64_t measuredWrites_ = 0;
    std::uint64_t bytesRead_ = 0;
};

/**
 * Run @p preset against a fleet with the single-device runPreset()'s
 * set-up (workload::setRunKnobs, clampFootprint, preAge) and its
 * unmeasured warm-up fraction. The preset's footprint and request
 * addresses span the whole fleet LBA space.
 */
FleetResult runFleetPreset(const FleetConfig &cfg,
                           const workload::WorkloadPreset &preset);

} // namespace ida::fleet
