/**
 * @file
 * The benchmark's workloads and the host loops that drive them.
 *
 * The benchmark is the host: it owns the workload seed, draws requests
 * from workload::SyntheticTrace itself and drives the simulator only
 * through public calls, in the order workload::runClosedLoop and the
 * open-loop runner use (construct, preload, pre-age, start, submit,
 * runUntil, harvestResult), or the Fleet constructor, preload and run.
 * Owning the loop is what lets it time set-up apart from the run and
 * see every completion; the runner's own pump is not on this path.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ecc/ecc_model.hh"
#include "fleet/fleet.hh"
#include "ssd/config.hh"
#include "workload/presets.hh"

#include "spans.hh"

namespace perfbench {

enum class Loop { Closed, Open, Fleet };

/** One workload: the device (or fleet) and the request stream. */
struct Workload
{
    std::string name;
    Loop loop = Loop::Closed;
    ida::ssd::SsdConfig device;    // Closed and Open
    ida::fleet::FleetConfig fleet; // Fleet
    ida::workload::WorkloadPreset preset;
    int queueDepth = 16;           // Closed only
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Build @p name with its request stream seeded by @p workload_seed and
 * its device randomness by @p device_seed. @p scale lengthens or
 * shortens the run the way workload::scaled does: request count and
 * simulated duration together. Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t workload_seed,
                  std::uint64_t device_seed, double scale, Workload &out);

/** What a traced trial hands the fixed-input legs (legs.hh). */
struct LegInputs
{
    /** Mean pending events seen at completions and submissions. */
    double pendingMean = 0.0;
    /** Simulated ns that pass per executed event during the run. */
    double simNsPerEvent = 0.0;
    /** Host page ops in order: (lpn << 1) | is_write. */
    std::vector<std::uint64_t> pageOps;
    /** Read-cache capacity to replay them through. */
    std::uint32_t cacheCapacity = 4096;
    /** The device's ECC model and its blocks' (wear, retention). */
    ida::ecc::EccModel ecc;
    std::vector<std::pair<std::uint32_t, ida::sim::Time>> wear;
};

/**
 * The simulated outcome of one trial, as sums over its measured window
 * so trials of several seeds pool exactly. Fixed for a fixed seed.
 */
struct SimTotals
{
    double readUs = 0.0;  // summed response times of window reads
    std::uint64_t reads = 0;
    double writeUs = 0.0; // summed response times of window writes
    std::uint64_t writes = 0;
    double windowSimS = 0.0; // simulated seconds the window lasted
    std::uint64_t sensingSaved = 0;
    std::uint64_t sensingConv = 0;

    bool operator==(const SimTotals &) const = default;
};

/** The outcome of one trial: one whole set-up, run and harvest. */
struct Trial
{
    double setupCpuS = 0.0;
    double runCpuS = 0.0;
    /** Host requests completed in the run (all of them, TRIMs too). */
    std::uint64_t hostIos = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    SimTotals sim;
    /** Per-layer counts: fixed for a fixed seed. */
    std::map<std::string, double> counts;
    /** Per-layer times from spans (traced trials only). */
    std::map<std::string, double> times;
    /** Window response times, when kept (single-device loops only). */
    std::vector<double> readUs, writeUs;
    /** The harvested result as the runner archives it. */
    std::string archive;
    /** The host's speed around the trial (reference.hh); set by the caller. */
    double hostSpeed = 1.0;
};

/**
 * Run one trial of @p w. With @p log enabled, spans are recorded and
 * per-layer times derived; with @p keep_samples the window's response
 * times are kept; with @p capture non-null, the inputs of the legs are
 * filled in.
 */
Trial runTrial(const Workload &w, SpanLog &log, bool keep_samples,
               LegInputs *capture);

/**
 * The archive the library's own runner produces for @p w
 * (runClosedLoop, runPreset or runFleetPreset): a trial of the
 * benchmark's host loop must reproduce it byte for byte.
 */
std::string runnerArchive(const Workload &w);

/** Per-process CPU seconds. */
double cpuSeconds();

} // namespace perfbench
