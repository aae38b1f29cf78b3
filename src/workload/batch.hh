/**
 * @file
 * Parallel experiment-matrix runner.
 *
 * Every paper table/figure harness replays a (workload x system) matrix
 * of *independent* simulations: each run owns its Ssd, its event queue
 * and its RNGs, and shares nothing mutable with any other run. That
 * independence makes the matrix embarrassingly parallel, and this layer
 * exploits it with a fixed-size thread pool while preserving the
 * simulator's bit-for-bit reproducibility.
 *
 * # Determinism contract
 *
 * runMatrix() guarantees that the RunResult produced for a given
 * RunSpec depends ONLY on the spec's contents — never on the number of
 * worker threads, the submission order, or which thread happens to pick
 * the spec up. Concretely:
 *
 *  1. Each simulation is already self-contained: the event queue, the
 *     device RNG and the workload generator RNG live inside the run and
 *     are seeded from the spec (sim/event_queue.hh is single-threaded
 *     *per run*; the pool runs N independent queues side by side).
 *
 *  2. Per-spec seeding is derived from the spec's *tag*, not from its
 *     position in the batch: every run's effective device seed is
 *     `spec.device.seed ^ seedFromTag(spec.tag)` (a splitmix64-mixed
 *     FNV-1a hash; seedFromTag("") == 0 so an empty tag keeps the
 *     configured seed untouched). Two specs with identical configs but
 *     different tags therefore get decorrelated device-noise streams —
 *     replication support — while the workload generator seed
 *     (preset.synth.seed) is never touched, so baseline/IDA pairs keep
 *     replaying the identical request stream, which the paper's
 *     normalized comparisons require.
 *
 *  3. Results are written into a slot indexed by the spec's position,
 *     so the output order equals the input order at any parallelism.
 *
 * Consequence: `--jobs 1` and `--jobs N` produce byte-identical tables
 * and byte-identical JSON exports (wall-clock fields excluded; see
 * RunResult::toJson). tests/test_batch.cc asserts this.
 *
 * # Failure isolation
 *
 * A spec that throws (bad configuration, std::bad_alloc, ...) is
 * captured: its error string lands in BatchOutcome::errors at the
 * spec's index, its RunResult slot stays default-constructed, and every
 * other run completes normally. Duplicate non-empty tags are rejected
 * the same way before anything runs: the first occurrence executes,
 * later ones get an error — their tag-derived seeds would collide,
 * silently turning intended replicas into copies of one run. Note that sim::panic/sim::fatal still
 * abort the whole process — they flag simulator bugs and user errors
 * respectively, which no batch should paper over.
 */
#pragma once

#include <climits>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ssd/config.hh"
#include "workload/presets.hh"
#include "workload/runner.hh"

namespace ida::workload {

/** How a spec's simulation is driven. */
enum class RunKind {
    OpenLoop,   ///< trace replay at recorded arrival times (runPreset)
    ClosedLoop, ///< saturation at fixed queue depth (runClosedLoop)
};

/** One cell of an experiment matrix. */
struct RunSpec
{
    ssd::SsdConfig device;
    WorkloadPreset preset;

    /**
     * Identifies the run: shown by the progress reporter, recorded in
     * the JSON export, and hashed into the device seed (see the
     * determinism contract above). Convention: "workload/system", e.g.
     * "proj_1/IDA-E20". Leave empty to keep the configured seed.
     */
    std::string tag;

    RunKind kind = RunKind::OpenLoop;

    /** Outstanding requests for RunKind::ClosedLoop. */
    int queueDepth = 16;
};

/** runMatrix tuning knobs. */
struct BatchOptions
{
    /**
     * Worker threads; 0 means defaultJobs() (the IDA_JOBS environment
     * variable, else std::thread::hardware_concurrency). Clamped to
     * [1, specs.size()].
     */
    int jobs = 0;

    /** Emit one thread-safe progress line per completed run (stderr). */
    bool progress = true;
};

/** Everything a matrix execution produced. */
struct BatchOutcome
{
    /** Index-aligned with the input specs (contract point 3). */
    std::vector<RunResult> results;

    /** Index-aligned error strings; empty string = run succeeded. */
    std::vector<std::string> errors;

    /** Number of non-empty entries in errors. */
    std::size_t failed = 0;

    /** Threads actually used. */
    int jobs = 0;

    /** Wall-clock of the whole batch (volatile; never serialized). */
    double wallSeconds = 0.0;

    bool ok() const { return failed == 0; }
};

/**
 * Stable 64-bit seed component for @p tag: FNV-1a finalized with a
 * splitmix64 round so short tags still flip high bits. Returns 0 for
 * the empty tag.
 */
std::uint64_t seedFromTag(const std::string &tag);

/**
 * @p s as a count knob: the whole string is a decimal integer in
 * [1, @p max]. Anything else (empty, trailing characters, zero,
 * negative, out of range) is a user error: sim::fatal "<what> expects
 * a positive integer, got '<s>'".
 */
long long parsePositiveInt(const char *s, const char *what,
                           long long max = LLONG_MAX);

/**
 * @p s as a scale knob: the whole string is a finite decimal number
 * above 0. Anything else is a user error: sim::fatal "<what> expects a
 * positive number, got '<s>'".
 */
double parsePositiveReal(const char *s, const char *what);

/**
 * Default worker count: the IDA_JOBS environment variable when set,
 * otherwise std::thread::hardware_concurrency() (minimum 1). An
 * IDA_JOBS that is not a whole positive int is a user error
 * (sim::fatal naming the variable).
 */
int defaultJobs();

/**
 * Parse a `--jobs N` / `--jobs=N` / `-jN` / `-j N` option out of
 * argv (first match wins); returns 0 (= use defaultJobs()) when absent.
 * A value that is not a whole positive int (trailing characters, zero,
 * negative, beyond INT_MAX) is a user error (sim::fatal naming the
 * option).
 */
int jobsFromArgs(int argc, char **argv);

/**
 * Execute every spec, `opts.jobs` at a time.
 *
 * Blocks until all runs finish; never throws for per-run failures (see
 * "Failure isolation" above). An empty spec list returns an empty
 * outcome.
 */
BatchOutcome runMatrix(const std::vector<RunSpec> &specs,
                       const BatchOptions &opts = {});

/**
 * Archive a finished batch as a JSON file at @p path (parent
 * directories are created). Schema:
 *
 *   { "harness": "<name>",
 *     "meta": { <extra key/value pairs, e.g. "scale"> },
 *     "runs": [ { "tag": "...", "error": "..."?, "result": {...}? } ] }
 *
 * Volatile fields (wall clock, worker count) are deliberately omitted
 * so exports are byte-identical across `--jobs` levels (determinism
 * contract). Returns false (with a warning) when the file cannot be
 * written; harnesses keep their text output either way.
 */
bool exportResults(const std::string &path, const std::string &harness,
                   const std::vector<std::pair<std::string, std::string>> &meta,
                   const std::vector<RunSpec> &specs,
                   const BatchOutcome &outcome);

/**
 * The directory harnesses drop their JSON exports into: the
 * IDA_RESULTS_DIR environment variable, default "results".
 */
std::string resultsDir();

} // namespace ida::workload
