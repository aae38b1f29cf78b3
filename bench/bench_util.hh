/**
 * @file
 * Shared helpers for the paper-reproduction benchmark harnesses.
 *
 * Every harness regenerates one table or figure of the paper and prints
 * it as an aligned text table (plus the paper's reported values where
 * applicable, for side-by-side comparison).
 *
 * Run length is controlled by the IDA_BENCH_SCALE environment variable
 * (default 0.35): 1.0 replays each preset's full 400k-request trace,
 * smaller values shrink request count, duration and refresh period
 * together. Shapes are stable down to ~0.2; docs/ARTIFACTS.md numbers
 * were produced at the default.
 *
 * Matrix-shaped harnesses execute through workload::runMatrix: pass
 * `--jobs N` (or set IDA_JOBS) to run the independent simulations on N
 * threads; the tables and JSON exports are byte-identical at any N (see
 * src/workload/batch.hh for the determinism contract). Per-run wall
 * times are printed to stderr — the one nondeterministic measurement,
 * kept off the byte-compared stdout. Each harness also archives its
 * full measurement set as `$IDA_RESULTS_DIR/<harness>.json` (default
 * `results/`).
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "ssd/config.hh"
#include "stats/table.hh"
#include "workload/batch.hh"
#include "workload/presets.hh"
#include "workload/runner.hh"

namespace ida::bench {

/**
 * Benchmark run-length scale from IDA_BENCH_SCALE (default 0.35). A
 * value that is not a positive number is a user error (sim::fatal
 * naming the variable).
 */
inline double
benchScale()
{
    if (const char *env = std::getenv("IDA_BENCH_SCALE"))
        return workload::parsePositiveReal(env, "IDA_BENCH_SCALE");
    return 0.35;
}

/** The paper's evaluated TLC systems (Sec. IV-C): baseline + IDA-Ex. */
inline ssd::SsdConfig
tlcSystem(bool enable_ida, double error_rate = 0.20)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::paperTlc();
    cfg.ftl.enableIda = enable_ida;
    cfg.adjustErrorRate = error_rate;
    return cfg;
}

/** Run one preset under one system at the bench scale. */
inline workload::RunResult
run(const ssd::SsdConfig &cfg, const workload::WorkloadPreset &preset)
{
    return workload::runPreset(cfg, workload::scaled(preset, benchScale()));
}

/** Build one open-loop matrix cell at the bench scale. */
inline workload::RunSpec
spec(const ssd::SsdConfig &cfg, const workload::WorkloadPreset &preset,
     const std::string &tag)
{
    workload::RunSpec s;
    s.device = cfg;
    s.preset = workload::scaled(preset, benchScale());
    s.tag = tag;
    return s;
}

/** Build one closed-loop (saturation) matrix cell at the bench scale. */
inline workload::RunSpec
closedLoopSpec(const ssd::SsdConfig &cfg,
               const workload::WorkloadPreset &preset,
               const std::string &tag, int queue_depth)
{
    workload::RunSpec s = spec(cfg, preset, tag);
    s.kind = workload::RunKind::ClosedLoop;
    s.queueDepth = queue_depth;
    return s;
}

/** Batch options from the harness command line (--jobs N / IDA_JOBS). */
inline workload::BatchOptions
batchOptions(int argc, char **argv)
{
    workload::BatchOptions opts;
    opts.jobs = workload::jobsFromArgs(argc, argv);
    return opts;
}

/**
 * Execute a harness's matrix: runMatrix + failure gate. Any failed run
 * is a harness bug (the specs are static); report and exit non-zero
 * rather than print a table with holes.
 *
 * Per-run wall times are reported as a small table on *stderr*: humans
 * get ad-hoc perf observations without digging through the JSON
 * archive, while stdout stays byte-identical across --jobs levels (the
 * determinism contract of workload/batch.hh — wall clock is the one
 * legitimately nondeterministic measurement).
 */
inline workload::BatchOutcome
runMatrixOrDie(const std::vector<workload::RunSpec> &specs,
               const workload::BatchOptions &opts)
{
    workload::BatchOutcome out = workload::runMatrix(specs, opts);
    if (!out.ok()) {
        for (std::size_t i = 0; i < out.errors.size(); ++i) {
            if (!out.errors[i].empty())
                std::fprintf(stderr, "run '%s' failed: %s\n",
                             specs[i].tag.c_str(), out.errors[i].c_str());
        }
        std::exit(1);
    }
    std::fprintf(stderr, "%-32s %10s\n", "run", "wall_s");
    double total = 0.0;
    for (std::size_t i = 0; i < out.results.size(); ++i) {
        std::fprintf(stderr, "%-32s %10.3f\n", specs[i].tag.c_str(),
                     out.results[i].wallSeconds);
        total += out.results[i].wallSeconds;
    }
    std::fprintf(stderr, "%-32s %10.3f  (%d jobs)\n", "total cpu",
                 total, out.jobs);
    return out;
}

/**
 * Archive a harness's matrix as $IDA_RESULTS_DIR/<harness>.json and
 * print the path (the path does not depend on --jobs, so stdout stays
 * byte-identical across parallelism levels).
 */
inline void
exportJson(const std::string &harness,
           const std::vector<workload::RunSpec> &specs,
           const workload::BatchOutcome &outcome)
{
    const std::string path = workload::resultsDir() + "/" + harness +
                             ".json";
    char scale[32];
    std::snprintf(scale, sizeof(scale), "%.2f", benchScale());
    if (workload::exportResults(path, harness, {{"scale", scale}}, specs,
                                outcome))
        std::printf("\njson: %s\n", path.c_str());
}

/** Print a header naming the figure/table being regenerated. */
inline void
banner(const std::string &what, const std::string &paper_summary)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", what.c_str());
    std::printf("paper result: %s\n", paper_summary.c_str());
    std::printf("scale: %.2f (set IDA_BENCH_SCALE to change)\n", benchScale());
    std::printf("==============================================================\n");
}

/** Arithmetic-mean helper for "average" rows (the paper uses means). */
inline double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

} // namespace ida::bench
