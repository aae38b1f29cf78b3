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
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "ssd/config.hh"
#include "stats/json_writer.hh"
#include "stats/table.hh"
#include "workload/batch.hh"
#include "workload/presets.hh"
#include "workload/runner.hh"

namespace ida::bench {

/** Benchmark run-length scale from IDA_BENCH_SCALE (default 0.35). */
inline double
benchScale()
{
    if (const char *env = std::getenv("IDA_BENCH_SCALE")) {
        const double v = std::atof(env);
        if (v > 0.0)
            return v;
    }
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
 * determinism contract run_smoke.sh checks — wall clock is the one
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

/**
 * Per-process CPU seconds (sums all threads). The perf harnesses divide
 * by this, not wall time: on a shared machine wall time charges the
 * simulator for every preemption, while CPU time prices exactly the
 * work done — which is the quantity a code change moves.
 */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** A positive integer from environment variable @p name, else @p dflt. */
inline std::uint64_t
envU64(const char *name, std::uint64_t dflt)
{
    if (const char *env = std::getenv(name)) {
        const long long v = std::atoll(env);
        if (v > 0)
            return static_cast<std::uint64_t>(v);
    }
    return dflt;
}

/** The preset name of a coding choice, as the perf fingerprints print it. */
inline const char *
codingName(ssd::CodingChoice c)
{
    switch (c) {
    case ssd::CodingChoice::Tlc124:
        return "Tlc124";
    case ssd::CodingChoice::Tlc232:
        return "Tlc232";
    case ssd::CodingChoice::Mlc12:
        return "Mlc12";
    case ssd::CodingChoice::Qlc1248:
        return "Qlc1248";
    }
    return "unknown";
}

/**
 * The device and build half of a perf record's config fingerprint:
 * "geometry", "coding", "system" and "build" fields, written into the
 * object the caller has open. Everything here would make two records
 * incomparable even on the same machine; tools/check_bench_json.sh
 * skips the regression comparison when fingerprints disagree.
 */
inline void
writeDeviceFingerprint(stats::JsonWriter &w, const ssd::SsdConfig &cfg)
{
    const flash::Geometry &g = cfg.geometry;
    w.key("geometry");
    w.beginObject();
    w.field("channels", std::uint64_t{g.channels});
    w.field("chips_per_channel", std::uint64_t{g.chipsPerChannel});
    w.field("dies_per_chip", std::uint64_t{g.diesPerChip});
    w.field("planes_per_die", std::uint64_t{g.planesPerDie});
    w.field("blocks_per_plane", std::uint64_t{g.blocksPerPlane});
    w.field("pages_per_block", std::uint64_t{g.pagesPerBlock});
    w.field("page_size_bytes", std::uint64_t{g.pageSizeBytes});
    w.field("sector_size_bytes", std::uint64_t{g.sectorSizeBytes});
    w.endObject();
    w.field("coding", codingName(cfg.coding));
    w.field("system", cfg.systemLabel());
    w.key("build");
    w.beginObject();
    w.field("compiler", __VERSION__);
#ifdef NDEBUG
    w.field("ndebug", true);
#else
    w.field("ndebug", false);
#endif
#ifdef IDA_AUDIT
    w.field("audit", true);
#else
    w.field("audit", false);
#endif
    w.endObject();
}

/** Geometric-mean helper for "average" rows (the paper uses means). */
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
