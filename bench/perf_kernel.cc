/**
 * @file
 * Simulation-kernel microbenchmark: the perf trajectory of the hot path.
 *
 * Two measurements, both deterministic in their simulated behavior so
 * only wall time varies between machines/builds:
 *
 *  1. Raw dispatch rate (events/sec): 256 self-rescheduling actors pump
 *     IDA_PERF_EVENTS events (default 4M) through one EventQueue with
 *     LCG-jittered delays and kernel-sized (40-byte) capture sets — the
 *     schedule/pop/invoke cycle and nothing else, i.e. the kernel
 *     overhead every simulated flash command pays.
 *
 *  2. End-to-end simulated-IOs/sec: one fig10-shaped closed-loop run
 *     (queue depth 16, the paper's saturation setup) of the first paper
 *     workload at IDA_PERF_SCALE (default 0.15) of its full length,
 *     counting measured host I/Os against the run's wall clock. This is
 *     the metric every figure/table harness is bound by. Two variant
 *     legs re-run the same workload to price the read-path features a
 *     page-granular closed loop never touches:
 *       - sector mode: half the requests narrowed to sub-page sector
 *         ranges (exercises the mask-merge path and sector validity);
 *       - rcache: a 4096-page controller read cache enabled (exercises
 *         the cache probe/fill/invalidate path on every host I/O).
 *
 * Emits $IDA_RESULTS_DIR/BENCH_kernel.json with the schema
 *   { "bench": "perf_kernel", "commit": <IDA_BENCH_COMMIT or "unknown">,
 *     "events_per_sec": N, "ios_per_sec": N,
 *     "ios_per_sec_sector": N, "ios_per_sec_rcache": N,
 *     "wall_ms": N, "config": { geometry/coding/build fingerprint } }
 * so every PR can record its numbers next to the committed baseline in
 * bench/baselines/ (see docs/PERF.md for the comparison workflow). The
 * config fingerprint exists so a baseline diff can distinguish "the
 * code got slower" from "the benchmark is measuring a different device
 * or build" — tools/check_bench_json.sh refuses a baseline comparison
 * when fingerprints disagree.
 *
 * Wall-clock results are machine-dependent by nature; compare only
 * numbers measured on the same machine.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "ssd/config.hh"
#include "stats/json_writer.hh"
#include "workload/batch.hh"
#include "workload/presets.hh"
#include "workload/runner.hh"

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
envDouble(const char *name, double dflt)
{
    if (const char *env = std::getenv(name)) {
        const double v = std::atof(env);
        if (v > 0.0)
            return v;
    }
    return dflt;
}

/**
 * The raw-dispatch harness: a fixed population of actors, each
 * rescheduling itself with a pseudo-random (but seed-deterministic)
 * delay until the shared event budget runs out.
 *
 * Two deliberate choices make this representative of simulator load
 * rather than a best-case toy:
 *  - each callback captures 40 bytes (the shape of the kernel's real
 *    completion chains, e.g. a done-callback plus a this pointer plus
 *    a timestamp) — beyond std::function's 16-byte SBO, i.e. exactly
 *    the capture class the old kernel heap-allocated per event;
 *  - 256 actors with delays spanning ~2k ticks keep a few hundred
 *    events pending, the scale a multi-die simulation sustains, with
 *    regular same-tick collisions exercising the FIFO tie-break.
 */
class ActorBench
{
  public:
    explicit ActorBench(std::uint64_t budget) : remaining_(budget) {}

    double
    run(int actors)
    {
        for (int a = 0; a < actors; ++a)
            step(0x9e3779b9u * static_cast<std::uint32_t>(a + 1),
                 Payload{{1, 2, 3}});
        const double start = ida::bench::cpuSeconds();
        q_.run();
        const double secs = ida::bench::cpuSeconds() - start;
        return static_cast<double>(q_.executed()) / secs;
    }

    std::uint64_t executed() const { return q_.executed(); }
    std::uint64_t checksum() const { return checksum_; }

  private:
    /** Ballast making the capture set kernel-sized (see file header). */
    struct Payload
    {
        std::uint64_t v[3];
    };

    void
    step(std::uint32_t rng, Payload p)
    {
        if (remaining_ == 0) {
            checksum_ += p.v[0] ^ p.v[1] ^ p.v[2];
            return;
        }
        --remaining_;
        rng = rng * 1664525u + 1013904223u;
        p.v[rng % 3] += rng;
        q_.scheduleAfter(ida::sim::Time{1 + (rng >> 21)},
                         [this, rng, p] { step(rng, p); });
    }

    ida::sim::EventQueue q_;
    std::uint64_t remaining_;
    std::uint64_t checksum_ = 0;
};

/** One closed-loop leg; prints and returns its ios/sec. */
double
fig10Leg(const char *label, const ida::ssd::SsdConfig &cfg,
         const ida::workload::WorkloadPreset &preset)
{
    const ida::workload::RunResult res =
        ida::workload::runClosedLoop(cfg, preset, 16);
    const double ios =
        static_cast<double>(res.measuredReads + res.measuredWrites);
    const double per_sec =
        res.wallSeconds > 0.0 ? ios / res.wallSeconds : 0.0;
    std::printf("  ios/sec[%s]: %.0f  (%.0f measured IOs in %.2fs "
                "wall)\n",
                label, per_sec, ios, res.wallSeconds);
    return per_sec;
}

} // namespace

int
main()
{
    using namespace ida;

    const std::uint64_t events = bench::envU64("IDA_PERF_EVENTS", 4'000'000);
    const double scale = envDouble("IDA_PERF_SCALE", 0.15);
    const char *commit_env = std::getenv("IDA_BENCH_COMMIT");
    const std::string commit = commit_env ? commit_env : "unknown";

    std::printf("perf_kernel: %llu raw events, fig10 workload at scale "
                "%.2f\n",
                static_cast<unsigned long long>(events), scale);

    const auto total_start = Clock::now();

    // Stage 1: raw kernel dispatch rate.
    ActorBench raw(events);
    const double events_per_sec = raw.run(256);
    std::printf("  events/sec: %.0f  (%llu events)\n", events_per_sec,
                static_cast<unsigned long long>(raw.executed()));

    // Stage 2: fig10-shaped end-to-end runs (closed loop, depth 16).
    ssd::SsdConfig cfg = ssd::SsdConfig::paperTlc();
    cfg.ftl.enableIda = true;
    cfg.adjustErrorRate = 0.20;
    const workload::WorkloadPreset preset =
        workload::scaled(workload::paperWorkloads().front(), scale);
    const double ios_per_sec = fig10Leg("fig10", cfg, preset);

    // Sector-mode leg: half the stream narrowed to sub-page ranges so
    // the mask-merge and sector-validity paths are priced too.
    workload::WorkloadPreset sector_preset = preset;
    sector_preset.synth.subPageFraction = 0.5;
    sector_preset.synth.sectorsPerPage = cfg.geometry.sectorsPerPage();
    const double ios_per_sec_sector =
        fig10Leg("sector", cfg, sector_preset);

    // Read-cache leg: same stream behind a 4096-page controller cache
    // (every host read probes it; repeated reads hit DRAM).
    ssd::SsdConfig rcache_cfg = cfg;
    rcache_cfg.ftl.readCache.capacityPages = 4096;
    const double ios_per_sec_rcache =
        fig10Leg("rcache", rcache_cfg, preset);

    const double wall_ms = 1000.0 * secondsSince(total_start);
    std::printf("  total wall: %.0f ms\n", wall_ms);

    const std::string path = workload::resultsDir() + "/BENCH_kernel.json";
    {
        const std::filesystem::path p(path);
        std::error_code ec;
        if (p.has_parent_path())
            std::filesystem::create_directories(p.parent_path(), ec);
        std::ofstream os(p);
        if (!os) {
            std::fprintf(stderr, "perf_kernel: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        stats::JsonWriter w(os);
        w.beginObject();
        w.field("bench", "perf_kernel");
        w.field("commit", commit);
        w.field("events_per_sec", events_per_sec);
        w.field("ios_per_sec", ios_per_sec);
        w.field("ios_per_sec_sector", ios_per_sec_sector);
        w.field("ios_per_sec_rcache", ios_per_sec_rcache);
        w.field("wall_ms", wall_ms);
        w.key("config");
        w.beginObject();
        bench::writeDeviceFingerprint(w, cfg);
        w.endObject();
        w.endObject();
        os << "\n";
    }
    std::printf("json: %s\n", path.c_str());
    return 0;
}
