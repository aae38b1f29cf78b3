/**
 * @file
 * Fleet shard-scaling benchmark: wall-clock throughput of the sharded
 * multi-device event loop (src/fleet) at --shards 1 / 2 / 8.
 *
 * One fixed 16-device fleet workload (tiny IDA-enabled members, the
 * fleet_demo shape scaled up) is replayed three times with identical
 * configuration except the shard count. By the fleet determinism
 * contract all three legs must produce byte-identical archive JSON —
 * the bench verifies that and aborts on divergence, so a perf run
 * doubles as a determinism check. It also asserts pastSchedules == 0:
 * a leg that clamped a past-time event is not a valid measurement.
 *
 * Emits $IDA_RESULTS_DIR/BENCH_fleet.json with the schema
 *   { "bench": "fleet_throughput", "commit": <IDA_BENCH_COMMIT>,
 *     "fleet_ios_per_sec": N,           // shards=1 leg, the gate rate
 *     "fleet_ios_per_sec_shards2": N, "fleet_ios_per_sec_shards8": N,
 *     "scaling_shards2": N, "scaling_shards8": N,  // wall1 / wallN
 *     "wall_ms": N, "config": { fleet/geometry/coding/build } }
 *
 * The per-leg rates divide by process CPU time, not wall time — wall
 * time on a shared box charges the fleet for every preemption and
 * swings far beyond the regression gate's tolerance (same reasoning
 * as perf_kernel's events_per_sec). CPU time also prices the shard
 * pool honestly: a leg whose workers burn cycles on handoff shows a
 * lower rate. The scaling ratios stay wall-based on purpose — elapsed
 * time is the quantity sharding exists to shrink.
 *
 * The config fingerprint includes host_cores: shard scaling is a
 * property of the host's parallelism, not just the build, and
 * tools/check_bench_json.sh must self-skip the regression comparison
 * when a baseline from a different core count is supplied. On a
 * single-core host the scaling ratios sit at or below 1.0 — the
 * barrier and thread handoff are pure overhead when every shard
 * timeshares one core — so treat scaling numbers as meaningful only
 * when host_cores >= the shard count. See docs/PERF.md.
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench_util.hh"
#include "fleet/fleet.hh"
#include "ssd/config.hh"
#include "stats/json_writer.hh"
#include "workload/presets.hh"
#include "workload/batch.hh"

namespace {

/**
 * Everything that makes two BENCH_fleet.json records incomparable:
 * the member device fingerprint (mirroring perf_kernel's), the fleet
 * topology, and the host's core count (scaling ratios from hosts with
 * different parallelism are not the same measurement).
 */
void
writeFingerprint(ida::stats::JsonWriter &w,
                 const ida::fleet::FleetConfig &fc, unsigned host_cores,
                 std::uint64_t requests)
{
    w.key("config");
    w.beginObject();
    w.key("fleet");
    w.beginObject();
    w.field("devices", std::uint64_t{fc.devices});
    w.field("stripe_pages", fc.stripePages);
    w.field("epoch_us", static_cast<std::uint64_t>(fc.epoch / ida::sim::kUsec));
    w.field("host_cores", std::uint64_t{host_cores});
    // Unlike events_per_sec, the fleet rate is NOT scale-independent:
    // the footprint and simulated duration stay fixed while the request
    // count scales, so preload/refresh overhead amortizes differently.
    // A smoke-scale record must not gate against a full-scale baseline.
    w.field("requests", requests);
    w.endObject();
    ida::bench::writeDeviceFingerprint(w, fc.device);
    w.endObject();
}

struct Leg
{
    double iosPerSec = 0.0;
    double wallSeconds = 0.0;
    std::string archive;
};

Leg
runLeg(int shards, std::uint64_t requests)
{
    using namespace ida;

    fleet::FleetConfig fc;
    fc.device = ssd::SsdConfig::tiny();
    fc.device.ftl.enableIda = true;
    fc.device.adjustErrorRate = 0.20;
    fc.devices = 16;
    fc.stripePages = 8;
    fc.shards = shards;
    fc.epoch = 50 * sim::kMsec;
    fc.fleetSeed = 0x1da'f1ee7;

    workload::WorkloadPreset p;
    p.name = "fleet-bench";
    p.synth.footprintPages = std::uint64_t{fc.devices} * 600;
    p.synth.totalRequests = requests;
    p.synth.duration = 30 * sim::kMin;
    p.synth.readRatio = 0.9;
    p.synth.seed = 17;
    p.refreshPeriod = 2 * sim::kMin;
    p.warmupFraction = 0.25;
    p.prewriteFraction = 0.3;

    const double cpu_start = ida::bench::cpuSeconds();
    const fleet::FleetResult res = fleet::runFleetPreset(fc, p);
    if (res.pastSchedules != 0) {
        std::fprintf(stderr,
                     "fleet_throughput: FAIL - shards=%d leg clamped "
                     "%llu past-time events; not a valid measurement\n",
                     shards,
                     static_cast<unsigned long long>(res.pastSchedules));
        std::exit(1);
    }

    Leg leg;
    leg.wallSeconds = res.wallSeconds;
    const double cpu = ida::bench::cpuSeconds() - cpu_start;
    const double ios =
        static_cast<double>(res.measuredReads + res.measuredWrites);
    leg.iosPerSec = cpu > 0.0 ? ios / cpu : 0.0;
    leg.archive = res.toJson(/*include_volatile=*/false);
    std::printf("  ios/sec[shards=%d]: %.0f  (%.0f measured IOs, "
                "%.2fs cpu, %.2fs wall)\n",
                shards, leg.iosPerSec, ios, cpu, res.wallSeconds);
    return leg;
}

} // namespace

int
main()
{
    using namespace ida;

    const std::uint64_t requests =
        bench::envU64("IDA_FLEET_REQUESTS", 60'000);
    const char *commit_env = std::getenv("IDA_BENCH_COMMIT");
    const std::string commit = commit_env ? commit_env : "unknown";
    const unsigned host_cores = std::thread::hardware_concurrency();

    std::printf("fleet_throughput: 16 devices, %llu requests, host has "
                "%u core(s)\n",
                static_cast<unsigned long long>(requests), host_cores);

    const Leg l1 = runLeg(1, requests);
    const Leg l2 = runLeg(2, requests);
    const Leg l8 = runLeg(8, requests);

    // The determinism contract is part of the measurement's validity:
    // a leg that diverged simulated different work, and its wall time
    // is not comparable to the others'.
    if (l1.archive != l2.archive || l1.archive != l8.archive) {
        std::fprintf(stderr,
                     "fleet_throughput: FAIL - archive JSON diverged "
                     "across shard counts (determinism contract "
                     "broken)\n");
        return 1;
    }
    std::printf("  archive JSON byte-identical across shards 1/2/8\n");

    const double scaling2 =
        l2.wallSeconds > 0.0 ? l1.wallSeconds / l2.wallSeconds : 0.0;
    const double scaling8 =
        l8.wallSeconds > 0.0 ? l1.wallSeconds / l8.wallSeconds : 0.0;
    const double wall_ms =
        1000.0 * (l1.wallSeconds + l2.wallSeconds + l8.wallSeconds);
    std::printf("  scaling: x%.2f at 2 shards, x%.2f at 8 shards "
                "(wall %.2fs -> %.2fs -> %.2fs)\n",
                scaling2, scaling8, l1.wallSeconds, l2.wallSeconds,
                l8.wallSeconds);

    fleet::FleetConfig fingerprint_cfg;
    fingerprint_cfg.device = ssd::SsdConfig::tiny();
    fingerprint_cfg.device.ftl.enableIda = true;
    fingerprint_cfg.device.adjustErrorRate = 0.20;
    fingerprint_cfg.devices = 16;
    fingerprint_cfg.stripePages = 8;
    fingerprint_cfg.epoch = 50 * sim::kMsec;

    const std::string path = workload::resultsDir() + "/BENCH_fleet.json";
    {
        const std::filesystem::path fp(path);
        std::error_code ec;
        if (fp.has_parent_path())
            std::filesystem::create_directories(fp.parent_path(), ec);
        std::ofstream os(fp);
        if (!os) {
            std::fprintf(stderr, "fleet_throughput: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        stats::JsonWriter w(os);
        w.beginObject();
        w.field("bench", "fleet_throughput");
        w.field("commit", commit);
        w.field("fleet_ios_per_sec", l1.iosPerSec);
        w.field("fleet_ios_per_sec_shards2", l2.iosPerSec);
        w.field("fleet_ios_per_sec_shards8", l8.iosPerSec);
        w.field("scaling_shards2", scaling2);
        w.field("scaling_shards8", scaling8);
        w.field("wall_ms", wall_ms);
        writeFingerprint(w, fingerprint_cfg, host_cores, requests);
        w.endObject();
        os << "\n";
    }
    std::printf("json: %s\n", path.c_str());
    return 0;
}
