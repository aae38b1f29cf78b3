/**
 * @file
 * perfbench: run one workload for a fixed time and print its metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--device-seed <n>] [--scale <f>] [--spans-out <path>]
 *             [--compare-runner 1]
 *
 * The run repeats whole trials (set-up, run, drain, harvest) until
 * --seconds have passed, measures the host's speed between trials
 * (reference.hh), and reports medians over the trials. With --trace 0
 * it prints the end-to-end metrics; with --trace 1 it alternates
 * untraced and traced trials and prints the per-layer metrics, the
 * fixed-input legs and the tracing overhead. Progress goes to stderr;
 * the last line of stdout is one JSON object. The exit code is 0 only
 * when every check passed.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "drivers.hh"
#include "legs.hh"
#include "reference.hh"

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    bool deviceSeedSet = false;
    std::uint64_t deviceSeed = 0;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    std::string spansOut;
    bool compareRunner = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--device-seed <n>] [--scale <f>] [--spans-out <path>] "
                 "[--compare-runner 1]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--device-seed") {
            a.deviceSeed = std::strtoull(v, &end, 10);
            a.deviceSeedSet = true;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "1") == 0;
            if (!a.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (k == "--scale") {
            a.scale = std::strtod(v, &end);
            if (!(a.scale > 0.0))
                usage("--scale must be positive");
        } else if (k == "--spans-out") {
            a.spansOut = v;
        } else if (k == "--compare-runner") {
            a.compareRunner = std::strcmp(v, "1") == 0;
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end && *end != '\0')
            usage(("bad number for " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** splitmix64: independent streams for the workload and the device. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t h = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
ioRate(const Trial &t)
{
    return t.runCpuS > 0.0 ? static_cast<double>(t.hostIos) / t.runCpuS
                           : 0.0;
}

/** Host IOs per CPU-second at nominal host speed (reference.hh). */
double
normRate(const Trial &t)
{
    return ioRate(t) / t.hostSpeed;
}

/** Metric name -> unit, for every metric this program prints. */
const char *
unitOf(const std::string &name)
{
    static const std::vector<std::pair<std::string, const char *>> kUnits =
        {
            // End to end (--trace 0).
            {"host_ios_per_cpu_s", "1/s"},
            {"setup_s", "s"},
            {"peak_rss_mib", "MiB"},
            {"sim_read_mean_us", "us"},
            {"sim_resp_mean_us", "us"},
            {"sim_kiops", "kIOPS"},
            {"sensing_saved_frac", "ratio"},
            // Per layer (--trace 1).
            {"workload.next_ns", "ns"},
            {"workload.share", "ratio"},
            {"ssd.submit_ns", "ns"},
            {"ssd.ctor_s", "s"},
            {"sim.run_self_ns_per_io", "ns"},
            {"sim.events_per_io", "count"},
            {"sim.run_self_ns_per_event", "ns"},
            {"sim.kernel_ns_per_event", "ns"},
            {"sim.pending_max", "count"},
            {"sim.read_p50_us", "us"},
            {"sim.read_p999_us", "us"},
            {"sim.write_p50_us", "us"},
            {"sim.write_p999_us", "us"},
            {"sim.past_schedules", "count"},
            {"ftl.preload_s", "s"},
            {"ftl.refresh_wave_s", "s"},
            {"ftl.refresh_wave_events", "count"},
            {"ftl.refresh_wave_jobs", "count"},
            {"ftl.refresh.jobs", "count"},
            {"ftl.refresh.adjusted_wordlines", "count"},
            {"ftl.refresh.extra_reads", "count"},
            {"ftl.refresh.extra_writes", "count"},
            {"ftl.gc.invocations", "count"},
            {"ftl.gc.migrated_pages", "count"},
            {"ftl.gc.erases", "count"},
            {"ftl.waf", "ratio"},
            {"ftl.ida_served_frac", "ratio"},
            {"ftl.sector.rmw_reads", "count"},
            {"ftl.sector.rmw_retry_frac", "ratio"},
            {"ftl.max_in_use_frac", "ratio"},
            {"cache.hit_ratio", "ratio"},
            {"cache.evictions", "count"},
            {"cache.lookup_ns", "ns"},
            {"flash.reads_per_io", "count"},
            {"flash.programs_per_io", "count"},
            {"flash.erases", "count"},
            {"flash.adjusts", "count"},
            {"flash.sensing_per_read", "count"},
            {"flash.die_util", "ratio"},
            {"flash.channel_util", "ratio"},
            {"ecc.retry_rounds_per_read", "count"},
            {"ecc.draw_ns", "ns"},
            {"stats.harvest_ms", "ms"},
            {"stats.measured_ios", "count"},
            {"bench.window_ios", "count"},
            {"bench.zero_latency_read_frac", "ratio"},
            {"bench.io_failed_frac", "ratio"},
            {"fleet.ctor_s", "s"},
            {"fleet.preload_s", "s"},
            {"fleet.run_ns_per_io", "ns"},
            {"fleet.subs_per_io", "count"},
            {"trace.overhead_ratio", "ratio"},
            {"bench.host_speed", "ratio"},
        };
    for (const auto &[n, u] : kUnits) {
        if (n == name)
            return u;
    }
    std::fprintf(stderr, "perfbench: metric %s has no unit\n",
                 name.c_str());
    std::abort();
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<std::pair<std::string, double>> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               unitOf(name) + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** Exact nearest-rank quantile; sorts @p v. */
double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/**
 * Sub-seeds per run. Trial i runs sub-seed i % kSubSeeds, and the
 * simulated metrics pool the first kSubSeeds trials, so they depend on
 * --seed alone while averaging over several request streams.
 */
constexpr std::size_t kSubSeeds = 4;

/** The simulated end-to-end metrics, pooled over @p trials. */
void
simMetrics(const std::vector<const Trial *> &trials,
           std::vector<std::pair<std::string, double>> &out)
{
    SimTotals p;
    for (const Trial *t : trials) {
        p.readUs += t->sim.readUs;
        p.reads += t->sim.reads;
        p.writeUs += t->sim.writeUs;
        p.writes += t->sim.writes;
        p.windowSimS += t->sim.windowSimS;
        p.sensingSaved += t->sim.sensingSaved;
        p.sensingConv += t->sim.sensingConv;
    }
    const auto div = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    out.emplace_back("sim_read_mean_us",
                     div(p.readUs, static_cast<double>(p.reads)));
    out.emplace_back("sim_resp_mean_us",
                     div(p.readUs + p.writeUs,
                         static_cast<double>(p.reads + p.writes)));
    out.emplace_back("sim_kiops",
                     div(static_cast<double>(p.reads + p.writes),
                         p.windowSimS) /
                         1000.0);
    out.emplace_back("sensing_saved_frac",
                     div(static_cast<double>(p.sensingSaved),
                         static_cast<double>(p.sensingConv)));
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::uint64_t workloadSeed = mix(args.seed, 0);
    const std::uint64_t deviceSeed =
        args.deviceSeedSet ? args.deviceSeed : mix(args.seed, 1);
    std::vector<Workload> subs(kSubSeeds);
    for (std::size_t k = 0; k < kSubSeeds; ++k) {
        if (!makeWorkload(args.workload, mix(workloadSeed, k),
                          mix(deviceSeed, k), args.scale, subs[k]))
            usage(("unknown workload " + args.workload).c_str());
    }
    const Workload &w = subs.front();

    // Trials cycle through the sub-seeds; the first kSubSeeds are
    // untraced and carry the simulated metrics. A traced run then
    // alternates traced and untraced trials.
    SpanLog off(false);
    SpanLog on(true);
    LegInputs legInputs;
    std::vector<Trial> untraced, traced;
    std::vector<std::size_t> untracedSub, tracedSub;
    double speedBefore = hostSpeed();
    const double start = wallSeconds();
    for (;;) {
        if (wallSeconds() - start >= args.seconds &&
            untraced.size() >= kSubSeeds &&
            (!args.trace || (!traced.empty() &&
                             traced.size() + kSubSeeds == untraced.size())))
            break;
        const bool tracedTrial = args.trace && untraced.size() >= kSubSeeds &&
                                 traced.size() + kSubSeeds == untraced.size();
        const std::size_t sub =
            (tracedTrial ? traced.size() : untraced.size()) % kSubSeeds;
        // Announce the attempt first: a run that dies inside the
        // simulator still accounts for every op it attempted.
        std::printf("attempting %llu\n",
                    static_cast<unsigned long long>(
                        subs[sub].preset.synth.totalRequests));
        std::fflush(stdout);
        const bool keep = args.trace && untraced.size() < kSubSeeds;
        Trial t;
        if (tracedTrial) {
            on.reserve(4 * subs[sub].preset.synth.totalRequests + 1024);
            t = runTrial(subs[sub], on, false, nullptr);
        } else {
            t = runTrial(subs[sub], off, keep,
                         args.trace && untraced.empty() ? &legInputs
                                                        : nullptr);
        }
        // The host's speed around the trial: the geometric mean of the
        // reference runs just before and just after it.
        const double speedAfter = hostSpeed();
        t.hostSpeed = std::sqrt(speedBefore * speedAfter);
        speedBefore = speedAfter;
        std::fprintf(stderr,
                     "perfbench: %s trial %zu%s: %llu ios, setup %.3f "
                     "cpu-s, run %.3f cpu-s, %.0f ios/cpu-s, host speed "
                     "%.3f%s\n",
                     w.name.c_str(), untraced.size() + traced.size(),
                     tracedTrial ? " (traced)" : "",
                     static_cast<unsigned long long>(t.hostIos), t.setupCpuS,
                     t.runCpuS, ioRate(t), t.hostSpeed,
                     t.failures.empty() ? "" : " FAILED");
        (tracedTrial ? traced : untraced).push_back(std::move(t));
        (tracedTrial ? tracedSub : untracedSub).push_back(sub);
    }

    // Checks: each trial's own, and that every trial of one sub-seed,
    // traced or not, simulated exactly the same thing.
    std::vector<std::string> failures;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<const Trial *> firstOf(kSubSeeds, nullptr);
    const auto check = [&](const Trial &t, std::size_t sub) {
        attempted += t.attempted;
        std::uint64_t bad = t.failed;
        failures.insert(failures.end(), t.failures.begin(), t.failures.end());
        if (!firstOf[sub]) {
            firstOf[sub] = &t;
        } else if (!(t.sim == firstOf[sub]->sim) ||
                   t.counts != firstOf[sub]->counts ||
                   t.archive != firstOf[sub]->archive) {
            failures.push_back("two trials of one seed simulated "
                               "different results");
            bad = t.attempted;
        }
        failed += bad;
    };
    for (std::size_t i = 0; i < untraced.size(); ++i)
        check(untraced[i], untracedSub[i]);
    for (std::size_t i = 0; i < traced.size(); ++i)
        check(traced[i], tracedSub[i]);
    // The host loop must reproduce the library's runner exactly; the
    // benchmark's own test turns this on.
    if (args.compareRunner && runnerArchive(subs[0]) != firstOf[0]->archive) {
        failures.push_back("host loop and library runner disagree");
        failed = attempted;
    }
    const bool correct = failures.empty();
    for (const std::string &f : failures)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());

    std::vector<std::pair<std::string, double>> metrics;
    if (!args.trace) {
        // Host times are in CPU-seconds at nominal host speed: on a
        // shared host the raw ones drift with other tenants' load
        // (README.md).
        std::vector<double> rates, setups;
        for (const Trial &t : untraced) {
            rates.push_back(normRate(t));
            setups.push_back(t.setupCpuS * t.hostSpeed);
        }
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics.emplace_back("host_ios_per_cpu_s", median(rates));
        metrics.emplace_back("setup_s", median(setups));
        metrics.emplace_back("peak_rss_mib",
                             static_cast<double>(ru.ru_maxrss) / 1024.0);
        simMetrics(firstOf, metrics);
    } else {
        // Counts: the mean over the sub-seeds. Times: the median over
        // every traced trial. Percentiles: exact, over the pooled
        // window samples of the sub-seeds.
        std::vector<double> reads, writes;
        for (const Trial *t : firstOf) {
            reads.insert(reads.end(), t->readUs.begin(), t->readUs.end());
            writes.insert(writes.end(), t->writeUs.begin(),
                          t->writeUs.end());
        }
        for (const auto &[name, value] : firstOf.front()->counts) {
            double sum = 0.0;
            for (const Trial *t : firstOf)
                sum += t->counts.at(name);
            metrics.emplace_back(name, sum / kSubSeeds);
        }
        for (const auto &[name, value] : traced.front().times) {
            std::vector<double> v;
            for (const Trial &t : traced)
                v.push_back(t.times.at(name));
            metrics.emplace_back(name, median(v));
        }
        metrics.emplace_back("sim.read_p50_us", quantile(reads, 0.5));
        metrics.emplace_back("sim.read_p999_us", quantile(reads, 0.999));
        metrics.emplace_back("sim.write_p50_us", quantile(writes, 0.5));
        metrics.emplace_back("sim.write_p999_us", quantile(writes, 0.999));
        metrics.emplace_back("sim.kernel_ns_per_event",
                             kernelNsPerEvent(legInputs, workloadSeed));
        metrics.emplace_back("cache.lookup_ns", cacheLookupNs(legInputs));
        metrics.emplace_back("ecc.draw_ns",
                             eccDrawNs(legInputs, deviceSeed));
        std::vector<double> tr, un, speeds;
        for (const Trial &t : traced) {
            tr.push_back(normRate(t));
            speeds.push_back(t.hostSpeed);
        }
        for (const Trial &t : untraced) {
            un.push_back(normRate(t));
            speeds.push_back(t.hostSpeed);
        }
        metrics.emplace_back("trace.overhead_ratio",
                             median(tr) / median(un));
        metrics.emplace_back("bench.host_speed", median(speeds));
        metrics.emplace_back("bench.io_failed_frac",
                             attempted ? static_cast<double>(failed) /
                                             static_cast<double>(attempted)
                                       : 0.0);
        if (!args.spansOut.empty() && !on.write(args.spansOut)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.spansOut.c_str());
            return 1;
        }
    }
    std::sort(metrics.begin(), metrics.end());
    for (const auto &[name, value] : metrics)
        std::fprintf(stderr, "  %-34s %.6g %s\n", name.c_str(), value,
                     unitOf(name));
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
