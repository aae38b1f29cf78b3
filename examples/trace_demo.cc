/**
 * @file
 * Trace demo: run a small mixed workload with per-IO span recording and
 * export (a) a chrome://tracing timeline and (b) the per-phase latency
 * attribution JSON. Open the timeline in chrome://tracing or
 * https://ui.perfetto.dev; with --ida 1 the die-lane sense slabs of
 * refreshed (voltage-adjusted) wordlines visibly shrink, and the
 * attribution's `sensingOpsSaved` counts the Fig. 5 reductions.
 *
 * Usage: trace_demo [--ida 0|1] [--requests N] [--seed S]
 *                   [--trace-out FILE] [--attr-out FILE]
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "sim/log.hh"
#include "ssd/config.hh"
#include "ssd/ssd.hh"
#include "stats/json_writer.hh"
#include "trace/attribution.hh"
#include "trace/chrome_trace.hh"
#include "trace/recorder.hh"

int
main(int argc, char **argv)
{
    using namespace ida;

    bool ida_on = true;
    std::uint64_t requests = 2000;
    std::uint64_t seed = 1;
    std::string trace_out;
    std::string attr_out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--ida")
            ida_on = std::strtol(next(), nullptr, 10) != 0;
        else if (a == "--requests")
            requests = std::strtoull(next(), nullptr, 10);
        else if (a == "--seed")
            seed = std::strtoull(next(), nullptr, 10);
        else if (a == "--trace-out")
            trace_out = next();
        else if (a == "--attr-out")
            attr_out = next();
        else {
            std::fprintf(stderr,
                         "usage: trace_demo [--ida 0|1] [--requests N] "
                         "[--seed S] [--trace-out F] [--attr-out F]\n");
            return 2;
        }
    }

    // A tiny device with everything the trace can show: IDA refresh,
    // read retries, a DRAM write buffer, and enough traffic for queueing.
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.ftl.enableIda = ida_on;
    cfg.adjustErrorRate = 0.2;
    cfg.retrySeverity = 0.5;
    cfg.ftl.writeBuffer.capacityPages = 16;
    cfg.ftl.refreshPeriod = 2 * sim::kMin;
    cfg.ftl.refreshCheckInterval = 5 * sim::kSec;
    cfg.ftl.preloadAgeSpread = 30 * sim::kSec;

    ssd::Ssd ssd(cfg);
    ssd.enableTracing(/*retain_spans=*/true);

    const std::uint64_t footprint = static_cast<std::uint64_t>(
        0.6 * static_cast<double>(ssd.logicalPages()));
    ssd.preloadSequential(footprint);
    ssd.start();

    // Mixed open-loop stream spread over ~3 simulated minutes, so the
    // refresh wave (and with --ida 1, the IDA adjustments) lands
    // mid-run and both coding modes appear in the same timeline.
    sim::Rng rng(seed);
    const sim::Time horizon = 3 * sim::kMin;
    sim::Time arrival{};
    for (std::uint64_t i = 0; i < requests; ++i) {
        arrival += sim::Time{static_cast<std::int64_t>(
            rng.exponential(static_cast<double>(horizon.count()) /
                            static_cast<double>(requests)))};
        ssd::HostRequest hr;
        hr.arrival = arrival;
        hr.isRead = rng.uniform01() < 0.7;
        hr.pageCount = 1 + static_cast<std::uint32_t>(rng.uniformInt(0, 3));
        hr.startPage = rng.uniformInt(0, footprint - hr.pageCount);
        ssd.submit(hr);
    }

    ssd.events().runUntil(std::max(horizon, arrival));
    const sim::Time drain_limit = ssd.events().now() + 10 * sim::kMin;
    while (!ssd.drained() && ssd.events().now() < drain_limit)
        ssd.events().runUntil(ssd.events().now() + sim::kSec);
    if (!ssd.drained())
        sim::warn("trace_demo: device did not drain within the limit");

    const trace::Recorder &rec = *ssd.tracer();
    if (!trace_out.empty()) {
        std::ofstream os(trace_out);
        if (!os)
            sim::fatal("trace_demo: cannot open " + trace_out);
        trace::writeChromeTrace(os, rec.spans(), cfg.geometry);
        std::printf("wrote %zu spans to %s\n", rec.spans().size(),
                    trace_out.c_str());
    }
    if (!attr_out.empty()) {
        std::ofstream os(attr_out);
        if (!os)
            sim::fatal("trace_demo: cannot open " + attr_out);
        stats::JsonWriter w(os);
        trace::writeAttributionJson(w, rec.summary());
        os << "\n";
        std::printf("wrote attribution to %s\n", attr_out.c_str());
    }

    const trace::AttributionSummary sum = rec.summary();
    std::printf("system: %s\n", cfg.systemLabel().c_str());
    std::printf("spans: %llu  hostReads: %llu  wbufHits: %llu  "
                "internal: %llu\n",
                static_cast<unsigned long long>(sum.counters.spans),
                static_cast<unsigned long long>(sum.counters.hostReads),
                static_cast<unsigned long long>(sum.counters.wbufReadHits),
                static_cast<unsigned long long>(
                    sum.counters.internalReads +
                    sum.counters.internalPrograms));
    for (int p = 0; p < trace::kNumPhases; ++p) {
        if (sum.phases[p].count == 0)
            continue;
        std::printf("  %-12s mean %8.2f us  (n=%llu)\n",
                    trace::phaseName(p), sum.phases[p].meanUs,
                    static_cast<unsigned long long>(sum.phases[p].count));
    }
    std::printf("sensing ops: %llu  conventional: %llu  saved: %llu\n",
                static_cast<unsigned long long>(sum.counters.sensingOps),
                static_cast<unsigned long long>(
                    sum.counters.sensingOpsConventional),
                static_cast<unsigned long long>(
                    sum.counters.sensingOpsSaved));
    return 0;
}
