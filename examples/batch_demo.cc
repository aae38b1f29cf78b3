/**
 * @file
 * Minimal workload::runMatrix walkthrough. Its stdout is byte-identical
 * at any --jobs level (the contract Batch.SameResultsAtAnyParallelism
 * tests); CI's tsan leg runs it at --jobs 4.
 *
 * Builds a tiny 2x2 experiment matrix (two small synthetic workloads,
 * baseline vs IDA-E20, on the tiny test device), executes it through
 * the parallel matrix runner, prints the comparison table, and archives
 * the batch as JSON. Usage:
 *
 *   batch_demo [--jobs N]     # default: all cores (or IDA_JOBS)
 */
#include <cstdio>
#include <iostream>

#include "ssd/config.hh"
#include "stats/table.hh"
#include "workload/batch.hh"

int
main(int argc, char **argv)
{
    using namespace ida;

    // A tiny device and two short workloads: seconds, not minutes.
    ssd::SsdConfig base = ssd::SsdConfig::tiny();
    ssd::SsdConfig ida = base;
    ida.ftl.enableIda = true;
    ida.adjustErrorRate = 0.20;

    auto makePreset = [](const std::string &name, double read_ratio,
                         std::uint64_t seed) {
        workload::WorkloadPreset p;
        p.name = name;
        p.synth.footprintPages = 700;
        p.synth.totalRequests = 5000;
        p.synth.duration = 20 * sim::kMin;
        p.synth.readRatio = read_ratio;
        p.synth.seed = seed;
        p.refreshPeriod = 5 * sim::kMin;
        p.warmupFraction = 0.25;
        p.prewriteFraction = 0.3;
        return p;
    };
    const auto readHeavy = makePreset("read-heavy", 0.95, 11);
    const auto mixed = makePreset("mixed", 0.75, 12);

    std::vector<workload::RunSpec> specs;
    for (const auto &preset : {readHeavy, mixed}) {
        for (const auto *sys : {&base, &ida}) {
            workload::RunSpec s;
            s.device = *sys;
            s.preset = preset;
            s.tag = preset.name + "/" +
                    (sys->ftl.enableIda ? "IDA-E20" : "Baseline");
            specs.push_back(std::move(s));
        }
    }

    workload::BatchOptions opts;
    opts.jobs = workload::jobsFromArgs(argc, argv);
    const auto out = workload::runMatrix(specs, opts);
    if (!out.ok()) {
        for (std::size_t i = 0; i < out.errors.size(); ++i) {
            if (!out.errors[i].empty())
                std::fprintf(stderr, "%s failed: %s\n",
                             specs[i].tag.c_str(), out.errors[i].c_str());
        }
        return 1;
    }

    stats::Table table({"workload", "baseline us", "IDA-E20 us",
                        "improvement"});
    for (std::size_t i = 0; i < specs.size(); i += 2) {
        const auto &rb = out.results[i];
        const auto &ri = out.results[i + 1];
        table.addRow({rb.workload, stats::Table::num(rb.readRespUs, 1),
                      stats::Table::num(ri.readRespUs, 1),
                      stats::Table::pct(ri.readImprovement(rb), 1)});
    }
    table.print(std::cout);

    const std::string path = workload::resultsDir() + "/batch_demo.json";
    if (workload::exportResults(path, "batch_demo", {}, specs, out))
        std::printf("\njson: %s\n", path.c_str());
    return 0;
}
