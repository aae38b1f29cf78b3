/**
 * @file
 * Export one of the named synthetic workloads as an MSR Cambridge CSV
 * trace — so the exact request stream this library evaluates can be
 * replayed on other simulators (or fed back in through --msr to verify
 * the round trip).
 *
 * Usage: export_trace [workload] [scale] > trace.csv
 */
#include <cstdio>
#include <iostream>

#include "workload/batch.hh"
#include "workload/msr_writer.hh"
#include "workload/presets.hh"

int
main(int argc, char **argv)
{
    using namespace ida;

    const std::string name = argc > 1 ? argv[1] : "proj_1";
    const double scale =
        argc > 2 ? workload::parsePositiveReal(argv[2], "scale") : 0.1;

    const workload::WorkloadPreset preset =
        workload::scaled(workload::presetByName(name), scale);
    workload::SyntheticTrace trace(preset.synth);

    workload::MsrWriterConfig cfg;
    cfg.hostname = name;
    const auto n = workload::writeMsrCsv(std::cout, trace, cfg);
    std::fprintf(stderr,
                 "exported %llu requests of %s (footprint %llu pages) "
                 "as MSR CSV\n",
                 static_cast<unsigned long long>(n), name.c_str(),
                 static_cast<unsigned long long>(
                     preset.synth.footprintPages));
    return 0;
}
