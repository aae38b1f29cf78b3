/**
 * @file
 * Minimal fleet::runFleetPreset walkthrough. A repeat run prints
 * byte-identical stdout with pastSchedules == 0 (the contract
 * Fleet.ByteIdenticalOnRepeatWithNoPastSchedules tests).
 *
 * Builds a 16-device fleet of tiny devices, replays a short synthetic
 * read-heavy trace striped across the members, and prints the archive
 * JSON (aggregate + per-device) to stdout. Usage:
 *
 *   fleet_demo [--devices N] [--stripe PAGES]
 *              [--tag TAG]                # tag-derived fleet seed
 */
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "fleet/fleet.hh"
#include "sim/log.hh"
#include "ssd/config.hh"
#include "workload/batch.hh"

int
main(int argc, char **argv)
{
    using namespace ida;

    std::uint32_t devices = 16;
    std::uint64_t stripe = 8;
    std::string tag = "fleet-demo";

    auto numeric = [](const char *s, const char *opt) -> long {
        const long v = std::strtol(s, nullptr, 10);
        if (v <= 0)
            sim::fatal(std::string(opt) +
                       " expects a positive integer, got '" + s + "'");
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const bool hasNext = i + 1 < argc;
        if (std::strcmp(a, "--devices") == 0 && hasNext) {
            devices = static_cast<std::uint32_t>(
                numeric(argv[++i], "--devices"));
        } else if (std::strcmp(a, "--stripe") == 0 && hasNext) {
            stripe = static_cast<std::uint64_t>(
                numeric(argv[++i], "--stripe"));
        } else if (std::strcmp(a, "--tag") == 0 && hasNext) {
            tag = argv[++i];
        } else {
            sim::fatal(std::string("unknown argument: ") + a);
        }
    }

    fleet::FleetConfig fc;
    fc.device = ssd::SsdConfig::tiny();
    fc.device.ftl.enableIda = true;
    fc.device.adjustErrorRate = 0.20;
    fc.devices = devices;
    fc.stripePages = stripe;
    fc.epoch = 50 * sim::kMsec;
    // The batch layer's tag-derived-seed discipline, one level up: the
    // fleet seed comes from the experiment tag, each member decorrelates
    // from it via fleet::deviceSeed.
    fc.fleetSeed = workload::seedFromTag(tag);

    workload::WorkloadPreset p;
    p.name = "fleet-smoke";
    p.synth.footprintPages = std::uint64_t{devices} * 600;
    p.synth.totalRequests = 6000;
    p.synth.duration = 5 * sim::kMin;
    p.synth.readRatio = 0.9;
    p.synth.seed = 17;
    p.refreshPeriod = 2 * sim::kMin;
    p.warmupFraction = 0.25;
    p.prewriteFraction = 0.3;

    const fleet::FleetResult res = fleet::runFleetPreset(fc, p);

    // Archive form only: byte-identical from run to run by contract.
    std::cout << res.toJson(/*include_volatile=*/false);
    std::cerr << "fleet: " << res.measuredReads << " measured reads, "
              << res.pastSchedules << " past schedules, "
              << res.wallSeconds << "s wall\n";
    return 0;
}
