/**
 * @file
 * Trace replay: run any workload — a named synthetic preset or a real
 * MSR Cambridge CSV trace — against a chosen system configuration and
 * print the run's full measurement record as one JSON object
 * (RunResult::toJson) on stdout.
 *
 * Usage:
 *   trace_replay [--system baseline|ida-e0|ida-e20|ida-e50|move-to-lsb]
 *                [--device tlc|mlc|qlc] [--scale F]
 *                [--workload NAME | --msr FILE.csv]
 *                [--suspension] [--wbuf PAGES]
 */
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/log.hh"
#include "workload/batch.hh"
#include "workload/msr_parser.hh"
#include "workload/runner.hh"

namespace {

using namespace ida;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: trace_replay [--system baseline|ida-e0|ida-e20|"
                 "ida-e50|move-to-lsb]\n"
                 "                    [--device tlc|mlc|qlc] [--scale F]\n"
                 "                    [--workload NAME | --msr FILE]\n"
                 "                    [--suspension] [--wbuf PAGES]\n");
    std::exit(2);
}

/** --wbuf's value: a whole number of pages in [0, UINT32_MAX]. */
std::uint32_t
parseWbufPages(const char *s)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    // strtoull would skip blanks and wrap a leading '-'; demand a digit.
    if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
        errno == ERANGE || v > UINT32_MAX)
        sim::fatal(std::string("--wbuf expects a whole number of pages "
                               "from 0 to 4294967295, got '") +
                   s + "'");
    return static_cast<std::uint32_t>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string system = "ida-e20";
    std::string device = "tlc";
    std::string workloadName = "proj_1";
    std::string msrPath;
    double scale = 0.25;
    bool suspension = false;
    std::uint32_t wbufPages = 0;

    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage();
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--system"))
            system = need("--system");
        else if (!std::strcmp(argv[i], "--device"))
            device = need("--device");
        else if (!std::strcmp(argv[i], "--workload"))
            workloadName = need("--workload");
        else if (!std::strcmp(argv[i], "--msr"))
            msrPath = need("--msr");
        else if (!std::strcmp(argv[i], "--scale"))
            scale = workload::parsePositiveReal(need("--scale").c_str(),
                                                "--scale");
        else if (!std::strcmp(argv[i], "--suspension"))
            suspension = true;
        else if (!std::strcmp(argv[i], "--wbuf"))
            wbufPages = parseWbufPages(need("--wbuf").c_str());
        else
            usage();
    }

    ssd::SsdConfig cfg;
    if (device == "tlc")
        cfg = ssd::SsdConfig::paperTlc();
    else if (device == "mlc")
        cfg = ssd::SsdConfig::paperMlc();
    else if (device == "qlc")
        cfg = ssd::SsdConfig::qlcDevice();
    else
        usage();

    cfg.timing.programSuspension = suspension;
    cfg.ftl.writeBuffer.capacityPages = wbufPages;

    if (system == "baseline") {
    } else if (system == "ida-e0") {
        cfg.ftl.enableIda = true;
        cfg.adjustErrorRate = 0.0;
    } else if (system == "ida-e20") {
        cfg.ftl.enableIda = true;
        cfg.adjustErrorRate = 0.2;
    } else if (system == "ida-e50") {
        cfg.ftl.enableIda = true;
        cfg.adjustErrorRate = 0.5;
    } else if (system == "move-to-lsb") {
        cfg.ftl.moveToLsbAlternative = true;
    } else {
        usage();
    }

    workload::RunResult r;
    if (!msrPath.empty()) {
        // Real MSR trace: size the footprint to half the logical space.
        const std::uint64_t footprint =
            ftl::logicalPagesOf(cfg.geometry, cfg.ftl) / 2;
        workload::MsrTrace trace(msrPath, cfg.geometry.pageSizeBytes,
                                 footprint);
        r = workload::runTrace(cfg, trace, footprint, 3 * sim::kDay, 0.3,
                               msrPath);
    } else {
        r = workload::runPreset(
            cfg, workload::scaled(workload::presetByName(workloadName),
                                  scale));
    }
    std::printf("%s\n", r.toJson().c_str());
    return 0;
}
