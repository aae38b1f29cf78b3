/**
 * @file
 * Golden-file regression test for the trace exporters: a fixed-seed
 * mini run must reproduce the committed chrome-trace and attribution
 * JSON byte-for-byte. Catches any drift in the instrumentation stamps,
 * the phase decomposition, the JSON writer, or the simulator's timing
 * itself — anything that moves a single event shows up as a diff.
 *
 * The run attaches its own recorder (Ssd::enableTracing). To
 * regenerate the goldens after an *intentional* change, run
 * `tools/update_trace_golden.sh` (or set IDA_UPDATE_GOLDEN=1 when
 * invoking this test) and commit the diff alongside the change that
 * caused it — see docs/TESTING.md.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ssd/config.hh"
#include "ssd/ssd.hh"
#include "stats/json_writer.hh"
#include "trace/attribution.hh"
#include "trace/chrome_trace.hh"
#include "trace/recorder.hh"

namespace ida {
namespace {

struct Exports
{
    std::string chrome;
    std::string attribution;
};

/** The fixed-seed mini run: deterministic by construction (simulated
 *  clock only, device seed and request stream both pinned). */
Exports
runMini()
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.ftl.enableIda = true;
    cfg.adjustErrorRate = 0.2;
    cfg.retrySeverity = 0.5;
    cfg.ftl.writeBuffer.capacityPages = 8;
    cfg.ftl.refreshPeriod = 2 * sim::kMin;
    cfg.ftl.refreshCheckInterval = 5 * sim::kSec;
    cfg.ftl.preloadAgeSpread = 30 * sim::kSec;
    cfg.seed = 42;

    ssd::Ssd dev(cfg);
    dev.enableTracing(/*retain_spans=*/true);
    const auto footprint = static_cast<std::uint64_t>(
        0.6 * static_cast<double>(dev.logicalPages()));
    dev.preloadSequential(footprint);
    dev.start();

    sim::Rng rng(2024);
    sim::Time arrival{};
    for (int i = 0; i < 200; ++i) {
        arrival += sim::Time{static_cast<std::int64_t>(rng.exponential(
            static_cast<double>((3 * sim::kMin).count()) / 200))};
        ssd::HostRequest hr;
        hr.arrival = arrival;
        hr.isRead = rng.uniform01() < 0.65;
        hr.pageCount = 1 + static_cast<std::uint32_t>(
            rng.uniformInt(0, 2));
        hr.startPage = rng.uniformInt(0, footprint - hr.pageCount);
        dev.submit(hr);
    }
    dev.events().runUntil(std::max<sim::Time>(3 * sim::kMin, arrival));
    const sim::Time drain_limit = dev.events().now() + 10 * sim::kMin;
    while (!dev.drained() && dev.events().now() < drain_limit)
        dev.events().runUntil(dev.events().now() + sim::kSec);

    Exports e;
    {
        // The chrome golden carries the first spans only: enough to pin
        // every event shape (lanes, sense slabs, transfers, instants)
        // while keeping the committed file a few hundred KB. The full
        // run's *timing* is still pinned through the attribution golden
        // (exact totals over every span), and per-span invariants are
        // checked exhaustively by the cross-check in test_trace.cc.
        const auto &all = dev.tracer()->spans();
        const std::vector<trace::Span> head(
            all.begin(),
            all.begin() + std::min<std::size_t>(all.size(), 400));
        std::ostringstream os;
        trace::writeChromeTrace(os, head, cfg.geometry);
        e.chrome = os.str();
    }
    {
        std::ostringstream os;
        stats::JsonWriter w(os);
        trace::writeAttributionJson(w, dev.tracer()->summary());
        os << "\n";
        e.attribution = os.str();
    }
    return e;
}

std::string
goldenPath(const char *file)
{
    return std::string(IDA_GOLDEN_DIR) + "/" + file;
}

bool
updateRequested()
{
    const char *env = std::getenv("IDA_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void
compareOrUpdate(const std::string &actual, const char *file)
{
    const std::string path = goldenPath(file);
    if (updateRequested()) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << actual;
        SUCCEED() << "updated " << path;
        return;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "golden file missing: " << path
                    << " (generate with tools/update_trace_golden.sh)";
    std::ostringstream expected;
    expected << is.rdbuf();
    // Byte comparison; on mismatch report sizes and first difference
    // rather than dumping two multi-hundred-KB documents.
    if (actual == expected.str()) {
        SUCCEED();
        return;
    }
    const std::string &e = expected.str();
    std::size_t firstDiff = 0;
    while (firstDiff < actual.size() && firstDiff < e.size() &&
           actual[firstDiff] == e[firstDiff])
        ++firstDiff;
    ADD_FAILURE() << file << " drifted from the golden copy: sizes "
                  << actual.size() << " vs " << e.size()
                  << ", first difference at byte " << firstDiff
                  << " (context: ..."
                  << actual.substr(
                         firstDiff > 40 ? firstDiff - 40 : 0, 80)
                  << "...). If the change is intentional, regenerate "
                     "with tools/update_trace_golden.sh and commit the "
                     "diff.";
}

TEST(TraceGolden, ChromeTraceMatchesGolden)
{
    compareOrUpdate(runMini().chrome, "trace_mini.json");
}

TEST(TraceGolden, AttributionMatchesGolden)
{
    const Exports e = runMini();
    compareOrUpdate(e.attribution, "attr_mini.json");
    // Beyond byte equality: the golden run itself must demonstrate the
    // paper's effect (a nonzero sensing reduction from IDA).
    EXPECT_EQ(e.attribution.find("\"sensingOpsSaved\": 0,"),
              std::string::npos)
        << "golden mini run produced no IDA sensing savings";
}

} // namespace
} // namespace ida
