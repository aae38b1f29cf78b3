/**
 * @file
 * Differential golden test for the page-mapped FTL: fixed-seed runs
 * through the public runner API must reproduce the committed result
 * JSON byte-for-byte (RunResult::writeJson with volatile fields
 * omitted). A byte-identical match proves a refactor of the FTL or the
 * device layer around it is behavior-neutral — no timing, counter, or
 * serialization drift.
 *
 * Three legs pin the surfaces such refactors touch:
 *   fig10  — closed-loop throughput (baseline + IDA-E20), the shape of
 *            bench/fig10_throughput at miniature scale.
 *   sector — open-loop sector-mode run with write buffer + read cache,
 *            exercising the sub-page masks and the cache hierarchy.
 *
 * The runner attaches no span recorder, so the attribution block is
 * the zeroed `enabled: false` object the goldens pin.
 *
 * To regenerate after an *intentional* behavior change, run with
 * IDA_UPDATE_GOLDEN=1 and commit the diff alongside the change.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "ssd/config.hh"
#include "workload/runner.hh"

namespace ida::workload {
namespace {

/** hm_1 shrunk to golden scale: a few thousand requests, small
 *  footprint, enough churn to exercise GC + refresh + IDA. */
WorkloadPreset
goldenPreset()
{
    WorkloadPreset p = scaled(presetByName("hm_1"), 0.05);
    p.synth.footprintPages = 12'000;
    return p;
}

std::string
fig10Leg(bool ida)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::paperTlc();
    if (ida) {
        cfg.ftl.enableIda = true;
        cfg.adjustErrorRate = 0.20;
    }
    return runClosedLoop(cfg, goldenPreset(), /*queue_depth=*/8)
        .toJson(/*include_volatile=*/false);
}

std::string
sectorLeg()
{
    ssd::SsdConfig cfg = ssd::SsdConfig::paperTlc();
    cfg.ftl.enableIda = true;
    cfg.adjustErrorRate = 0.20;
    cfg.ftl.writeBuffer.capacityPages = 32;
    cfg.ftl.readCache.capacityPages = 64;

    WorkloadPreset p = scaled(presetByName("hm_1"), 0.02);
    p.synth.footprintPages = 6'000;
    p.synth.subPageFraction = 0.4;
    p.synth.sectorsPerPage = cfg.geometry.sectorsPerPage();
    return runPreset(cfg, p).toJson(/*include_volatile=*/false);
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
    const std::string path = std::string(IDA_GOLDEN_DIR) + "/" + file;
    if (updateRequested()) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << actual << "\n";
        SUCCEED() << "updated " << path;
        return;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "golden file missing: " << path
                    << " (generate with IDA_UPDATE_GOLDEN=1)";
    std::ostringstream expected;
    expected << is.rdbuf();
    const std::string want = actual + "\n";
    if (want == expected.str()) {
        SUCCEED();
        return;
    }
    const std::string &e = expected.str();
    std::size_t firstDiff = 0;
    while (firstDiff < want.size() && firstDiff < e.size() &&
           want[firstDiff] == e[firstDiff])
        ++firstDiff;
    ADD_FAILURE() << file << " drifted from the golden copy: sizes "
                  << want.size() << " vs " << e.size()
                  << ", first difference at byte " << firstDiff
                  << " (context: ..."
                  << want.substr(firstDiff > 40 ? firstDiff - 40 : 0, 80)
                  << "...). The page-mapped FTL must stay "
                     "byte-identical to the committed golden; "
                     "regenerate with IDA_UPDATE_GOLDEN=1 only for an "
                     "intentional behavior change.";
}

TEST(BackendGolden, Fig10BaselineLegMatchesSeed)
{
    compareOrUpdate(fig10Leg(false), "backend_fig10_baseline.json");
}

TEST(BackendGolden, Fig10IdaLegMatchesSeed)
{
    compareOrUpdate(fig10Leg(true), "backend_fig10_ida.json");
}

TEST(BackendGolden, SectorModeLegMatchesSeed)
{
    compareOrUpdate(sectorLeg(), "backend_sector_mode.json");
}

} // namespace
} // namespace ida::workload
