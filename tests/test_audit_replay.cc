/**
 * @file
 * Randomized replay harness for the cross-layer auditor.
 *
 * Each seed drives a full Ssd through a seeded synthetic workload —
 * mixed reads/writes/TRIMs over a near-full footprint (GC pressure)
 * with a short refresh period (refresh/IDA activity) — auditing every
 * few thousand events and again at drain. Any violation fails the
 * test; before failing, the harness shrinks the seed's workload to the
 * smallest op count that still trips the auditor, so the failure
 * message names a minimal reproducer instead of a 60-second run.
 *
 * The default seed count keeps tier-1 time small; tools/run_audit.sh
 * raises it via IDA_AUDIT_REPLAY_SEEDS for the dedicated audit gate.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "audit/auditor.hh"
#include "sim/rng.hh"
#include "ssd/ssd.hh"
#include "workload/batch.hh"

namespace ida::audit {
namespace {

struct Scenario
{
    std::uint64_t seed = 1;
    bool ida = false;
    bool writeBuffer = false;
    bool readCache = false;
    bool subPage = false; ///< sub-page reads/writes/TRIMs in the mix
    /** Submit every host request in one up-front submitBatch(). */
    bool batched = false;
    std::uint64_t ops = 400;
};

struct ReplayResult
{
    std::uint64_t violations = 0;
    std::uint64_t audits = 0;
    std::uint64_t executed = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t idaRefreshes = 0;
    std::uint64_t gcInvocations = 0;
    std::uint64_t trims = 0;
    std::string summary;
};

ReplayResult
runScenario(const Scenario &sc)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.seed = sc.seed;
    cfg.ftl.enableIda = sc.ida;
    // Short refresh period so refresh (and IDA, when enabled) runs
    // well within the replay horizon.
    cfg.ftl.refreshPeriod = 30 * sim::kSec;
    cfg.ftl.refreshCheckInterval = 2 * sim::kSec;
    cfg.ftl.maxConcurrentRefresh = 2;
    if (sc.writeBuffer)
        cfg.ftl.writeBuffer.capacityPages = 48;
    if (sc.readCache)
        cfg.ftl.readCache.capacityPages = 32;
    const std::uint32_t spp = cfg.geometry.sectorsPerPage();

    ssd::Ssd ssd(cfg);
    const std::uint64_t footprint = ssd.logicalPages() * 8 / 10;
    ssd.preloadSequential(footprint);
    ssd.start();

    Auditor auditor(ssd);

    sim::Rng rng(sc.seed * 2654435761ull + 17);
    sim::Time t{};
    // Batched scenarios park the whole workload in the arrival FIFO at
    // once, so the audits see it deep; the others submit one by one.
    std::vector<ssd::HostRequest> batch;
    const auto submit = [&](const ssd::HostRequest &r) {
        if (sc.batched)
            batch.push_back(r);
        else
            ssd.submit(r);
    };
    for (std::uint64_t i = 0; i < sc.ops; ++i) {
        t += rng.uniformInt(50, 1500) * sim::kUsec;
        const double kind = rng.uniform01();
        auto lpn =
            static_cast<flash::Lpn>(rng.uniformInt(0, footprint - 1));
        if (kind < 0.08) {
            if (sc.subPage && rng.uniform01() < 0.5) {
                // Sub-page TRIM through the host interface: partially
                // invalidates the page (or kills it when the range
                // covers the last live sectors).
                ssd::HostRequest tr;
                tr.arrival = t;
                tr.isTrim = true;
                tr.startPage = lpn;
                tr.pageCount = 1;
                tr.startSector = static_cast<std::uint32_t>(
                    rng.uniformInt(0, spp - 1));
                tr.sectorCount = static_cast<std::uint32_t>(
                    1 + rng.uniformInt(0, spp - 1 - tr.startSector));
                submit(tr);
            } else {
                // Whole-page TRIM as a raw FTL metadata op, at its
                // "arrival" time.
                ssd.events().schedule(
                    t, [ftl = &ssd.ftl(), lpn] { ftl->hostTrim(lpn, 0); });
            }
            continue;
        }
        ssd::HostRequest r;
        r.arrival = t;
        r.isRead = kind < 0.45;
        r.pageCount =
            static_cast<std::uint32_t>(1 + rng.uniformInt(0, 3));
        if (sc.subPage && rng.uniform01() < 0.4) {
            // Sub-page data op (single page): exercises the hole-merge
            // read path and the read-modify-write program path.
            r.pageCount = 1;
            r.startSector = static_cast<std::uint32_t>(
                rng.uniformInt(0, spp - 1));
            r.sectorCount = static_cast<std::uint32_t>(
                1 + rng.uniformInt(0, spp - 1 - r.startSector));
        }
        if (lpn + r.pageCount > footprint)
            lpn = footprint - r.pageCount;
        r.startPage = lpn;
        submit(r);
    }
    ssd.submitBatch(batch);

    // Audit the submitted workload before it runs, then drive with
    // periodic audits — in fine steps while arrivals are still waiting
    // in the FIFO — and drain well past the last arrival so refresh
    // runs against an idle device too.
    auditor.runAll();
    const sim::Time horizon = t + 60 * sim::kSec;
    for (sim::Time step{}; step <= horizon;
         step += step < t ? 50 * sim::kMsec : 2 * sim::kSec) {
        ssd.events().runUntil(step);
        auditor.maybeRun(450);
    }
    ssd.events().runUntil(horizon);
    auditor.runAll();

    ReplayResult res;
    res.violations = auditor.totalViolations();
    res.audits = auditor.runs();
    res.executed = ssd.events().executed();
    res.refreshes = ssd.ftl().stats().refresh.refreshes;
    res.idaRefreshes = ssd.ftl().stats().refresh.idaRefreshes;
    res.gcInvocations = ssd.ftl().stats().gc.invocations;
    res.trims = ssd.ftl().stats().hostTrims;
    res.summary = auditor.summary();
    return res;
}

/**
 * Smallest op count (<= sc.ops) whose replay still violates, found by
 * bisection; each probe replays the scenario from scratch, which is
 * valid because the workload derives deterministically from the seed.
 */
std::uint64_t
shrinkFailure(Scenario sc)
{
    std::uint64_t lo = 1, hi = sc.ops;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        Scenario probe = sc;
        probe.ops = mid;
        if (runScenario(probe).violations > 0)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/** Replay seed count: IDA_AUDIT_REPLAY_SEEDS, or 4 when unset. */
int
replaySeeds()
{
    if (const char *env = std::getenv("IDA_AUDIT_REPLAY_SEEDS"))
        return static_cast<int>(workload::parsePositiveInt(
            env, "IDA_AUDIT_REPLAY_SEEDS", INT_MAX));
    return 4;
}

TEST(AuditReplay, SeededWorkloadsStayClean)
{
    const int nSeeds = replaySeeds();

    std::uint64_t refreshes = 0, idaRefreshes = 0, trims = 0;
    std::uint64_t audits = 0, executed = 0;
    for (int s = 1; s <= nSeeds; ++s) {
        Scenario sc;
        sc.seed = static_cast<std::uint64_t>(s);
        sc.ida = (s % 2 == 1);
        sc.writeBuffer = (s % 3 == 0);
        sc.readCache = (s % 2 == 0);
        sc.subPage = (s >= 2);
        sc.batched = (s % 4 >= 2);
        const ReplayResult res = runScenario(sc);
        EXPECT_GE(res.audits, 2u) << "seed " << s
                                  << ": the auditor never ran";
        audits += res.audits;
        executed += res.executed;
        refreshes += res.refreshes;
        if (sc.ida)
            idaRefreshes += res.idaRefreshes;
        trims += res.trims;
        if (res.violations > 0) {
            ADD_FAILURE()
                << "seed " << s << " (ida=" << sc.ida
                << ", wb=" << sc.writeBuffer
                << ", cache=" << sc.readCache
                << ", subpage=" << sc.subPage
                << ", batched=" << sc.batched << "): " << res.summary
                << "\nminimal failing op count: " << shrinkFailure(sc)
                << " (of " << sc.ops << ")";
        }
    }
    // Audit density, for comparing harness strength across changes
    // that alter the number of events a replay executes.
    std::printf("audit replay: %d seeds, %llu audits over %llu events\n",
                nSeeds, static_cast<unsigned long long>(audits),
                static_cast<unsigned long long>(executed));
    // The harness must actually exercise the paths it claims to cover —
    // a replay that never refreshes or trims audits nothing interesting.
    EXPECT_GT(refreshes, 0u);
    EXPECT_GT(idaRefreshes, 0u);
    EXPECT_GT(trims, 0u);
}

TEST(AuditReplay, ReplayIsDeterministic)
{
    Scenario sc;
    sc.seed = 2;
    sc.ida = true;
    sc.readCache = true;
    sc.subPage = true;
    const ReplayResult a = runScenario(sc);
    const ReplayResult b = runScenario(sc);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.audits, b.audits);
}

TEST(AuditReplayDeath, MalformedSeedCountIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"", "abc", "8x", "0", "-3", "2147483648"}) {
        EXPECT_EXIT(
            {
                ::setenv("IDA_AUDIT_REPLAY_SEEDS", bad, 1);
                replaySeeds();
            },
            ::testing::ExitedWithCode(1),
            std::string("IDA_AUDIT_REPLAY_SEEDS expects a positive "
                        "integer, got '") +
                bad + "'")
            << bad;
    }
}

} // namespace
} // namespace ida::audit
