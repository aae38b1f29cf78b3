/**
 * @file
 * Tests for the multi-device fleet layer (src/fleet): striping
 * arithmetic, config rejection, the determinism contract and the
 * pinned archive, fleet conservation auditing, and the causality
 * (past-time schedule) surfacing the fleet rests on.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet.hh"
#include "fleet/fleet_audit.hh"
#include "fleet/stripe.hh"
#include "ssd/config.hh"
#include "workload/synthetic.hh"

namespace ida::fleet {
namespace {

TEST(StripeMap, RoundRobinPlacementAndLocalPacking)
{
    const StripeMap m(4, 8);
    // Stripe k -> device k % 4; local stripes pack contiguously.
    EXPECT_EQ(m.deviceOf(0), 0u);
    EXPECT_EQ(m.deviceOf(7), 0u);
    EXPECT_EQ(m.deviceOf(8), 1u);
    EXPECT_EQ(m.deviceOf(31), 3u);
    EXPECT_EQ(m.deviceOf(32), 0u);
    EXPECT_EQ(m.deviceLpn(0), 0u);
    EXPECT_EQ(m.deviceLpn(7), 7u);
    EXPECT_EQ(m.deviceLpn(8), 0u);   // device 1, its first stripe
    EXPECT_EQ(m.deviceLpn(32), 8u);  // device 0, its second stripe
    EXPECT_EQ(m.deviceLpn(39), 15u);
}

TEST(StripeMap, DevicePagesPartitionTheFleetSpace)
{
    const StripeMap m(3, 4);
    for (std::uint64_t pages : {0ull, 1ull, 4ull, 5ull, 11ull, 12ull,
                                13ull, 24ull, 100ull}) {
        std::uint64_t sum = 0;
        for (std::uint32_t d = 0; d < 3; ++d)
            sum += m.devicePages(pages, d);
        EXPECT_EQ(sum, pages) << "fleet pages " << pages;
    }
    // Every fleet page below the bound maps under its device's count.
    const std::uint64_t bound = 23;
    for (flash::Lpn p = 0; p < bound; ++p)
        EXPECT_LT(m.deviceLpn(p), m.devicePages(bound, m.deviceOf(p)));
}

TEST(StripeMap, SplitCoversExactlyAndMergesRuns)
{
    const StripeMap m(4, 8);
    // A request spanning several stripes: per-page reconstruction from
    // the emitted runs must equal the direct mapping.
    const flash::Lpn start = 5;
    const std::uint32_t count = 45;
    std::vector<std::pair<std::uint32_t, flash::Lpn>> fromRuns;
    m.split(start, count, [&](const StripeRun &r) {
        EXPECT_GT(r.pageCount, 0u);
        for (std::uint32_t i = 0; i < r.pageCount; ++i)
            fromRuns.emplace_back(r.device, r.startPage + i);
    });
    ASSERT_EQ(fromRuns.size(), count);
    for (std::uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(fromRuns[i].first, m.deviceOf(start + i));
        EXPECT_EQ(fromRuns[i].second, m.deviceLpn(start + i));
    }

    // One device: everything merges into a single contiguous run.
    const StripeMap solo(1, 8);
    int runs = 0;
    solo.split(3, 40, [&](const StripeRun &r) {
        ++runs;
        EXPECT_EQ(r.device, 0u);
        EXPECT_EQ(r.startPage, 3u);
        EXPECT_EQ(r.pageCount, 40u);
    });
    EXPECT_EQ(runs, 1);
}

TEST(FleetSeed, StableAndDecorrelated)
{
    EXPECT_EQ(deviceSeed(7, 3), deviceSeed(7, 3));
    std::set<std::uint64_t> seen;
    for (std::uint32_t d = 0; d < 64; ++d)
        seen.insert(deviceSeed(42, d));
    EXPECT_EQ(seen.size(), 64u); // no index collisions
    EXPECT_NE(deviceSeed(1, 0), deviceSeed(2, 0)); // fleet seed matters
}

workload::WorkloadPreset
fleetPreset(std::uint32_t devices)
{
    workload::WorkloadPreset p;
    p.name = "fleet-test";
    p.synth.footprintPages = std::uint64_t{devices} * 500;
    p.synth.totalRequests = 2500;
    p.synth.duration = 4 * sim::kMin;
    p.synth.readRatio = 0.9;
    p.synth.seed = 23;
    p.refreshPeriod = 2 * sim::kMin;
    p.warmupFraction = 0.25;
    p.prewriteFraction = 0.3;
    return p;
}

FleetConfig
fleetConfig(std::uint32_t devices)
{
    FleetConfig fc;
    fc.device = ssd::SsdConfig::tiny();
    fc.device.ftl.enableIda = true;
    fc.device.adjustErrorRate = 0.20;
    fc.devices = devices;
    fc.stripePages = 8;
    fc.epoch = 50 * sim::kMsec;
    fc.fleetSeed = 99;
    return fc;
}

TEST(FleetDeath, ZeroDevicesIsFatal)
{
    FleetConfig fc = fleetConfig(1);
    fc.devices = 0;
    EXPECT_EXIT(Fleet{fc}, ::testing::ExitedWithCode(1),
                "FleetConfig::devices must be >= 1, got 0");
}

TEST(FleetDeath, ZeroStripePagesIsFatal)
{
    FleetConfig fc = fleetConfig(2);
    fc.stripePages = 0;
    EXPECT_EXIT(Fleet{fc}, ::testing::ExitedWithCode(1),
                "FleetConfig::stripePages must be >= 1, got 0");
}

TEST(FleetDeath, ShardsOtherThanOneIsFatal)
{
    FleetConfig fc = fleetConfig(2);
    fc.shards = 2;
    EXPECT_EXIT(Fleet{fc}, ::testing::ExitedWithCode(1),
                "FleetConfig::shards must be 1, got 2");
}

TEST(FleetDeath, NonPositiveEpochIsFatal)
{
    FleetConfig fc = fleetConfig(2);
    fc.epoch = sim::Time{};
    EXPECT_EXIT(Fleet{fc}, ::testing::ExitedWithCode(1),
                "FleetConfig::epoch must be > 0, got 0 ns");
}

TEST(Fleet, ByteIdenticalOnRepeatWithNoPastSchedules)
{
    // >= 16 devices, aggregate AND per-device JSON byte-identical on a
    // repeat run.
    const auto preset = fleetPreset(16);
    std::string archive[2];
    for (std::string &a : archive) {
        const FleetResult res = runFleetPreset(fleetConfig(16), preset);
        // No run may clamp a past-time event, in the fleet or in any
        // member: a clamped run is a causality bug, not a measurement.
        EXPECT_EQ(res.pastSchedules, 0u);
        ASSERT_EQ(res.perDevice.size(), 16u);
        for (std::size_t d = 0; d < res.perDevice.size(); ++d)
            EXPECT_EQ(res.perDevice[d].pastSchedules, 0u) << "device " << d;
        a = res.toJson(false);
    }
    EXPECT_EQ(archive[0], archive[1]) << "repeat run diverged";
    EXPECT_NE(archive[0].find("\"pastSchedules\": 0"), std::string::npos);
    EXPECT_EQ(archive[0].find("wallSeconds"), std::string::npos);
}

/** FNV-1a over the bytes of @p s. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Fleet, ArchiveChecksumIsPinned)
{
    // The whole archive, aggregate and per-device, of the 16-device
    // fleet at two fleet seeds: a change to how the fleet schedules its
    // members must leave these bytes alone.
    const auto preset = fleetPreset(16);
    for (const auto &[seed, pinned] :
         {std::pair{99ull, 0x6f984f0f7e5bbf54ull},
          std::pair{7ull, 0x5e8d27cd5fb285b7ull}}) {
        FleetConfig fc = fleetConfig(16);
        fc.fleetSeed = seed;
        EXPECT_EQ(fnv1a(runFleetPreset(fc, preset).toJson(false)), pinned)
            << "fleet seed " << seed;
    }
}

TEST(Fleet, AggregateMeasurementsAreConsistent)
{
    const auto res = runFleetPreset(fleetConfig(4), fleetPreset(4));
    EXPECT_GT(res.measuredReads, 0u);
    EXPECT_GT(res.readRespUs, 0.0);
    EXPECT_GT(res.throughputMBps, 0.0);
    EXPECT_EQ(res.pastSchedules, 0u);
    ASSERT_EQ(res.perDevice.size(), 4u);
    // Every sub-request fanned out came back.
    EXPECT_GT(res.subRequestsStaged, 0u);
    EXPECT_EQ(res.subRequestsStaged, res.subRequestsCompleted);
    // Member devices each saw traffic, and their per-device harvests
    // carry the causality gauge too.
    for (const auto &dev : res.perDevice) {
        EXPECT_GT(dev.measuredReads + dev.measuredWrites, 0u);
        EXPECT_EQ(dev.pastSchedules, 0u);
        EXPECT_EQ(dev.system, res.system);
    }
    // A striped fleet read takes max-of-stripes time, so the fleet
    // request latency is at least the busiest member's device-level
    // mean is positive (sanity, not a bound).
    EXPECT_GT(res.deviceReadRespUs, 0.0);
}

TEST(Fleet, CrossShardConservationAuditIsGreen)
{
    FleetConfig fc = fleetConfig(6);
    Fleet fleet(fc);
    fleet.preloadSequential(6 * 400);

    workload::SyntheticConfig sc;
    sc.footprintPages = 6 * 400;
    sc.totalRequests = 1500;
    sc.duration = 3 * sim::kMin;
    sc.readRatio = 0.9;
    sc.seed = 31;
    workload::SyntheticTrace trace(sc);

    FleetRunOptions opt;
    opt.measureStart = sim::kMin;
    opt.horizon = sc.duration;
    opt.label = "audit";
    const FleetResult res = fleet.run(trace, opt);
    EXPECT_GT(res.measuredReads, 0u);

    FleetAuditor audit(fleet);
    EXPECT_EQ(audit.runAll(), 0u) << audit.summary();
    EXPECT_EQ(audit.totalViolations(), 0u);
    EXPECT_EQ(audit.runs(), 1u);
}

TEST(Fleet, AuditorFlagsInjectedHorizonViolation)
{
    FleetConfig fc = fleetConfig(2);
    Fleet fleet(fc);
    fleet.preloadSequential(2 * 200);

    workload::SyntheticConfig sc;
    sc.footprintPages = 2 * 200;
    sc.totalRequests = 200;
    sc.duration = 30 * sim::kSec;
    sc.seed = 5;
    workload::SyntheticTrace trace(sc);
    FleetRunOptions opt;
    opt.horizon = sc.duration;
    opt.label = "violation";
    fleet.run(trace, opt);

    // Forge the exact failure mode epoch staging prevents: an event
    // injected behind a member's clock. Under the Clamp policy (which
    // this test selects; Panic is the default) the kernel counts it —
    // and the fleet auditor must refuse to stay green.
    auto &q = fleet.device(0).events();
    q.setPastSchedulePolicy(sim::PastSchedulePolicy::Clamp);
    // The counter trips at schedule() time; no need to dispatch (and
    // run() would grind through the armed refresh scan forever).
    q.schedule(q.now() - sim::kUsec, [] {});

    FleetAuditor audit(fleet);
    audit.runAll();
    bool causality = false;
    for (const auto &v : audit.violations())
        causality |= v.check == "fleet-causality";
    EXPECT_TRUE(causality) << audit.summary();
}

} // namespace
} // namespace ida::fleet
