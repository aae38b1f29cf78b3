/**
 * @file
 * Device-level tests: request dispatch, response accounting, warm-up
 * windows, and configuration validation.
 */
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ssd/ssd.hh"

namespace ida::ssd {
namespace {

TEST(SsdConfig, PresetLabels)
{
    SsdConfig cfg = SsdConfig::paperTlc();
    EXPECT_EQ(cfg.systemLabel(), "Baseline");
    cfg.ftl.enableIda = true;
    cfg.adjustErrorRate = 0.2;
    EXPECT_EQ(cfg.systemLabel(), "IDA-E20");
    cfg.adjustErrorRate = 0.0;
    EXPECT_EQ(cfg.systemLabel(), "IDA-E0");
    cfg.ftl.enableIda = false;
    cfg.ftl.moveToLsbAlternative = true;
    EXPECT_EQ(cfg.systemLabel(), "Move-to-LSB");
}

TEST(SsdConfig, PresetsValidate)
{
    SsdConfig::paperTlc().validate();
    SsdConfig::paperMlc().validate();
    SsdConfig::qlcDevice().validate();
    SsdConfig::tiny().validate();
}

TEST(SsdConfigDeath, CodingMustMatchGeometry)
{
    SsdConfig cfg = SsdConfig::paperTlc();
    cfg.coding = CodingChoice::Mlc12; // geometry still 3 bits/cell
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "bit density");
}

TEST(Ssd, PreloadAndSingleRead)
{
    Ssd ssd(SsdConfig::tiny());
    ssd.preloadSequential(100);
    HostRequest r;
    r.arrival = sim::Time{};
    r.isRead = true;
    r.startPage = 10;
    r.pageCount = 1;
    ssd.submit(r);
    ssd.events().run();
    EXPECT_EQ(ssd.stats().readRequests, 1u);
    EXPECT_GT(ssd.stats().readResponseUs.mean(), 0.0);
    EXPECT_TRUE(ssd.drained());
}

TEST(Ssd, MultiPageRequestCompletesOnce)
{
    Ssd ssd(SsdConfig::tiny());
    ssd.preloadSequential(100);
    HostRequest r;
    r.isRead = true;
    r.startPage = 0;
    r.pageCount = 8;
    ssd.submit(r);
    ssd.events().run();
    EXPECT_EQ(ssd.stats().readRequests, 1u);
    EXPECT_EQ(ssd.stats().bytesRead,
              8ull * ssd.config().geometry.pageSizeBytes);
}

TEST(Ssd, ResponseIsMaxOverPages)
{
    // A request touching an MSB page cannot complete before the MSB
    // read does: response >= tMSB + transfer + ECC.
    Ssd ssd(SsdConfig::tiny());
    ssd.preloadSequential(100);
    HostRequest r;
    r.isRead = true;
    r.startPage = 0;
    r.pageCount = 12; // covers LSB+CSB+MSB pages on some plane
    ssd.submit(r);
    ssd.events().run();
    EXPECT_GE(ssd.stats().readResponseUs.mean(), 150.0 + 48.0 + 20.0);
}

TEST(Ssd, WarmupRequestsAreExcluded)
{
    Ssd ssd(SsdConfig::tiny());
    ssd.preloadSequential(100);
    ssd.setMeasureStart(1 * sim::kSec);
    HostRequest warm;
    warm.arrival = sim::Time{};
    warm.isRead = true;
    warm.startPage = 1;
    warm.pageCount = 1;
    HostRequest measured = warm;
    measured.arrival = 2 * sim::kSec;
    ssd.submit(warm);
    ssd.submit(measured);
    ssd.events().run();
    EXPECT_EQ(ssd.stats().readRequests, 1u);
}

TEST(Ssd, WritesAccountedSeparately)
{
    Ssd ssd(SsdConfig::tiny());
    ssd.preloadSequential(100);
    HostRequest w;
    w.isRead = false;
    w.startPage = 5;
    w.pageCount = 2;
    ssd.submit(w);
    ssd.events().run();
    EXPECT_EQ(ssd.stats().writeRequests, 1u);
    EXPECT_EQ(ssd.stats().readRequests, 0u);
    // A write response includes a 2.3 ms program.
    EXPECT_GE(ssd.stats().writeResponseUs.mean(), 2300.0);
}

TEST(Ssd, ThroughputComputedOverMeasuredWindow)
{
    Ssd ssd(SsdConfig::tiny());
    ssd.preloadSequential(100);
    HostRequest r;
    r.isRead = true;
    r.startPage = 0;
    r.pageCount = 4;
    ssd.submit(r);
    ssd.events().run();
    EXPECT_GT(ssd.stats().readThroughputMBps(), 0.0);
}

/*
 * Batched admission must be an event-count optimization only: a device
 * fed through submitBatch() produces exactly the same completion
 * stream — per-request completion times included — as one fed the same
 * requests through submit() one by one.
 */
TEST(Ssd, BatchedAdmissionIsIdenticalToUnbatched)
{
    // Mixed workload with same-tick bursts, writes, trims, sub-page
    // reads, and multi-page requests.
    std::vector<HostRequest> reqs;
    const std::uint32_t spp =
        SsdConfig::tiny().geometry.sectorsPerPage();
    for (int i = 0; i < 200; ++i) {
        HostRequest r;
        // Bursts of 5 share an arrival tick.
        r.arrival = sim::Time{(i / 5) * 700};
        r.isRead = (i % 4) != 0;
        r.isTrim = (i % 37) == 0;
        r.startPage = static_cast<flash::Lpn>((i * 13) % 90);
        r.pageCount = 1 + (i % 3);
        if (i % 7 == 0) {
            r.startSector = 1;
            r.sectorCount = r.pageCount * spp - 2;
        }
        reqs.push_back(r);
    }

    auto run = [&reqs](bool batched) {
        Ssd ssd(SsdConfig::tiny());
        ssd.preloadSequential(100);
        std::vector<sim::Time> completions(reqs.size());
        std::vector<HostRequest> tagged = reqs;
        for (std::size_t i = 0; i < tagged.size(); ++i) {
            tagged[i].onComplete = [&completions, i](sim::Time t) {
                completions[i] = t;
            };
        }
        if (batched) {
            ssd.submitBatch(tagged);
        } else {
            for (const HostRequest &r : tagged)
                ssd.submit(r);
        }
        ssd.events().run();
        EXPECT_TRUE(ssd.drained());
        return std::pair{completions, ssd.stats()};
    };

    const auto [unbatchedDone, unbatchedStats] = run(false);
    const auto [batchedDone, batchedStats] = run(true);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        ASSERT_EQ(batchedDone[i].count(), unbatchedDone[i].count())
            << "request " << i;
    EXPECT_EQ(batchedStats.readRequests, unbatchedStats.readRequests);
    EXPECT_EQ(batchedStats.writeRequests, unbatchedStats.writeRequests);
    EXPECT_EQ(batchedStats.trimRequests, unbatchedStats.trimRequests);
    EXPECT_EQ(batchedStats.bytesRead, unbatchedStats.bytesRead);
    EXPECT_EQ(batchedStats.bytesWritten, unbatchedStats.bytesWritten);
    EXPECT_EQ(batchedStats.readResponseUs.mean(),
              unbatchedStats.readResponseUs.mean());
    EXPECT_EQ(batchedStats.writeResponseUs.mean(),
              unbatchedStats.writeResponseUs.mean());
    EXPECT_EQ(batchedStats.lastCompletion.count(),
              unbatchedStats.lastCompletion.count());
}

TEST(SsdDeath, RequestBeyondCapacityIsFatal)
{
    Ssd ssd(SsdConfig::tiny());
    HostRequest r;
    r.startPage = ssd.logicalPages();
    r.pageCount = 1;
    EXPECT_EXIT(ssd.submit(r), ::testing::ExitedWithCode(1), "beyond");
    // startPage + pageCount wraps to 1 here; the check must not.
    r.startPage = ~std::uint64_t{0};
    r.pageCount = 2;
    EXPECT_EXIT(ssd.submit(r), ::testing::ExitedWithCode(1), "beyond");
    // More pages than the whole device, starting at page 0.
    r.startPage = 0;
    r.pageCount = static_cast<std::uint32_t>(ssd.logicalPages() + 1);
    EXPECT_EXIT(ssd.submit(r), ::testing::ExitedWithCode(1), "beyond");
}

TEST(SsdDeath, OversizedPreloadIsFatal)
{
    Ssd ssd(SsdConfig::tiny());
    EXPECT_EXIT(ssd.preloadSequential(ssd.logicalPages() + 1),
                ::testing::ExitedWithCode(1), "exceeds");
}

} // namespace
} // namespace ida::ssd
