/**
 * @file
 * Device-level tests: request dispatch, response accounting, warm-up
 * windows, and configuration validation.
 */
#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ssd/ssd.hh"
#include "trace/recorder.hh"

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

/**
 * Run @p ssd's queue dry in 10 us steps, checking arrival admission
 * (Ssd::validateAdmission) before and after every step.
 */
void
drainChecked(Ssd &ssd)
{
    std::string why;
    ASSERT_TRUE(ssd.validateAdmission(&why)) << why;
    while (!ssd.events().empty()) {
        ssd.events().runUntil(ssd.events().now() + 10 * sim::kUsec);
        ASSERT_TRUE(ssd.validateAdmission(&why))
            << why << " at " << ssd.events().now().count();
    }
}

/**
 * Feeds requests to a device: submit()/submitBatch() calls, maybe with
 * runUntil() steps between them.
 */
using Feed = std::function<void(Ssd &, std::vector<HostRequest> &)>;

/**
 * Completion tick of every request in @p reqs (-1 if it never
 * completed) when @p feed drives a fresh tiny() device and the queue
 * then runs dry. A request's own onComplete, if any, still runs.
 */
std::vector<std::int64_t>
completionTicks(std::vector<HostRequest> reqs, const Feed &feed)
{
    Ssd ssd(SsdConfig::tiny());
    ssd.preloadSequential(100);
    std::vector<std::int64_t> done(reqs.size(), -1);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].onComplete = [&done, i,
                              user = reqs[i].onComplete](sim::Time t) {
            done[i] = t.count();
            if (user)
                user(t);
        };
    }
    feed(ssd, reqs);
    drainChecked(ssd);
    EXPECT_TRUE(ssd.drained());
    EXPECT_EQ(ssd.inflightRequests(), 0u);
    return done;
}

HostRequest
readAt(sim::Time arrival, flash::Lpn page)
{
    HostRequest r;
    r.arrival = arrival;
    r.startPage = page;
    return r;
}

/** The reference feed: every request through submit(), in order. */
void
oneByOne(Ssd &ssd, std::vector<HostRequest> &reqs)
{
    for (const HostRequest &r : reqs)
        ssd.submit(r);
}

TEST(SsdAdmission, ArrivalAtAnEarlierCompletionTick)
{
    // Find when a lone read at t=0 completes, then make later arrivals
    // land on exactly that tick: the parked run and the completion
    // event tie, and (when, seq) must order them as submit() does.
    const std::int64_t tick =
        completionTicks({readAt(sim::Time{}, 3)}, oneByOne)[0];
    ASSERT_GT(tick, 0);
    std::vector<HostRequest> reqs = {
        readAt(sim::Time{}, 3),      readAt(sim::Time{tick}, 3),
        readAt(sim::Time{tick}, 40), readAt(sim::Time{tick + 1}, 3),
        readAt(sim::Time{tick + 1}, 41)};
    reqs[2].isRead = false;
    const auto expected = completionTicks(reqs, oneByOne);
    const auto batched = completionTicks(
        reqs, [](Ssd &ssd, std::vector<HostRequest> &r) {
            ssd.submitBatch(r);
        });
    EXPECT_EQ(batched, expected);
    for (const std::int64_t t : expected)
        EXPECT_GE(t, 0);
}

TEST(SsdAdmission, OutOfOrderBatchesMixedWithSubmitAndRunUntil)
{
    using sim::kUsec;
    std::vector<HostRequest> reqs = {
        readAt(1000 * kUsec, 1), // submit()
        // One batch: in order, then a run behind the FIFO's tail,
        // then in order again.
        readAt(5000 * kUsec, 2), readAt(5000 * kUsec, 3),
        readAt(2000 * kUsec, 4), readAt(8000 * kUsec, 5),
        // submit() after runUntil(3000 us): due now.
        readAt(3000 * kUsec, 6),
        // One batch behind the tail (8000 us), then past it.
        readAt(4000 * kUsec, 7), readAt(9000 * kUsec, 8),
        readAt(9000 * kUsec, 9)};
    reqs[3].isRead = false;
    reqs[7].isRead = false;
    const auto script = [](bool batched) {
        return [batched](Ssd &ssd, std::vector<HostRequest> &r) {
            const auto batch = [&](std::size_t from, std::size_t to) {
                if (batched) {
                    ssd.submitBatch(std::span<const HostRequest>(
                        r.data() + from, to - from));
                } else {
                    for (std::size_t i = from; i < to; ++i)
                        ssd.submit(r[i]);
                }
            };
            ssd.submit(r[0]);
            batch(1, 5);
            ssd.events().runUntil(3000 * sim::kUsec);
            ssd.submit(r[5]);
            batch(6, 9);
        };
    };
    const auto expected = completionTicks(reqs, script(false));
    EXPECT_EQ(completionTicks(reqs, script(true)), expected);
    for (const std::int64_t t : expected)
        EXPECT_GE(t, 0);
}

TEST(SsdAdmission, TrimCompletingInAdmissionResubmits)
{
    // A TRIM completes synchronously inside the arrival event that
    // admits it; its onComplete submits more requests: one due now, one
    // behind the FIFO's tail and one past it.
    using sim::kUsec;
    const auto run = [](bool batched) {
        Ssd ssd(SsdConfig::tiny());
        ssd.preloadSequential(100);
        std::vector<std::int64_t> done(6, -1);
        const auto record = [&done](std::size_t i) {
            return [&done, i](sim::Time t) { done[i] = t.count(); };
        };
        std::vector<HostRequest> reqs = {readAt(1000 * kUsec, 10),
                                         readAt(1000 * kUsec, 11),
                                         readAt(1500 * kUsec, 12)};
        reqs[0].isTrim = true;
        reqs[0].onComplete = [&ssd, &done, record](sim::Time t) {
            done[0] = t.count();
            const sim::Time now = ssd.events().now();
            HostRequest a = readAt(now, 20);
            a.onComplete = record(3);
            HostRequest b = readAt(now + 200 * kUsec, 21);
            b.onComplete = record(4);
            HostRequest c = readAt(now + 2000 * kUsec, 22);
            c.isRead = false;
            c.onComplete = record(5);
            ssd.submit(a);
            ssd.submit(b);
            ssd.submit(c);
        };
        reqs[1].onComplete = record(1);
        reqs[2].onComplete = record(2);
        if (batched) {
            ssd.submitBatch(reqs);
        } else {
            for (const HostRequest &r : reqs)
                ssd.submit(r);
        }
        drainChecked(ssd);
        EXPECT_TRUE(ssd.drained());
        EXPECT_EQ(ssd.stats().trimRequests, 1u);
        return done;
    };
    const auto expected = run(false);
    EXPECT_EQ(run(true), expected);
    EXPECT_EQ(expected[0], (1000 * kUsec).count());
    for (const std::int64_t t : expected)
        EXPECT_GE(t, 0);
}

TEST(SsdAdmission, FutureArrivalsDoNotFillTheEventQueue)
{
    // A long open-loop trace submitted up front waits in the arrival
    // FIFO: the event queue holds one arrival event, and the event
    // pool and request slots stay sized to what is in flight.
    Ssd ssd(SsdConfig::tiny());
    ssd.preloadSequential(1000);
    constexpr std::size_t kRequests = 50'000;
    std::vector<HostRequest> reqs;
    reqs.reserve(kRequests);
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        HostRequest r = readAt(static_cast<std::int64_t>(i + 1) *
                                   100 * sim::kUsec,
                               (i * 37) % 1000);
        r.isRead = i % 100 != 0; // a write every 10 ms
        r.onComplete = [&completed](sim::Time) { ++completed; };
        reqs.push_back(std::move(r));
    }
    ssd.submitBatch(reqs);
    EXPECT_LE(ssd.events().pending(), 4u);
    EXPECT_EQ(ssd.inflightRequests(), kRequests);
    ssd.events().run();
    EXPECT_EQ(completed, kRequests);
    EXPECT_TRUE(ssd.drained());
    EXPECT_LE(ssd.events().poolSize(), 1024u);
}

/** tiny() with two dies per chip: four dies, one per page below. */
SsdConfig
fourDieTiny()
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.geometry.diesPerChip = 2;
    return cfg;
}

/** Die of the flash page @p lpn is mapped to. */
flash::DieId
dieOfLpn(const Ssd &ssd, flash::Lpn lpn)
{
    return ssd.chips().locate(ssd.ftl().mapping().lookup(lpn)).die;
}

/**
 * A host read reports its completion tick when it reaches the die, and
 * the request runs one completion event for all of its pages: on an
 * idle device a 4-page read over 4 dies executes its arrival and its
 * completion and nothing else, and onComplete fires once, at the
 * latest page's completion. Writes still complete page by page.
 */
TEST(SsdReadCompletion, OneEventPerReadRequest)
{
    Ssd ssd(fourDieTiny());
    ssd.preloadSequential(ssd.logicalPages() / 2);
    ssd.enableTracing(/*retain_spans=*/true);
    flash::Lpn start = 0;
    for (;; ++start) {
        ASSERT_LT(start + 4, ssd.logicalPages() / 2) << "no 4-die run";
        std::vector<flash::DieId> dies;
        for (flash::Lpn l = start; l < start + 4; ++l)
            dies.push_back(dieOfLpn(ssd, l));
        std::sort(dies.begin(), dies.end());
        if (std::unique(dies.begin(), dies.end()) == dies.end())
            break;
    }

    std::vector<sim::Time> completions;
    HostRequest r;
    r.startPage = start;
    r.pageCount = 4;
    r.onComplete = [&](sim::Time t) { completions.push_back(t); };
    const std::uint64_t before = ssd.events().executed();
    ssd.submit(r);
    ssd.events().run();
    EXPECT_EQ(ssd.events().executed() - before, 2u);
    ASSERT_EQ(completions.size(), 1u);
    sim::Time latest{};
    for (const trace::Span &sp : ssd.tracer()->spans()) {
        if (sp.kind == trace::SpanKind::HostRead)
            latest = std::max(latest, sp.complete);
    }
    EXPECT_GT(latest, sim::Time{});
    EXPECT_EQ(completions.front(), latest);
    EXPECT_TRUE(ssd.drained());

    completions.clear();
    r.arrival = ssd.events().now();
    r.isRead = false;
    const std::uint64_t writes_before = ssd.events().executed();
    ssd.submit(r);
    ssd.events().run();
    EXPECT_EQ(ssd.events().executed() - writes_before, 1u + 4u)
        << "arrival plus one completion event per programmed page";
    EXPECT_EQ(completions.size(), 1u);
}

/**
 * Two read requests whose last pages complete at the same tick finish
 * in the order those pages reached the die, the order their per-page
 * completion events used to dispatch in, not the order of submission.
 * X and A share die 0, so A starts when X's LSB sense ends (50 us) and
 * its CSB read ends at 50 + 100 + 68 us; B's MSB read starts on die 1 at
 * once and ends at 150 + 68 us, the same tick.
 */
TEST(SsdReadCompletion, SameTickCompletionsKeepDieStartOrder)
{
    Ssd ssd(fourDieTiny());
    const std::uint64_t footprint = ssd.logicalPages() / 2;
    ssd.preloadSequential(footprint);
    const auto find = [&](flash::DieId die, std::uint32_t level) {
        for (flash::Lpn l = 0; l < footprint; ++l) {
            const flash::PageLocation at =
                ssd.chips().locate(ssd.ftl().mapping().lookup(l));
            if (at.die == die && at.level == level)
                return l;
        }
        ADD_FAILURE() << "no page at die " << die << ", level " << level;
        return flash::Lpn{0};
    };
    std::vector<HostRequest> run(3);
    std::vector<std::pair<char, sim::Time>> order;
    const char names[] = {'X', 'A', 'B'};
    const flash::Lpn lpns[] = {find(0, 0), find(0, 1), find(1, 2)};
    for (int i = 0; i < 3; ++i) {
        run[i].startPage = lpns[i];
        run[i].onComplete = [&order, name = names[i]](sim::Time t) {
            order.emplace_back(name, t);
        };
    }
    ssd.submitBatch(run);
    ssd.events().run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0].first, 'X');
    EXPECT_EQ(order[1].first, 'B');
    EXPECT_EQ(order[2].first, 'A');
    EXPECT_EQ(order[1].second, order[2].second);
    EXPECT_EQ(order[1].second, (150 + 48 + 20) * sim::kUsec);
}

TEST(Ssd, FeasibleGcThresholdsDrainASlowWriteStream)
{
    // One 1-page write every 20 ms over a nearly full tiny() device:
    // GC has to run, and at thresholds 1 and 2 it keeps up.
    for (const std::size_t threshold : {std::size_t{1}, std::size_t{2}}) {
        SsdConfig cfg = SsdConfig::tiny();
        cfg.ftl.gcFreeThreshold = threshold;
        Ssd ssd(cfg);
        const std::uint64_t footprint = ssd.logicalPages() * 9 / 10;
        ssd.preloadSequential(footprint);
        std::vector<HostRequest> writes;
        for (std::uint64_t i = 0; i < 3000; ++i) {
            HostRequest w = readAt(static_cast<std::int64_t>(i) *
                                       20 * sim::kMsec,
                                   (i * 7919) % footprint);
            w.isRead = false;
            writes.push_back(std::move(w));
        }
        ssd.submitBatch(writes);
        ssd.events().run();
        EXPECT_TRUE(ssd.drained()) << "threshold " << threshold;
        EXPECT_EQ(ssd.stats().writeRequests, writes.size());
        EXPECT_GT(ssd.ftl().stats().gc.invocations, 0u)
            << "threshold " << threshold;
    }
}

TEST(SsdDeath, InfeasibleGcThresholdIsRejected)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.ftl.gcFreeThreshold = 0;
    EXPECT_EXIT(Ssd ssd(cfg), ::testing::ExitedWithCode(1),
                "FtlConfig::gcFreeThreshold");
    cfg.ftl.gcFreeThreshold = cfg.geometry.blocksPerPlane;
    EXPECT_EXIT(Ssd ssd(cfg), ::testing::ExitedWithCode(1),
                "FtlConfig::gcFreeThreshold");
}

TEST(SsdDeath, GeometryAboveTheMappingLimitIsRejectedBeforeAllocating)
{
    // 64 planes x 349526 blocks x 192 pages = 4294975488 pages, just
    // above 2^32: SsdConfig::validate() rejects it before ChipArray sizes
    // its block table (which would need ~20 GiB on its own).
    SsdConfig cfg = SsdConfig::paperTlc();
    cfg.geometry.blocksPerPlane = 349526;
    EXPECT_EXIT(Ssd ssd(cfg), ::testing::ExitedWithCode(1),
                "fatal: Geometry: .*blocksPerPlane.* = 4 x 4 x 2 x 2 x "
                "349526 x 192 exceeds");
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

TEST(SsdDeath, ArrivalBehindTheClockIsFatal)
{
    Ssd ssd(SsdConfig::tiny());
    ssd.events().schedule(sim::Time{5000}, [] {});
    ssd.events().run();
    HostRequest r;
    r.arrival = sim::Time{1000};
    r.isRead = false;
    EXPECT_EXIT(ssd.submit(r), ::testing::ExitedWithCode(1),
                "fatal: Ssd::submit: HostRequest::arrival = 1000 ns is "
                "behind the device clock now\\(\\) = 5000 ns");
    // An arrival exactly at now() is the present, not the past.
    bool done = false;
    r.arrival = ssd.events().now();
    r.onComplete = [&done](sim::Time) { done = true; };
    ssd.submit(r);
    ssd.events().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(ssd.events().pastSchedules(), 0u);
}

TEST(SsdDeath, OversizedPreloadIsFatal)
{
    Ssd ssd(SsdConfig::tiny());
    EXPECT_EXIT(ssd.preloadSequential(ssd.logicalPages() + 1),
                ::testing::ExitedWithCode(1), "exceeds");
}

} // namespace
} // namespace ida::ssd
