/**
 * @file
 * Tests of the latency-attribution layer (src/trace):
 *  - always-on units: phase decomposition, attribution folding, the
 *    recorder, the chrome-trace writer, and the always-maintained
 *    ChipStats sensing counters (they need no recorder);
 *  - a whole-device cross-check driving a mixed
 *    read / write / trim workload (with write-buffer, GC, refresh and
 *    read-retry traffic) and verifying for *every* span that the phase
 *    durations sum exactly to the end-to-end latency and that the
 *    host-visible spans match the completion times the host observed
 *    independently through its callbacks.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "flash/chip.hh"
#include "host_read.hh"
#include "ssd/config.hh"
#include "ssd/ssd.hh"
#include "stats/json_writer.hh"
#include "trace/attribution.hh"
#include "trace/chrome_trace.hh"
#include "trace/recorder.hh"
#include "workload/runner.hh"

namespace ida {
namespace {

using flash::testing::hostRead;

using trace::Span;
using trace::SpanKind;

/** A plausible flash-served host read span (times in us for legibility). */
Span
readSpan(std::uint8_t retry_rounds)
{
    Span s;
    s.id = 1;
    s.kind = SpanKind::HostRead;
    s.lpn = 7;
    s.ppn = 42;
    s.die = 0;
    s.channel = 0;
    s.start = sim::Time{};
    s.dieStart = 10 * sim::kUsec;
    // One round of sensing is 50us; retries repeat the full round.
    s.senseEnd = s.dieStart + 50 * sim::kUsec * (1 + retry_rounds);
    s.channelStart = s.senseEnd + 10 * sim::kUsec;
    s.channelEnd = s.channelStart + 30 * sim::kUsec;
    s.complete = s.channelEnd + 20 * sim::kUsec;
    s.senses = 2;
    s.sensesConventional = 4;
    s.retryRounds = retry_rounds;
    return s;
}

TEST(TracePhases, ReadDecomposesExactly)
{
    const Span s = readSpan(0);
    const trace::SpanPhases p = trace::phasesOf(s);
    EXPECT_EQ(p.queueWait, 10 * sim::kUsec);
    EXPECT_EQ(p.sense, 50 * sim::kUsec);
    EXPECT_EQ(p.retrySense, sim::Time{});
    EXPECT_EQ(p.channelWait, 10 * sim::kUsec);
    EXPECT_EQ(p.transfer, 30 * sim::kUsec);
    EXPECT_EQ(p.ecc, 20 * sim::kUsec);
    EXPECT_EQ(p.dieBusy, sim::Time{});
    EXPECT_EQ(p.dram, sim::Time{});
    EXPECT_EQ(p.total(), s.complete - s.start);
}

TEST(TracePhases, RetryRoundsSplitFromFirstSense)
{
    const Span s = readSpan(2);
    const trace::SpanPhases p = trace::phasesOf(s);
    EXPECT_EQ(p.sense, 50 * sim::kUsec);
    EXPECT_EQ(p.retrySense, 100 * sim::kUsec);
    EXPECT_EQ(p.total(), s.complete - s.start);
}

TEST(TracePhases, ProgramPutsCellTimeInDieBusy)
{
    Span s;
    s.kind = SpanKind::HostWrite;
    s.start = sim::Time{};
    s.dieStart = 5 * sim::kUsec;
    s.senseEnd = s.dieStart; // unused for programs
    s.channelStart = 12 * sim::kUsec;
    s.channelEnd = 60 * sim::kUsec;
    s.complete = 720 * sim::kUsec;
    const trace::SpanPhases p = trace::phasesOf(s);
    EXPECT_EQ(p.queueWait, 5 * sim::kUsec);
    EXPECT_EQ(p.channelWait, 7 * sim::kUsec);
    EXPECT_EQ(p.transfer, 48 * sim::kUsec);
    EXPECT_EQ(p.dieBusy, 660 * sim::kUsec);
    EXPECT_EQ(p.total(), s.complete - s.start);
}

TEST(TracePhases, EraseCollapsesChannelPhases)
{
    Span s;
    s.kind = SpanKind::Erase;
    s.start = sim::Time{};
    s.dieStart = 100 * sim::kUsec;
    s.senseEnd = s.dieStart;
    s.channelStart = s.dieStart;
    s.channelEnd = s.dieStart;
    s.complete = s.dieStart + 5 * sim::kMsec;
    const trace::SpanPhases p = trace::phasesOf(s);
    EXPECT_EQ(p.queueWait, 100 * sim::kUsec);
    EXPECT_EQ(p.channelWait, sim::Time{});
    EXPECT_EQ(p.transfer, sim::Time{});
    EXPECT_EQ(p.dieBusy, 5 * sim::kMsec);
    EXPECT_EQ(p.total(), s.complete - s.start);
}

TEST(TracePhases, InstantSpansAreAllDram)
{
    Span s;
    s.kind = SpanKind::WbufReadHit;
    s.start = 3 * sim::kUsec;
    s.dieStart = s.senseEnd = s.channelStart = s.channelEnd = s.start;
    s.complete = s.start + 2 * sim::kUsec;
    const trace::SpanPhases p = trace::phasesOf(s);
    EXPECT_EQ(p.dram, 2 * sim::kUsec);
    EXPECT_EQ(p.total(), s.complete - s.start);
}

TEST(TracePhases, SuspendedProgramSpanCoversTheSuspension)
{
    // A host read suspends a traced host program mid-flight. The
    // program's span must close when its callback actually runs, with
    // the read's sense time and the resume overhead inside dieBusy.
    sim::EventQueue events;
    flash::Geometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 2;
    g.pagesPerBlock = 12;
    g.bitsPerCell = 3;
    flash::FlashTiming timing;
    timing.programSuspension = true;
    flash::ChipArray chips(g, timing, flash::CodingScheme::tlc124(),
                           events);
    for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p)
        chips.programImmediate(p); // block 0 readable
    trace::Recorder rec(trace::Recorder::Options{true});
    chips.setTracer(&rec);

    sim::Time prog_done{-1};
    sim::Time read_done{-1};
    chips.programPage(g.firstPpnOf(1),
                      [&](sim::Time t) { prog_done = t; }, 5, true);
    events.runUntil(500 * sim::kUsec); // the program is mid-flight
    hostRead(chips, 0, 0, [&](sim::Time t) { read_done = t; }, 9);
    events.run();
    ASSERT_EQ(chips.stats().suspensions, 1u);
    ASSERT_EQ(rec.spans().size(), 2u);

    const auto spanOf = [&rec](SpanKind kind) {
        return std::find_if(
            rec.spans().begin(), rec.spans().end(),
            [kind](const Span &s) { return s.kind == kind; });
    };
    const auto prog = spanOf(SpanKind::HostWrite);
    ASSERT_NE(prog, rec.spans().end());
    EXPECT_EQ(prog->lpn, 5u);
    EXPECT_EQ(prog->complete, prog_done);
    EXPECT_EQ(prog_done, timing.pageTransfer + timing.pageProgram +
                             timing.lsbRead +
                             timing.suspendResumeOverhead);
    const trace::SpanPhases p = trace::phasesOf(*prog);
    EXPECT_EQ(p.queueWait, sim::Time{});
    EXPECT_EQ(p.transfer, timing.pageTransfer);
    EXPECT_EQ(p.dieBusy, timing.pageProgram + timing.lsbRead +
                             timing.suspendResumeOverhead);
    EXPECT_EQ(p.total(), prog_done);

    const auto read = spanOf(SpanKind::HostRead);
    ASSERT_NE(read, rec.spans().end());
    EXPECT_EQ(read->dieStart, 500 * sim::kUsec); // no wait: it suspended
    EXPECT_EQ(read->complete, read_done);
}

TEST(TraceAttribution, FoldsCountersAndPhases)
{
    trace::Attribution a;
    a.add(readSpan(1));
    const auto &c = a.counters();
    EXPECT_EQ(c.spans, 1u);
    EXPECT_EQ(c.hostReads, 1u);
    // senses 2 / conventional 4, over (1 + 1 retry) rounds.
    EXPECT_EQ(c.sensingOps, 4u);
    EXPECT_EQ(c.sensingOpsConventional, 8u);
    EXPECT_EQ(c.sensingOpsSaved, 4u);
    EXPECT_EQ(c.retryRounds, 1u);
    EXPECT_EQ(a.phaseTotal(trace::kSense), 50 * sim::kUsec);
    EXPECT_EQ(a.phaseTotal(trace::kRetrySense), 50 * sim::kUsec);
    EXPECT_EQ(a.phaseCount(trace::kRetrySense), 1u);
    EXPECT_EQ(a.phaseTotal(trace::kEcc), 20 * sim::kUsec);

    // A no-retry read must not contribute a zero to the retry phase.
    a.add(readSpan(0));
    EXPECT_EQ(a.phaseCount(trace::kRetrySense), 1u);
    EXPECT_EQ(a.phaseCount(trace::kSense), 2u);

    const trace::AttributionSummary s = a.summary(true);
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.phases[trace::kSense].count, 2u);
    EXPECT_DOUBLE_EQ(s.phases[trace::kSense].totalUs, 100.0);
    EXPECT_DOUBLE_EQ(s.phases[trace::kSense].meanUs, 50.0);
}

TEST(TraceAttribution, JsonSchemaIsStableWhenEmpty)
{
    trace::Attribution a;
    std::ostringstream os;
    stats::JsonWriter w(os);
    trace::writeAttributionJson(w, a.summary(false));
    const std::string j = os.str();
    EXPECT_NE(j.find("\"enabled\": false"), std::string::npos);
    for (int p = 0; p < trace::kNumPhases; ++p)
        EXPECT_NE(j.find("\"" + std::string(trace::phaseName(p)) + "\""),
                  std::string::npos);
    EXPECT_NE(j.find("\"sensingOpsSaved\": 0"), std::string::npos);
}

TEST(TraceRecorder, RetainsSpansOnlyWhenAsked)
{
    trace::Recorder fold_only;
    fold_only.recordInstant(SpanKind::WbufWrite, 9, sim::Time{}, sim::kUsec);
    EXPECT_TRUE(fold_only.spans().empty());
    EXPECT_EQ(fold_only.attribution().counters().wbufWrites, 1u);

    trace::Recorder::Options opts;
    opts.retainSpans = true;
    trace::Recorder keep(opts);
    keep.recordInstant(SpanKind::UnmappedRead, 3, sim::kUsec, sim::kUsec);
    ASSERT_EQ(keep.spans().size(), 1u);
    EXPECT_EQ(keep.spans()[0].kind, SpanKind::UnmappedRead);
    EXPECT_EQ(keep.attribution().counters().unmappedReads, 1u);
    // Ids are 1-based (0 marks "no span").
    EXPECT_EQ(keep.spans()[0].id, 1u);
    EXPECT_EQ(keep.nextId(), 2u);
}

TEST(TraceChrome, WriterEmitsLanesAndEvents)
{
    flash::Geometry g;
    g.channels = 2;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 12;
    g.bitsPerCell = 3;

    std::vector<Span> spans;
    spans.push_back(readSpan(0));
    Span instant;
    instant.id = 2;
    instant.kind = SpanKind::WbufWrite;
    instant.lpn = 5;
    instant.start = sim::kUsec;
    instant.dieStart = instant.senseEnd = instant.start;
    instant.channelStart = instant.channelEnd = instant.start;
    instant.complete = 2 * sim::kUsec;
    spans.push_back(instant);

    std::ostringstream os;
    trace::writeChromeTrace(os, spans, g);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
    // Lane metadata for the host, both dies and both channels.
    EXPECT_NE(j.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(j.find("\"host IOs\""), std::string::npos);
    EXPECT_NE(j.find("\"die 1 (ch 1)\""), std::string::npos);
    EXPECT_NE(j.find("\"channel 1\""), std::string::npos);
    // The read shows up on the host lane, the die lane (as a sense
    // slab) and the channel lane (as a transfer).
    EXPECT_NE(j.find("\"host_read\""), std::string::npos);
    EXPECT_NE(j.find("\"sense\""), std::string::npos);
    EXPECT_NE(j.find("\"xfer\""), std::string::npos);
    // The buffered write is host-lane only, in the dram category.
    EXPECT_NE(j.find("\"wbuf_write\""), std::string::npos);
    EXPECT_NE(j.find("\"cat\": \"dram\""), std::string::npos);
    // Balanced document, trailing newline for text tools.
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(j.back(), '\n');
}

// ---- Always-on chip counters (no recorder needed). ----------------------

TEST(TraceChipCounters, SensingSavingsMatchFig5)
{
    sim::EventQueue events;
    flash::Geometry g;
    g.channels = 2;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 12;
    g.bitsPerCell = 3;
    flash::FlashTiming timing;
    flash::ChipArray chips(g, timing, flash::CodingScheme::tlc124(),
                           events);
    for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p)
        chips.programImmediate(g.firstPpnOf(0) + p);

    // Invalidate wordline 0's LSB and apply the IDA merge: CSB drops
    // 2 -> 1 sensings and MSB 4 -> 2 (paper Fig. 5 cases 2/3).
    chips.blockTable().invalidate(g.pageOfWordline(0, 0));
    chips.adjustWordline(0, 0, 0b110, [](sim::Time) {});
    events.run();

    const auto before = chips.stats();
    hostRead(chips, g.pageOfWordline(0, 1), 0, [](sim::Time) {});
    hostRead(chips, g.pageOfWordline(0, 2), 0, [](sim::Time) {});
    events.run();
    const auto &after = chips.stats();
    EXPECT_EQ(after.sensingOps - before.sensingOps, 3u);
    EXPECT_EQ(after.sensingOpsConventional - before.sensingOpsConventional,
              6u);
    EXPECT_EQ(after.sensingOpsSaved - before.sensingOpsSaved, 3u);
}

TEST(TraceChipCounters, ConventionalReadsSaveNothing)
{
    sim::EventQueue events;
    flash::Geometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 2;
    g.pagesPerBlock = 12;
    g.bitsPerCell = 3;
    flash::FlashTiming timing;
    flash::ChipArray chips(g, timing, flash::CodingScheme::tlc124(),
                           events);
    for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p)
        chips.programImmediate(p);
    // One read per level, one retry round on the MSB: ops count rounds.
    hostRead(chips, 0, 0, [](sim::Time) {});
    hostRead(chips, 1, 0, [](sim::Time) {});
    hostRead(chips, 2, 1, [](sim::Time) {});
    events.run();
    const auto &st = chips.stats();
    EXPECT_EQ(st.sensingOps, 1u + 2u + 4u * 2u);
    EXPECT_EQ(st.sensingOpsConventional, st.sensingOps);
    EXPECT_EQ(st.sensingOpsSaved, 0u);
}

// ---- Whole-device cross-check. -------------------------------------------

/** tiny() with IDA, read retries, a write buffer and fast refresh. */
ssd::SsdConfig
busyTiny()
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.ftl.enableIda = true;
    cfg.adjustErrorRate = 0.2;
    cfg.retrySeverity = 0.5; // some reads retry: exercises retrySense
    cfg.ftl.writeBuffer.capacityPages = 8;
    cfg.ftl.refreshPeriod = 2 * sim::kMin;
    cfg.ftl.refreshCheckInterval = 5 * sim::kSec;
    cfg.ftl.preloadAgeSpread = 30 * sim::kSec;
    return cfg;
}

TEST(TraceCrossCheck, PhaseSumsMatchObservedCompletions)
{
    const ssd::SsdConfig cfg = busyTiny();
    ssd::Ssd dev(cfg);
    dev.enableTracing(/*retain_spans=*/true);
    const auto footprint = static_cast<std::uint64_t>(
        0.6 * static_cast<double>(dev.logicalPages()));
    dev.preloadSequential(footprint);
    dev.start();

    // Mixed single-page traffic over ~3 simulated minutes, with
    // periodic trims to churn validity (feeding GC and IDA refresh).
    std::vector<std::pair<sim::Time, sim::Time>> observed;
    sim::Rng rng(7);
    sim::Time arrival{};
    const int kRequests = 600;
    for (int i = 0; i < kRequests; ++i) {
        arrival += sim::Time{static_cast<std::int64_t>(rng.exponential(
            static_cast<double>((3 * sim::kMin).count()) / kRequests))};
        if (i % 19 == 18) {
            const flash::Lpn victim = rng.uniformInt(0, footprint - 1);
            dev.events().schedule(arrival, [&dev, victim] {
                dev.ftl().hostTrim(victim, 0);
            });
            continue;
        }
        ssd::HostRequest hr;
        hr.arrival = arrival;
        hr.isRead = rng.uniform01() < 0.65;
        hr.pageCount = 1;
        hr.startPage = rng.uniformInt(0, footprint - 1);
        hr.onComplete = [&observed, a = arrival](sim::Time t) {
            observed.push_back({a, t});
        };
        dev.submit(hr);
    }

    dev.events().runUntil(std::max<sim::Time>(3 * sim::kMin, arrival));
    const sim::Time drain_limit = dev.events().now() + 10 * sim::kMin;
    while (!dev.drained() && dev.events().now() < drain_limit)
        dev.events().runUntil(dev.events().now() + sim::kSec);
    ASSERT_TRUE(dev.drained());

    // Every span: stamps monotone and phases summing exactly to the
    // end-to-end latency. Host-visible spans collected for matching.
    std::vector<std::pair<sim::Time, sim::Time>> host_spans;
    for (const Span &s : dev.tracer()->spans()) {
        SCOPED_TRACE("span id " + std::to_string(s.id) + " kind " +
                     trace::spanKindName(s.kind));
        ASSERT_TRUE(s.traced());
        EXPECT_LE(s.start, s.dieStart);
        EXPECT_LE(s.dieStart, s.senseEnd);
        if (s.isRead()) {
            EXPECT_LE(s.senseEnd, s.channelStart);
        }
        EXPECT_LE(s.channelStart, s.channelEnd);
        EXPECT_LE(s.channelEnd, s.complete);
        const trace::SpanPhases p = trace::phasesOf(s);
        EXPECT_EQ(p.total(), s.complete - s.start);
        const bool host_visible = s.kind == SpanKind::HostRead ||
                                  s.kind == SpanKind::HostWrite ||
                                  s.isInstant();
        if (host_visible)
            host_spans.emplace_back(s.start, s.complete);
    }

    // The host-visible spans are exactly the request intervals the host
    // observed through its completion callbacks (single-page requests:
    // one span per request, issued at the arrival tick).
    std::sort(observed.begin(), observed.end());
    std::sort(host_spans.begin(), host_spans.end());
    EXPECT_EQ(host_spans, observed);

    // The workload really exercised the full machinery.
    const trace::AttributionSummary sum = dev.tracer()->summary();
    EXPECT_TRUE(sum.enabled);
    EXPECT_GT(sum.counters.hostReads, 0u);
    EXPECT_GT(sum.counters.hostWrites + sum.counters.wbufWrites, 0u);
    EXPECT_GT(sum.counters.internalReads + sum.counters.internalPrograms,
              0u)
        << "no GC/refresh/destage traffic was traced";
    EXPECT_GT(sum.counters.adjusts, 0u) << "no IDA adjustment ran";
    EXPECT_GT(sum.counters.sensingOpsSaved, 0u)
        << "IDA produced no sensing reduction";
    // Attribution totals agree with the always-on chip counters for
    // the same run (both count every sensing the array performed).
    EXPECT_EQ(sum.counters.sensingOps, dev.chips().stats().sensingOps);
    EXPECT_EQ(sum.counters.sensingOpsSaved,
              dev.chips().stats().sensingOpsSaved);
}

// ---- Runtime attach. -----------------------------------------------------

enum class Attach { Never, FromStart, MidRun };

struct AttachRun
{
    std::vector<sim::Time> completions; ///< per request, by submit order
    std::string archive;                ///< harvestResult JSON
    trace::AttributionSummary attribution;
};

/** The archive with its "attribution" object cut out. */
std::string
withoutAttribution(const std::string &json)
{
    const std::size_t key = json.find("\"attribution\": {");
    if (key == std::string::npos)
        return json;
    std::size_t i = json.find('{', key);
    for (int depth = 0; i < json.size(); ++i) {
        depth += json[i] == '{' ? 1 : json[i] == '}' ? -1 : 0;
        if (depth == 0)
            break;
    }
    return json.substr(0, key) + json.substr(i + 1);
}

AttachRun
runAttached(Attach attach)
{
    ssd::SsdConfig cfg = busyTiny();
    cfg.seed = 11;

    ssd::Ssd dev(cfg);
    if (attach == Attach::FromStart)
        dev.enableTracing();
    const auto footprint = static_cast<std::uint64_t>(
        0.6 * static_cast<double>(dev.logicalPages()));
    dev.preloadSequential(footprint);
    dev.start();

    AttachRun out;
    const int kRequests = 400;
    out.completions.assign(kRequests, sim::Time{-1});
    sim::Rng rng(5);
    sim::Time arrival{};
    for (int i = 0; i < kRequests; ++i) {
        arrival += sim::Time{static_cast<std::int64_t>(rng.exponential(
            static_cast<double>((2 * sim::kMin).count()) / kRequests))};
        ssd::HostRequest hr;
        hr.arrival = arrival;
        hr.isRead = rng.uniform01() < 0.65;
        hr.pageCount = 1 + static_cast<std::uint32_t>(rng.uniformInt(0, 2));
        hr.startPage = rng.uniformInt(0, footprint - hr.pageCount);
        hr.onComplete = [&out, i](sim::Time t) { out.completions[i] = t; };
        dev.submit(hr);
    }

    // Every mode takes the same runUntil steps; only the attach differs.
    // The mid-run attach waits for a moment with flash commands queued
    // or running, so spans open on commands issued after it while older
    // ones finish untraced.
    dev.events().runUntil(sim::kMin);
    const sim::Time step_limit = dev.events().now() + sim::kMin;
    while (dev.chips().inflight() == 0 && dev.events().now() < step_limit)
        dev.events().runUntil(dev.events().now() + 100 * sim::kUsec);
    EXPECT_GT(dev.chips().inflight(), 0u) << "no command in flight to "
                                             "attach across";
    if (attach == Attach::MidRun)
        dev.enableTracing();
    dev.events().runUntil(std::max<sim::Time>(2 * sim::kMin, arrival));
    const sim::Time drain_limit = dev.events().now() + 10 * sim::kMin;
    while (!dev.drained() && dev.events().now() < drain_limit)
        dev.events().runUntil(dev.events().now() + sim::kSec);
    EXPECT_TRUE(dev.drained());

    const workload::RunResult r =
        workload::harvestResult(dev, "attach", footprint);
    out.archive = r.toJson(/*include_volatile=*/false);
    out.attribution = r.attribution;
    return out;
}

TEST(TraceAttach, TracingDoesNotPerturbTheSimulation)
{
    const AttachRun never = runAttached(Attach::Never);
    const AttachRun start = runAttached(Attach::FromStart);
    const AttachRun mid = runAttached(Attach::MidRun);

    EXPECT_EQ(std::count(never.completions.begin(), never.completions.end(),
                         sim::Time{-1}),
              0);
    EXPECT_EQ(start.completions, never.completions);
    EXPECT_EQ(mid.completions, never.completions);

    ASSERT_NE(never.archive.find("\"attribution\": {"), std::string::npos);
    EXPECT_EQ(withoutAttribution(start.archive),
              withoutAttribution(never.archive));
    EXPECT_EQ(withoutAttribution(mid.archive),
              withoutAttribution(never.archive));

    EXPECT_FALSE(never.attribution.enabled);
    EXPECT_TRUE(start.attribution.enabled);
    EXPECT_TRUE(mid.attribution.enabled);
    EXPECT_GT(mid.attribution.counters.spans, 0u);
    EXPECT_LT(mid.attribution.counters.spans,
              start.attribution.counters.spans);
}

// ---- Read-cache spans. ----------------------------------------------------

TEST(TraceCache, CacheHitSpansMatchTheCacheCounter)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.ftl.sectorMode = true;
    cfg.ftl.readCache.capacityPages = 16;
    cfg.ftl.writeBuffer.capacityPages = 8;

    ssd::Ssd dev(cfg);
    dev.enableTracing();
    const std::uint64_t footprint = 64;
    dev.preloadSequential(footprint);
    dev.start();

    // Whole- and sub-page reads over a hot set that fits the cache,
    // with writes churning it (coherence invalidations, merged fills).
    const std::uint32_t spp = cfg.geometry.sectorsPerPage();
    sim::Rng rng(3);
    sim::Time arrival{};
    for (int i = 0; i < 600; ++i) {
        arrival += 200 * sim::kUsec;
        ssd::HostRequest hr;
        hr.arrival = arrival;
        hr.isRead = rng.uniform01() < 0.8;
        hr.startPage = rng.uniformInt(0, hr.isRead ? 11 : footprint - 1);
        if (rng.uniform01() < 0.5) {
            hr.startSector =
                static_cast<std::uint32_t>(rng.uniformInt(0, spp - 1));
            hr.sectorCount = 1;
        }
        dev.submit(hr);
    }
    dev.events().runUntil(arrival);
    const sim::Time drain_limit = dev.events().now() + sim::kMin;
    while (!dev.drained() && dev.events().now() < drain_limit)
        dev.events().runUntil(dev.events().now() + sim::kSec);
    ASSERT_TRUE(dev.drained());

    const trace::AttributionSummary sum = dev.tracer()->summary();
    EXPECT_GT(sum.counters.cacheReadHits, 0u);
    EXPECT_EQ(sum.counters.cacheReadHits, dev.ftl().readCacheStats().hits);
}

} // namespace
} // namespace ida
