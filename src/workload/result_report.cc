#include "workload/result_report.hh"

#include <sstream>

#include "stats/json_writer.hh"

namespace ida::workload {

void
RunResult::writeJson(stats::JsonWriter &w, bool include_volatile) const
{
    w.beginObject();
    w.field("workload", workload);
    w.field("system", system);

    w.field("readRespUs", readRespUs);
    w.field("readP99Us", readP99Us);
    w.field("writeRespUs", writeRespUs);
    w.field("throughputMBps", throughputMBps);
    w.field("measuredReads", measuredReads);
    w.field("measuredWrites", measuredWrites);

    w.key("ftl");
    w.beginObject();
    w.field("hostReads", ftl.hostReads);
    w.field("hostWrites", ftl.hostWrites);
    w.field("hostReadsUnmapped", ftl.hostReadsUnmapped);
    w.field("maxInUseBlocks", ftl.maxInUseBlocks);
    w.key("readClass");
    w.beginObject();
    w.key("byLevel");
    w.beginArray();
    for (std::uint64_t n : ftl.readClass.byLevel)
        w.value(n);
    w.endArray();
    w.key("byLevelLowerInvalid");
    w.beginArray();
    for (std::uint64_t n : ftl.readClass.byLevelLowerInvalid)
        w.value(n);
    w.endArray();
    w.field("idaServed", ftl.readClass.idaServed);
    w.field("idaSavingsUs", sim::toUsec(ftl.readClass.idaSavings));
    w.endObject();
    w.key("refresh");
    w.beginObject();
    w.field("refreshes", ftl.refresh.refreshes);
    w.field("idaRefreshes", ftl.refresh.idaRefreshes);
    w.field("baselineRefreshes", ftl.refresh.baselineRefreshes);
    w.field("validPages", ftl.refresh.validPages);
    w.field("targetPages", ftl.refresh.targetPages);
    w.field("adjustedWordlines", ftl.refresh.adjustedWordlines);
    w.field("extraReads", ftl.refresh.extraReads);
    w.field("extraWrites", ftl.refresh.extraWrites);
    w.field("migratedPages", ftl.refresh.migratedPages);
    w.endObject();
    w.key("gc");
    w.beginObject();
    w.field("invocations", ftl.gc.invocations);
    w.field("erases", ftl.gc.erases);
    w.field("migratedPages", ftl.gc.migratedPages);
    w.endObject();
    w.key("sector");
    w.beginObject();
    w.field("hostTrims", ftl.hostTrims);
    w.field("subPageWrites", ftl.sector.subPageWrites);
    w.field("subPageTrims", ftl.sector.subPageTrims);
    w.field("trimsDroppedPageMode", ftl.sector.trimsDroppedPageMode);
    w.field("rmwReads", ftl.sector.rmwReads);
    w.field("rmwRetries", ftl.sector.rmwRetries);
    w.field("mergedReads", ftl.sector.mergedReads);
    w.field("partialInvalidations", ftl.sector.partialInvalidations);
    w.field("pagesDiedPartial", ftl.sector.pagesDiedPartial);
    w.field("zeroFillReads", ftl.sector.zeroFillReads);
    w.field("partialValidPagesEnd", partialValidPages);
    w.field("idaEligibleWordlinesEnd", idaEligibleWordlines);
    w.endObject();
    w.endObject();

    w.key("cache");
    w.beginObject();
    w.field("hits", cache.hits);
    w.field("misses", cache.misses);
    w.field("mergedFills", cache.mergedFills);
    w.field("fills", cache.fills);
    w.field("evictions", cache.evictions);
    w.field("invalidations", cache.invalidations);
    w.endObject();

    w.field("trimRequests", trimRequests);

    w.key("chip");
    w.beginObject();
    w.field("reads", chip.reads);
    w.field("programs", chip.programs);
    w.field("erases", chip.erases);
    w.field("adjusts", chip.adjusts);
    w.field("retrySenseRounds", chip.retrySenseRounds);
    w.field("suspensions", chip.suspensions);
    w.field("sensingOps", chip.sensingOps);
    w.field("sensingOpsConventional", chip.sensingOpsConventional);
    w.field("sensingOpsSaved", chip.sensingOpsSaved);
    w.field("dieBusySec", sim::toSec(chip.dieBusy));
    w.field("channelBusySec", sim::toSec(chip.channelBusy));
    w.field("senseSec", sim::toSec(chip.senseTime));
    w.endObject();

    w.key("wear");
    w.beginObject();
    w.field("totalErases", wear.totalErases);
    w.field("minErase", std::uint64_t{wear.minErase});
    w.field("maxErase", std::uint64_t{wear.maxErase});
    w.field("meanErase", wear.meanErase);
    w.field("stddevErase", wear.stddevErase);
    w.field("skew", wear.skew);
    w.field("programs", wear.programs);
    w.endObject();

    w.key("capacity");
    w.beginObject();
    w.field("inUseBlocksEnd", inUseBlocksEnd);
    w.field("totalBlocks", totalBlocks);
    w.field("footprintPages", footprintPages);
    w.endObject();

    w.key("trace");
    w.beginObject();
    w.field("malformedLines", traceMalformedLines);
    w.field("outOfOrderLines", traceOutOfOrderLines);
    w.endObject();

    w.key("attribution");
    trace::writeAttributionJson(w, attribution);

    // Causality gauge, always present: CI asserts it is zero, so a
    // model flow that schedules into the past on a queue switched to
    // the Clamp policy cannot pass silently.
    w.field("pastSchedules", pastSchedules);
    w.field("simulatedSec", sim::toSec(simulatedTime));
    if (include_volatile)
        w.field("wallSeconds", wallSeconds);
    w.endObject();
}

std::string
RunResult::toJson(bool include_volatile) const
{
    std::ostringstream os;
    stats::JsonWriter w(os);
    writeJson(w, include_volatile);
    return os.str();
}

stats::Report
makeReport(const RunResult &r)
{
    stats::Report rep("run: " + r.workload + " on " + r.system);

    rep.section("response");
    rep.add("read_mean_us", r.readRespUs, 1);
    rep.add("read_p99_us", r.readP99Us, 1);
    rep.add("write_mean_us", r.writeRespUs, 1);
    rep.add("read_throughput_mbps", r.throughputMBps, 2);
    rep.add("measured_reads", r.measuredReads);
    rep.add("measured_writes", r.measuredWrites);

    rep.section("read-classes");
    const auto &rc = r.ftl.readClass;
    for (std::size_t l = 0; l < rc.byLevel.size(); ++l) {
        rep.add("reads_level" + std::to_string(l), rc.byLevel[l]);
        rep.add("reads_level" + std::to_string(l) + "_lower_invalid",
                rc.byLevelLowerInvalid[l]);
    }
    rep.add("ida_served", rc.idaServed);
    rep.add("ida_saving_total_us", sim::toUsec(rc.idaSavings), 0);

    rep.section("refresh");
    const auto &rf = r.ftl.refresh;
    rep.add("refreshes", rf.refreshes);
    rep.add("ida_refreshes", rf.idaRefreshes);
    rep.add("baseline_refreshes", rf.baselineRefreshes);
    rep.add("valid_pages", rf.validPages);
    rep.add("target_pages", rf.targetPages);
    rep.add("adjusted_wordlines", rf.adjustedWordlines);
    rep.add("extra_reads", rf.extraReads);
    rep.add("extra_writes", rf.extraWrites);
    rep.add("migrated_pages", rf.migratedPages);

    rep.section("gc");
    rep.add("invocations", r.ftl.gc.invocations);
    rep.add("erases", r.ftl.gc.erases);
    rep.add("migrated_pages", r.ftl.gc.migratedPages);

    // Sector-granularity and cache sections only appear when those
    // features saw traffic, keeping classic page-granular reports
    // byte-identical.
    const auto &sec = r.ftl.sector;
    if (r.trimRequests != 0 || sec.subPageWrites != 0 ||
        sec.subPageTrims != 0 || sec.trimsDroppedPageMode != 0 ||
        r.partialValidPages != 0) {
        rep.section("sector");
        rep.add("trim_requests", r.trimRequests);
        rep.add("host_trims", r.ftl.hostTrims);
        rep.add("sub_page_writes", sec.subPageWrites);
        rep.add("sub_page_trims", sec.subPageTrims);
        rep.add("trims_dropped_page_mode", sec.trimsDroppedPageMode);
        rep.add("rmw_reads", sec.rmwReads);
        rep.add("rmw_retries", sec.rmwRetries);
        rep.add("merged_reads", sec.mergedReads);
        rep.add("partial_invalidations", sec.partialInvalidations);
        rep.add("pages_died_partial", sec.pagesDiedPartial);
        rep.add("zero_fill_reads", sec.zeroFillReads);
        rep.add("partial_valid_pages_end", r.partialValidPages);
        rep.add("ida_eligible_wordlines_end", r.idaEligibleWordlines);
    }
    if (r.cache.hits != 0 || r.cache.misses != 0) {
        rep.section("cache");
        rep.add("hits", r.cache.hits);
        rep.add("misses", r.cache.misses);
        rep.add("merged_fills", r.cache.mergedFills);
        rep.add("fills", r.cache.fills);
        rep.add("evictions", r.cache.evictions);
        rep.add("invalidations", r.cache.invalidations);
    }

    rep.section("flash");
    rep.add("reads", r.chip.reads);
    rep.add("programs", r.chip.programs);
    rep.add("erases", r.chip.erases);
    rep.add("adjusts", r.chip.adjusts);
    rep.add("retry_rounds", r.chip.retrySenseRounds);
    rep.add("sensing_ops", r.chip.sensingOps);
    rep.add("sensing_ops_saved", r.chip.sensingOpsSaved);
    rep.add("die_busy_s", sim::toSec(r.chip.dieBusy), 2);
    rep.add("channel_busy_s", sim::toSec(r.chip.channelBusy), 2);

    rep.section("wear");
    rep.add("total_erases", r.wear.totalErases);
    rep.add("max_erase", std::uint64_t{r.wear.maxErase});
    rep.add("mean_erase", r.wear.meanErase, 3);
    rep.add("skew", r.wear.skew, 3);

    rep.section("capacity");
    rep.add("in_use_blocks", r.inUseBlocksEnd);
    rep.add("total_blocks", r.totalBlocks);
    rep.add("footprint_pages", r.footprintPages);
    rep.add("max_in_use_blocks", r.ftl.maxInUseBlocks);

    if (r.attribution.enabled) {
        rep.section("attribution");
        for (int p = 0; p < trace::kNumPhases; ++p) {
            const auto &ph = r.attribution.phases[p];
            if (ph.count == 0)
                continue;
            rep.add(std::string(trace::phaseName(p)) + "_mean_us",
                    ph.meanUs, 1);
        }
        rep.add("spans", r.attribution.counters.spans);
        rep.add("sensing_ops_saved",
                r.attribution.counters.sensingOpsSaved);
    }

    rep.section("meta");
    rep.add("trace_malformed_lines", r.traceMalformedLines);
    rep.add("trace_out_of_order_lines", r.traceOutOfOrderLines);
    rep.add("past_schedules", r.pastSchedules);
    rep.add("simulated_s", sim::toSec(r.simulatedTime), 1);
    rep.add("wall_s", r.wallSeconds, 2);
    return rep;
}

} // namespace ida::workload
