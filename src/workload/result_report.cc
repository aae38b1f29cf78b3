#include "workload/runner.hh"

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

} // namespace ida::workload
