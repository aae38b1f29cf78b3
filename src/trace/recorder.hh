/**
 * @file
 * The per-device span recorder the instrumentation points report to.
 *
 * A Recorder is owned by ssd::Ssd (created by Ssd::enableTracing) and
 * handed to ChipArray and Ftl as a raw pointer. Every completed span is
 * folded into the Attribution accumulator; with `retainSpans` on, the
 * raw spans are additionally kept for the chrome://tracing exporter
 * (trace/chrome_trace.hh).
 *
 * Attaching is a runtime choice in every build. A device with no
 * recorder stamps nothing: each flash op tests one null pointer or
 * span handle and moves on. Spans still open on the flash side live in
 * ChipArray's slab, not here, so a recorder can be replaced or dropped
 * while commands are in flight.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "trace/attribution.hh"
#include "trace/span.hh"

namespace ida::trace {

class Recorder
{
  public:
    struct Options
    {
        /**
         * Keep every raw span (for chrome-trace export). Off by
         * default: long runs fold millions of spans into the fixed-size
         * attribution state without growing memory.
         */
        bool retainSpans = false;
    };

    Recorder() = default;
    explicit Recorder(Options opts) : opts_(opts) {}

    /** Allocate the next span id (1-based; 0 marks "no span"). */
    std::uint64_t nextId() { return ++lastId_; }

    /** Fold (and optionally retain) one completed span. */
    void
    record(const Span &s)
    {
        attribution_.add(s);
        if (opts_.retainSpans)
            spans_.push_back(s);
    }

    /**
     * Record an instantly-served host operation (write-buffer hit,
     * buffered write, unmapped read) as a one-phase DRAM span.
     */
    void
    recordInstant(SpanKind kind, flash::Lpn lpn, sim::Time start,
                  sim::Time complete)
    {
        Span s;
        s.id = nextId();
        s.kind = kind;
        s.lpn = lpn;
        s.start = start;
        s.dieStart = start;
        s.senseEnd = start;
        s.channelStart = start;
        s.channelEnd = start;
        s.complete = complete;
        record(s);
    }

    const Attribution &attribution() const { return attribution_; }

    /** Snapshot for RunResult (enabled: a recorder was attached). */
    AttributionSummary summary() const { return attribution_.summary(true); }

    /** Retained spans (empty unless Options::retainSpans). */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    Options opts_;
    std::uint64_t lastId_ = 0;
    Attribution attribution_;
    std::vector<Span> spans_;
};

} // namespace ida::trace
