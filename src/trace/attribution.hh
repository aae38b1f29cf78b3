/**
 * @file
 * Latency attribution: folds per-IO spans into per-phase latency
 * histograms and exact time totals, answering "where did the IO time
 * go" — queue wait vs. sensing vs. retry re-sensing vs. channel
 * transfer vs. ECC decode vs. cell programming (paper Sec. II-C's
 * breakdown of a read, extended to every command kind).
 *
 * The headline counters prove the paper's sensing reductions directly:
 * `sensingOpsSaved` accumulates, over every read, the difference
 * between the conventional sensing count of the page's level and the
 * count its wordline's (possibly IDA-merged) coding actually needed —
 * the 2->1 / 4->2 / 4->1 drops of Fig. 5 show up as nonzero savings.
 */
#pragma once

#include <array>
#include <cstdint>

#include "stats/histogram.hh"
#include "trace/span.hh"

namespace ida::stats {
class JsonWriter;
}

namespace ida::trace {

/** Attribution phases; index into the per-phase arrays. */
enum Phase : int {
    kQueueWait = 0, ///< issue -> die granted (die queue)
    kSense,         ///< first sensing round (reads)
    kRetrySense,    ///< read-retry re-sensing rounds
    kChannelWait,   ///< waiting for the shared channel
    kTransfer,      ///< page transfer on the channel
    kDieBusy,       ///< program / erase / adjust cell time
    kEcc,           ///< pipelined ECC decode
    kDram,          ///< controller-DRAM serves
    kNumPhases,
};

/** Stable JSON / report key of phase @p p. */
const char *phaseName(int p);

/** Reduced, POD view of one phase (what reports carry around). */
struct PhaseSummary
{
    std::uint64_t count = 0; ///< spans the phase applied to
    double totalUs = 0.0;    ///< exact summed duration
    double meanUs = 0.0;
    double p99Us = 0.0;      ///< approximate (histogram bucket bound)
};

/** Per-kind span counts plus the sensing-reduction counters. */
struct AttributionCounters
{
    std::uint64_t spans = 0;
    std::uint64_t hostReads = 0;
    std::uint64_t hostWrites = 0;
    std::uint64_t wbufReadHits = 0;
    std::uint64_t wbufWrites = 0;
    std::uint64_t cacheReadHits = 0;
    std::uint64_t unmappedReads = 0;
    std::uint64_t internalReads = 0;
    std::uint64_t internalPrograms = 0;
    std::uint64_t erases = 0;
    std::uint64_t adjusts = 0;
    /** Sensing operations actually performed by traced reads. */
    std::uint64_t sensingOps = 0;
    /** Sensings the conventional coding would have needed. */
    std::uint64_t sensingOpsConventional = 0;
    /** Conventional minus actual: the IDA win (Fig. 5 reductions). */
    std::uint64_t sensingOpsSaved = 0;
    /** Read-retry rounds beyond the first across traced reads. */
    std::uint64_t retryRounds = 0;
};

/**
 * Copyable attribution snapshot, safe to embed in RunResult without
 * dragging the histogram state along. `enabled` is false when no
 * recorder was attached — the JSON schema stays identical either way.
 */
struct AttributionSummary
{
    bool enabled = false;
    AttributionCounters counters;
    std::array<PhaseSummary, kNumPhases> phases{};
};

/**
 * The folding accumulator: per-phase histogram + exact tick totals.
 */
class Attribution
{
  public:
    Attribution();

    /** Fold one completed span. */
    void add(const Span &s);

    const AttributionCounters &counters() const { return counters_; }

    /** Exact summed duration of @p phase in ticks. */
    sim::Time phaseTotal(int phase) const { return totals_[phase]; }

    /** Spans phase @p phase applied to. */
    std::uint64_t phaseCount(int phase) const { return counts_[phase]; }

    const stats::Histogram &phaseHistogram(int phase) const {
        return hists_[phase];
    }

    /** Snapshot for reports; @p enabled is passed through verbatim. */
    AttributionSummary summary(bool enabled) const;

  private:
    void fold(int phase, sim::Time dur);

    AttributionCounters counters_;
    std::array<sim::Time, kNumPhases> totals_{};
    std::array<std::uint64_t, kNumPhases> counts_{};
    std::array<stats::Histogram, kNumPhases> hists_;
};

/**
 * Emit @p s as one JSON object value through @p w (the caller supplies
 * the key). Schema-stable: every field is present even when disabled.
 */
void writeAttributionJson(stats::JsonWriter &w, const AttributionSummary &s);

} // namespace ida::trace
