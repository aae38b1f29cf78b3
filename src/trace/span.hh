/**
 * @file
 * Per-IO span records for the latency-attribution and tracing layer.
 *
 * A Span is the compact life record of one flash command or one
 * instantly-served host operation: every phase boundary the device
 * model crosses (die-queue grant, sense completion, channel grant,
 * transfer end, final completion) is stamped with the simulated clock.
 * Spans are produced by the instrumentation points in flash::ChipArray
 * and ftl::Ftl while a recorder is attached (see docs/ARCHITECTURE.md
 * "IO tracing & latency attribution") and consumed
 * by trace::Recorder, which folds them into per-phase histograms and
 * optionally retains them for the chrome://tracing exporter.
 *
 * The stamp layout is chosen so that the phase durations of any span
 * sum *exactly* to its end-to-end latency (complete - start) — the
 * invariant tests/test_trace.cc cross-checks against the completion
 * times the FTL independently reports to the host.
 */
#pragma once

#include <cstdint>

#include "flash/geometry.hh"
#include "sim/time.hh"

namespace ida::trace {

/** What a span describes. None marks an untraced (inactive) slot. */
enum class SpanKind : std::uint8_t {
    None = 0,
    HostRead,        ///< host read served from the flash array
    HostWrite,       ///< host write programmed straight to flash
    WbufReadHit,     ///< host read served from the controller DRAM buffer
    WbufWrite,       ///< host write absorbed by the DRAM write buffer
    CacheReadHit,    ///< host read served from the DRAM read cache
    UnmappedRead,    ///< host read of a never-written page (no flash op)
    InternalRead,    ///< GC / refresh / verification read
    InternalProgram, ///< GC / refresh migration or write-buffer destage
    Erase,           ///< block erase
    AdjustWl,        ///< IDA voltage adjustment of one wordline
};

/** Stable display name (chrome-trace event name, JSON keys). */
const char *spanKindName(SpanKind k);

/** Lane id marking "no die / no channel involved". */
inline constexpr std::uint32_t kNoLane = ~std::uint32_t{0};

/**
 * One IO's phase-boundary stamps.
 *
 * Timestamp meaning by kind (all simulated nanoseconds):
 *  - reads: start (issue) <= dieStart <= senseEnd <= channelStart <=
 *    channelEnd <= complete; sensing occupies [dieStart, senseEnd]
 *    (including retry re-sensings), the transfer
 *    [channelStart, channelEnd], and ECC decode [channelEnd, complete].
 *  - programs: start <= dieStart <= channelStart <= channelEnd <=
 *    complete; the transfer comes first, the cell programming occupies
 *    [channelEnd, complete] (senseEnd == dieStart, unused).
 *  - erase / adjust: die-only, [dieStart, complete].
 *  - instant serves (write-buffer hit, read-cache hit, buffered write,
 *    unmapped read): everything collapses to [start, complete] in
 *    controller DRAM.
 */
struct Span
{
    std::uint64_t id = 0;
    SpanKind kind = SpanKind::None;
    flash::Lpn lpn = flash::kInvalidLpn; ///< host LPN; invalid = internal
    flash::Ppn ppn = flash::kInvalidPpn;
    std::uint32_t die = kNoLane;
    std::uint32_t channel = kNoLane;

    sim::Time start{};        ///< issue time (host arrival tick)
    sim::Time dieStart{};     ///< die granted (queue wait ends)
    sim::Time senseEnd{};     ///< sensing done (reads; else == dieStart)
    sim::Time channelStart{}; ///< channel granted
    sim::Time channelEnd{};   ///< transfer done
    sim::Time complete{};     ///< host-visible completion

    /** Sensings of one round at the wordline's current coding mode. */
    std::uint16_t senses = 0;
    /** Sensings one round would need under the conventional coding. */
    std::uint16_t sensesConventional = 0;
    /** Read-retry re-sensing rounds beyond the first. */
    std::uint8_t retryRounds = 0;

    bool traced() const { return kind != SpanKind::None; }

    bool
    isRead() const
    {
        return kind == SpanKind::HostRead || kind == SpanKind::InternalRead;
    }

    bool
    isInstant() const
    {
        return kind == SpanKind::WbufReadHit || kind == SpanKind::WbufWrite ||
               kind == SpanKind::CacheReadHit ||
               kind == SpanKind::UnmappedRead;
    }
};

/**
 * A span decomposed into additive phase durations.
 *
 * total() == span.complete - span.start holds for every well-formed
 * span by construction; the cross-check test verifies the *stamps*
 * against independently observed completion times.
 */
struct SpanPhases
{
    sim::Time queueWait{};   ///< issue -> die granted
    sim::Time sense{};       ///< first sensing round (reads)
    sim::Time retrySense{};  ///< additional retry rounds (reads)
    sim::Time channelWait{}; ///< waiting for the shared channel
    sim::Time transfer{};    ///< page transfer on the channel
    sim::Time dieBusy{};     ///< program / erase / adjust execution
    sim::Time ecc{};         ///< pipelined ECC decode (reads)
    sim::Time dram{};        ///< controller-DRAM serves (instant spans)

    sim::Time
    total() const
    {
        return queueWait + sense + retrySense + channelWait + transfer +
               dieBusy + ecc + dram;
    }
};

/** Decompose @p s into its phase durations (see SpanPhases). */
SpanPhases phasesOf(const Span &s);

} // namespace ida::trace
