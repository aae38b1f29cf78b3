/**
 * @file
 * Cross-layer invariant auditor.
 *
 * The simulator's result tables are only as credible as the agreement
 * between its layers: the FTL mapping, the per-page sector masks, the
 * per-wordline IDA coding state, the event kernel's heap, and
 * the conservation counters that tie host traffic to flash commands.
 * Each layer maintains its own view incrementally for speed; nothing on
 * the hot path re-derives another layer's state. The Auditor closes
 * that gap: it walks every layer from the outside and checks that the
 * cached views agree with ground-truth recomputation.
 *
 * Usage: attach an Auditor to a live Ssd, then either call runAll() at
 * points of interest (e.g. after drain), or maybeRun(every) from a
 * harness drive loop to audit every N executed events. The check
 * catalog is one fixed table, run in the order listed below.
 * Violations accumulate and are never cleared by running; a clean
 * system reports zero forever.
 *
 * The auditor is deliberately O(pages) per run and touches no simulator
 * state; it is a debug tool, compiled into the library always but never
 * invoked from any hot path: periodic audits are polled by the drive
 * loop between runUntil() slices, so the event kernel carries no hook.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ida::ssd {
class Ssd;
}

namespace ida::audit {

/** One recorded invariant violation. */
struct Violation
{
    std::string check;  ///< name of the check that fired
    std::string detail; ///< what disagreed, with indices
};

/**
 * Walks a live Ssd and verifies cross-layer invariants.
 *
 * The catalog, in run order (docs/ARCHITECTURE.md):
 *  - mapping-block:    L2P/P2L inverse agreement, every live mapping
 *                      points at a Valid flash page, per-block
 *                      validCount matches both the Valid-page count
 *                      and the number of mapped pages in the block.
 *  - wordline-cache:   flash::BlockTable's incrementally maintained
 *                      invalid-level masks match recomputation from the
 *                      page states (derived from the write pointer and
 *                      the sector masks).
 *  - ida-coding:       every IDA wordline's mask is a proper subset
 *                      with all dropped levels Invalid; the memoized
 *                      IdaMerge moves states only upward (ISPP), its
 *                      survivors are consistent, and surviving levels
 *                      never sense more than the conventional coding.
 *  - event-queue:      the heap order holds, timestamps never behind
 *                      now(), sequence numbers below the allocation
 *                      cursor, exact slab-pool slot accounting
 *                      (EventQueue::validateHeap).
 *  - admission:        Ssd's arrival FIFO is sorted by (arrival, seq)
 *                      with no entry behind now(); an arrival event is
 *                      pending at its oldest run iff it is non-empty;
 *                      inflightRequests() equals FIFO entries plus live
 *                      request slots; a read request whose pages have
 *                      all reported has its one completion event
 *                      pending at (lastDone, lastSeq), and one with
 *                      pages outstanding has none
 *                      (Ssd::validateAdmission).
 *  - block-accounting: BlockManager free pools / active flags / in-use
 *                      counter agree with per-block recount; the age
 *                      index holds exactly the closed blocks, keyed by
 *                      their current refreshedAt, in strictly
 *                      increasing (refreshedAt, id) order; no clock
 *                      field is ahead of the event clock.
 *  - sector-validity:  per-page sector masks never carry bits outside
 *                      the geometry's sectors-per-page and are empty at
 *                      or above the block's write pointer. (A page's
 *                      state is derived from its mask, so Valid ⇔ mask
 *                      non-empty needs no check.)
 *  - cache-coherence:  every read-cache line is non-empty, in range,
 *                      consistent with the cache's own index, within
 *                      capacity, and a subset of flash-valid ∪
 *                      write-buffer-dirty sectors (the cache never
 *                      invents data and never outlives a write/TRIM).
 *  - conservation:     host writes + preload + GC/refresh migration +
 *                      write-buffer destages account exactly for every
 *                      flash program, net of read-modify-write merges
 *                      still in flight; erases and write-buffer
 *                      occupancy balance the same way; total valid
 *                      pages equal the mapping's mappedCount.
 */
class Auditor
{
  public:
    /**
     * Attach to @p ssd and snapshot the conservation baselines (so
     * attaching mid-run is valid).
     */
    explicit Auditor(ssd::Ssd &ssd);

    /**
     * Run every check of the catalog against the current state;
     * returns the number of violations found by this run.
     */
    std::size_t runAll();

    /**
     * Run the catalog when at least @p every_events events have
     * executed since the last audit; returns true when it ran. The
     * cheap polling form for harness drive loops.
     */
    bool maybeRun(std::uint64_t every_events);

    /**
     * Re-snapshot the conservation baselines. Call after an external
     * counter reset (Ftl::resetReadClassification); the state checks
     * are unaffected either way.
     */
    void rebase();

    /**
     * Stored violations, capped at 100 entries to keep a badly corrupt
     * run readable; totalViolations() keeps the true count.
     */
    const std::vector<Violation> &violations() const {
        return violations_;
    }

    std::uint64_t totalViolations() const { return totalViolations_; }

    /** Number of completed runAll() passes. */
    std::uint64_t runs() const { return runs_; }

    /** One-line status plus the first few violations, for loggers. */
    std::string summary() const;

  private:
    struct Baseline
    {
        std::uint64_t chipPrograms = 0;
        std::uint64_t chipErases = 0;
        std::uint64_t hostWrites = 0;
        std::uint64_t hostTrims = 0;
        std::uint64_t preloadWrites = 0;
        std::uint64_t gcMigrated = 0;
        std::uint64_t gcErases = 0;
        std::uint64_t refreshMigrated = 0;
        std::uint64_t refreshExtraWrites = 0;
        std::uint64_t wbBuffered = 0;
        std::uint64_t wbCoalesced = 0;
        std::uint64_t wbFlushes = 0;
        std::uint64_t wbTrimmed = 0;
        std::uint64_t wbSize = 0;
        std::uint32_t rmwInFlight = 0;
    };

    /** One catalog entry: the name violations carry, and its check. */
    struct Check
    {
        const char *name;
        void (Auditor::*run)();
    };
    static const Check kCatalog[];

    /** Record a violation against the currently running check. */
    void fail(std::string detail);

    void checkMappingBlock();
    void checkWordlineCache();
    void checkIdaCoding();
    void checkEventQueue();
    void checkAdmission();
    void checkBlockAccounting();
    void checkSectorValidity();
    void checkCacheCoherence();
    void checkConservation();

    Baseline captureBaseline() const;

    ssd::Ssd &ssd_;
    std::vector<Violation> violations_;
    std::uint64_t totalViolations_ = 0;
    std::uint64_t runs_ = 0;
    std::uint64_t lastAuditExecuted_ = 0;
    Baseline base_;
    const char *currentCheck_ = nullptr;
};

} // namespace ida::audit
