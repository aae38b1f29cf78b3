/**
 * @file
 * Flash chip-array timing model.
 *
 * Owns the device's BlockTable and sequences flash commands onto the
 * shared resources: each die executes one command at a time and each
 * channel carries one page transfer at a time (paper Fig. 1). Host reads
 * are prioritized over every other die operation ("read-first
 * scheduling", Table II).
 *
 * Block *state* mutates synchronously when a command is issued; the
 * command only models *timing* and invokes its completion callback at
 * the simulated finish time. This keeps multi-step FTL flows (GC,
 * refresh) simple and deterministic: each phase issues its commands and
 * waits for all completions before mutating further. A command lives in
 * one slab slot from issue to completion: queued, running, suspended
 * and awaiting its read completion, it is only ever named by the slot's
 * handle, so its callback is parked once and never moved between queues.
 * The exception is a host read: its timeline is fixed when it reaches
 * the die, so it reports its completion tick there (ReadDone), leaves
 * its slot and runs no completion event.
 *
 * Per-command timing (paper Sec. II-C, Table II):
 *  - Read:    sense tR(page) x (1 + retryRounds) on the die, then one
 *             page transfer on the channel, then pipelined ECC decode.
 *  - Program: one page transfer in on the channel, then tPROG on the die.
 *  - Erase:   tERASE on the die.
 *  - AdjustWl: tADJ (voltage adjustment, Sec. III-B) on the die.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "flash/block.hh"
#include "flash/coding.hh"
#include "flash/geometry.hh"
#include "flash/timing.hh"
#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"
#include "sim/slab.hh"
#include "trace/span.hh"

namespace ida::trace {
class Recorder;
}

namespace ida::flash {

/**
 * Completion callback: receives the command's finish time.
 *
 * 48 bytes of inline storage, allocation-free and move-only (see
 * sim/inline_callback.hh). ChipArray parks it in the command's slot at
 * issue and moves it out only to run it. Budgeted for the deepest
 * capture set layered on top: the FTL wraps a DoneCallback together
 * with a `this` pointer into one 64-byte EventQueue::Callback
 * (ftl/ftl.cc write-buffer and migration-prune paths), so 48 + 8
 * (vtable) + 8 (this) must stay within EventQueue::Callback::capacity.
 */
using DoneCallback = sim::InlineCallback<void(sim::Time), 48>;

/**
 * A host read's report: its completion tick and the event sequence
 * number its completion event would have taken (EventQueue::reserveSeq).
 * A host read never suspends, so its timeline is fixed once it reaches
 * the die; it reports there and runs no completion event of its own.
 * Whoever owes the host a completion schedules it at (tick, seq), which
 * dispatches exactly where the read's own event would have. Same
 * 48-byte budget as DoneCallback.
 */
using ReadDone = sim::InlineCallback<void(sim::Time, std::uint64_t), 48>;

/** One read round's cost for a (wordline coding mask, level) pair. */
struct ReadCost
{
    /** Memory-access latency of one sensing round. */
    sim::Time round{};
    /** Sensings of one round under the wordline's coding. */
    std::uint16_t senses = 0;
    /** Sensings the conventional coding needs for the level. */
    std::uint16_t conventional = 0;
};

/** Aggregate chip-array activity counters. */
struct ChipStats
{
    std::uint64_t reads = 0;
    std::uint64_t programs = 0;
    std::uint64_t erases = 0;
    std::uint64_t adjusts = 0;
    std::uint64_t retrySenseRounds = 0;
    /** Program/erase suspensions performed (programSuspension mode). */
    std::uint64_t suspensions = 0;
    /** Sensing operations performed (per-round count x rounds). */
    std::uint64_t sensingOps = 0;
    /** Sensings the conventional coding would have needed. */
    std::uint64_t sensingOpsConventional = 0;
    /**
     * Conventional minus actual sensings: the IDA reduction of
     * Fig. 5 (2->1, 4->2, 4->1) summed over every read. Always
     * maintained — unlike the span stamps, these three counters are
     * a handful of adds per read, not a hot-path concern.
     */
    std::uint64_t sensingOpsSaved = 0;
    /** Total die-busy time summed over dies. */
    sim::Time dieBusy{};
    /** Total channel-busy time summed over channels. */
    sim::Time channelBusy{};
    /** Total sensing time (the memory-access stage only). */
    sim::Time senseTime{};
};

/**
 * The array of flash chips behind the SSD controller.
 */
class ChipArray
{
  public:
    ChipArray(const Geometry &geom, const FlashTiming &timing,
              const CodingScheme &coding, sim::EventQueue &events);

    const Geometry &geometry() const { return geom_; }
    sim::Time now() const { return events_.now(); }
    const FlashTiming &timing() const { return timing_; }
    const CodingScheme &coding() const { return coding_; }

    /** Read-only view of block @p b. */
    Block block(BlockId b) const { return table_.block(b); }

    /**
     * The device's block state. Commands mutate it as they are issued;
     * the FTL invalidates pages through it directly.
     */
    BlockTable &blockTable() { return table_; }
    const BlockTable &blockTable() const { return table_; }

    /** Block, die, in-block page, wordline and level of @p ppn. */
    PageLocation locate(Ppn ppn) const { return decode_(ppn); }

    /**
     * Issue an internal page read (GC, refresh, read-modify-write): it
     * queues behind host reads, and @p done runs at its completion
     * tick from its own completion event.
     *
     * The sensing count is taken from the page's wordline coding mode at
     * issue time. @p extra_rounds adds read-retry re-sensings (each
     * costs the page's full memory-access latency again; paper
     * Sec. V-F).
     *
     * @p lpn is attribution metadata only (the host LPN being served,
     * kInvalidLpn for internal reads); it never affects timing. Passed
     * explicitly rather than via an ambient "current span" register so
     * that FTL work issued synchronously from inside a host operation
     * (e.g. a GC triggered by allocateHostPage) cannot be misattributed
     * to the host IO that happened to trigger it.
     *
     * @p sectors is the number of sectors to move off the chip
     * (0 = the whole page). Sensing always reads the full wordline, but
     * the channel transfer scales with the sector count — the partial
     * reads the read cache's hole-merging and GC's valid-sector copies
     * issue occupy the shared channel proportionally.
     *
     * Returns the memory-access latency of one sensing round, as
     * charged to this read.
     */
    sim::Time readPage(Ppn ppn, int extra_rounds, DoneCallback done,
                       Lpn lpn = kInvalidLpn, std::uint32_t sectors = 0);

    /**
     * Issue a host read of the page at @p at (from locate()), served
     * before every other die operation (read-first scheduling). Timing
     * and arguments as readPage, but @p done runs when the read
     * reaches the die, with (completion tick, seq) — see ReadDone. The
     * command leaves inflight() at that point.
     */
    sim::Time readHostPage(const PageLocation &at, int extra_rounds,
                           ReadDone done, Lpn lpn = kInvalidLpn,
                           std::uint32_t sectors = 0);

    /**
     * The read cost table: one round's cost of reading @p level on a
     * wordline coded with valid-level mask @p mask (fullMask(bits) =
     * conventional). Built once at construction from
     * Block::readSensings' rule and FlashTiming::readLatency; defined
     * for levels @p mask holds.
     */
    const ReadCost &
    readCost(LevelMask mask, std::uint32_t level) const
    {
        return readCost_[costIndex(mask, level)];
    }

    /** One round of a conventional read of @p level. */
    sim::Time
    conventionalRound(std::uint32_t level) const
    {
        return readCost(fullMask(coding_.bits()), level).round;
    }

    /**
     * Program the next in-order page of @p ppn's block; @p ppn must be
     * exactly the block's write pointer (flash programs are sequential).
     * @p lpn / @p host_data are attribution metadata only (see
     * readPage): host_data marks a host write as opposed to a GC /
     * refresh / destage program. @p sectors is the valid-sector mask of
     * the new page (0 = whole page); the channel transfer scales with
     * its population, the cell tPROG stays full-page (conservative: a
     * partial program still programs the wordline).
     */
    void programPage(Ppn ppn, DoneCallback done, Lpn lpn = kInvalidLpn,
                     bool host_data = false, SectorMask sectors = 0);

    /**
     * Program a page instantly with no timing cost (state change only);
     * used to preload the initial footprint. @p ppn must be the block's
     * write pointer.
     */
    void programImmediate(Ppn ppn);

    /** Erase a block. */
    void eraseBlock(BlockId b, DoneCallback done);

    /**
     * Apply the IDA voltage adjustment to one wordline (block state
     * mutates immediately; timing charged as one tADJ die operation).
     */
    void adjustWordline(BlockId b, std::uint32_t wl, LevelMask mask,
                        DoneCallback done);

    const ChipStats &stats() const { return stats_; }

    /**
     * Commands issued and not yet complete, for drain checks: queued,
     * running or suspended, plus internal reads awaiting their
     * completion event. A host read counts until it reaches the die.
     */
    std::uint64_t inflight() const { return commands_.live(); }

    /**
     * Attach the span recorder (null detaches). Commands issued while a
     * recorder is attached stamp the span in their command slot;
     * commands issued without one leave it untraced. Spans still open
     * when the recorder is replaced or detached stay valid (the slot is
     * ours) and go to whichever recorder is attached when they
     * complete, or nowhere.
     */
    void setTracer(trace::Recorder *tracer) { tracer_ = tracer; }

  private:
    static constexpr std::uint32_t kNoSlot = sim::kNoSlot;

    /**
     * A flash command, parked in one slot of commands_ from issue to
     * completion: queued on its die (linked through `next`), running or
     * suspended there (Die::running, Die::suspended), or, for an
     * internal read past its die stage, awaiting the completion event,
     * which captures only {this, slot}. A host read leaves its slot
     * when it reaches the die. The span is stamped only when a
     * recorder was attached at issue (span.traced()).
     */
    struct Command
    {
        enum class Op : std::uint8_t { Read, Program, Erase, AdjustWl };
        Op op = Op::Read;
        bool hostRead = false;
        /** Next command in the die's queue. */
        std::uint32_t next = kNoSlot;
        /** Die occupancy of the pre-transfer stage (sense or cell time). */
        sim::Time busyTime{};
        /** Channel occupancy: pageTransfer scaled by the sector count. */
        sim::Time transferTime{};
        DoneCallback done;
        /** A host read's report (readHostPage); `done` stays empty. */
        ReadDone report;
        trace::Span span;
    };

    /** A FIFO of command slots linked through Command::next. */
    struct Queue
    {
        std::uint32_t head = kNoSlot;
        std::uint32_t tail = kNoSlot;

        bool empty() const { return head == kNoSlot; }
    };

    struct Die
    {
        std::uint32_t channel = 0;
        Queue readQ;
        Queue otherQ;
        bool busy = false;
        /** Generation of the pending die-end event (stale-event guard). */
        std::uint64_t endGen = 0;
        /**
         * Whether a die-end event is scheduled for the current
         * occupancy. A read that starts with both queues empty elides
         * its end event — it parks nothing on the die, so the event
         * would only clear `busy` and find no work. enqueue() arms the
         * event lazily if work arrives during the sense window; if none
         * does, the occupancy expires by timestamp alone and the read
         * costs one event (its completion) instead of two.
         */
        bool endArmed = false;
        /** End time of the op currently occupying the die. */
        sim::Time endTime{};
        /** Whether the running op may be suspended by a host read. */
        bool suspendable = false;
        /**
         * The running program/erase/adjust. It completes, and its span
         * closes, at the *actual* die-op end (onDieOpEnd), so
         * suspension stretches land in the span. Reads never park here:
         * their completion is fully determined when they start.
         */
        std::uint32_t running = kNoSlot;
        /** An op a host read suspended, waiting to resume. */
        std::uint32_t suspended = kNoSlot;
        /** The suspended op's remaining die time. */
        sim::Time suspendedRemaining{};
    };

    static std::size_t
    costIndex(LevelMask mask, std::uint32_t level)
    {
        return std::size_t{mask} << 3 | level; // levels < 8 (bits <= 6)
    }

    sim::Time transferTimeFor(std::uint32_t sectors) const;
    /** Charge and park a read of @p at; its callback is set by the caller. */
    std::uint32_t parkRead(const PageLocation &at, bool host_read,
                           int extra_rounds, Lpn lpn, std::uint32_t sectors,
                           sim::Time &round);
    /** Park a new command in a slot; its span opens when traced. */
    std::uint32_t park(Command::Op op, sim::Time busy, DoneCallback done,
                       trace::SpanKind kind, Ppn ppn, DieId die, Lpn lpn);
    void push(Queue &q, std::uint32_t slot);
    std::uint32_t pop(Queue &q);
    void enqueue(DieId die, std::uint32_t slot);
    void trySuspend(DieId die);
    void tryStart(DieId die);
    void occupyDie(DieId die, sim::Time end, bool suspendable);
    void onDieOpEnd(DieId die, std::uint64_t gen);
    void resumeSuspended(DieId die);
    void finishRead(std::uint32_t slot);
    void closeSpan(trace::Span &span, sim::Time complete);

    const Geometry geom_;
    const FlashTiming timing_;
    const CodingScheme coding_;
    const PpnDecoder decode_;
    sim::EventQueue &events_;
    /** ReadCost per costIndex(mask, level). */
    std::vector<ReadCost> readCost_;

    BlockTable table_;
    std::vector<Die> dies_;
    std::vector<sim::Time> channelFree_;
    /**
     * Every command in flight. Owned here rather than by the Recorder,
     * so replacing or detaching it mid-run never strands a queued
     * command's open span.
     */
    sim::Slab<Command> commands_;
    ChipStats stats_;
    trace::Recorder *tracer_ = nullptr;
};

} // namespace ida::flash
