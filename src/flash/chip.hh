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
 * command object only models *timing* and invokes its completion callback
 * at the simulated finish time. This keeps multi-step FTL flows (GC,
 * refresh) simple and deterministic: each phase issues its commands and
 * waits for all completions before mutating further.
 *
 * Per-command timing (paper Sec. II-C, Table II):
 *  - Read:    sense tR(page) x (1 + retryRounds) on the die, then one
 *             page transfer on the channel, then pipelined ECC decode.
 *  - Program: one page transfer in on the channel, then tPROG on the die.
 *  - Erase:   tERASE on the die.
 *  - AdjustWl: tADJ (voltage adjustment, Sec. III-B) on the die.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "flash/block.hh"
#include "flash/coding.hh"
#include "flash/geometry.hh"
#include "flash/timing.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"
#include "trace/span.hh"

namespace ida::trace {
class Recorder;
}

namespace ida::flash {

/**
 * Completion callback: receives the command's finish time.
 *
 * 48 bytes of inline storage, allocation-free and move-only (see
 * sim/inline_callback.hh). Budgeted for the deepest capture set layered
 * on top: the FTL wraps a DoneCallback together with a `this` pointer
 * into one 64-byte EventQueue::Callback (ftl/ftl.cc write-buffer and
 * migration-prune paths), so 48 + 8 (vtable) + 8 (this) must stay
 * within EventQueue::Callback::capacity.
 */
using DoneCallback = sim::InlineCallback<void(sim::Time), 48>;

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

    /**
     * The device arena backing the block table. The FTL carves its own
     * per-device tables (L2P/P2L, block metadata) from the same arena
     * so the whole read path walks one allocation pool.
     */
    sim::Arena &arena() { return *arena_; }

    /**
     * Issue a page read.
     *
     * The sensing count is taken from the page's wordline coding mode at
     * issue time. @p host_read selects the priority class;
     * @p extra_rounds adds read-retry re-sensings (each costs the page's
     * full memory-access latency again; paper Sec. V-F).
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
     */
    void readPage(Ppn ppn, bool host_read, int extra_rounds,
                  DoneCallback done, Lpn lpn = kInvalidLpn,
                  std::uint32_t sectors = 0);

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

    /** The memory-access latency a read of @p ppn would take right now. */
    sim::Time currentReadLatency(Ppn ppn) const;

    const ChipStats &stats() const { return stats_; }

    /** Pending + running commands across all dies (for drain checks). */
    std::uint64_t inflight() const { return inflight_; }

    /**
     * Attach the span recorder (null detaches). Commands issued while a
     * recorder is attached open a span in this array's slab; commands
     * issued without one carry handle 0 and take the untraced path.
     * Spans still open when the recorder is replaced or detached stay
     * valid (the slab is ours) and go to whichever recorder is attached
     * when they complete, or nowhere.
     */
    void setTracer(trace::Recorder *tracer) { tracer_ = tracer; }

  private:
    /** Span handle of an untraced command (slot 0 is never handed out). */
    static constexpr std::uint32_t kNoSpan = 0;

    /** Small fields first, so the span handle fills padding (88 bytes). */
    struct Command
    {
        enum class Op : std::uint8_t { Read, Program, Erase, AdjustWl };
        Op op;
        bool hostRead = false;
        /** True when the op uses the channel (read out / program in). */
        bool usesChannel = false;
        /** Open-span handle into spans_ (kNoSpan when untraced). */
        std::uint32_t span = kNoSpan;
        /** Precomputed die occupancy of the pre-transfer stage. */
        sim::Time senseOrBusyTime{};
        /** Channel occupancy: pageTransfer scaled by the sector count. */
        sim::Time transferTime{};
        /** Extra latency after resources are released (ECC pipeline). */
        sim::Time postLatency{};
        DoneCallback done;
    };

    struct Die
    {
        std::deque<Command> readQ;
        std::deque<Command> otherQ;
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
         * Span handle of the running program/erase/adjust; closed at
         * the *actual* die-op end (onDieOpEnd), so suspension
         * stretches land in the span instead of a precomputed
         * completion time. Reads never park here — their completion is
         * fully determined at start (tryStart closes them immediately).
         */
        std::uint32_t runningSpan = kNoSpan;
        /** Completion callback of the running non-read op. */
        DoneCallback runningDone;
        /** A suspended op waiting to resume (remaining die time). */
        bool hasSuspended = false;
        /** Span handle of the suspended op (see runningSpan). */
        std::uint32_t suspendedSpan = kNoSpan;
        sim::Time suspendedRemaining{};
        DoneCallback suspendedDone;
    };

    /**
     * A read past its die stage, waiting for its transfer + ECC
     * completion event. Slab-pooled (free list through `nextFree`) so
     * the completion event only captures {this, slot} — 16 bytes —
     * instead of hauling the 56-byte DoneCallback through the event
     * queue, and so the per-read bookkeeping allocates nothing in the
     * steady state.
     */
    struct PendingRead
    {
        DoneCallback done;
        sim::Time completion{};
        std::uint32_t nextFree = kNilSlot;
    };

    static constexpr std::uint32_t kNilSlot = ~std::uint32_t{0};

    sim::Time transferTimeFor(std::uint32_t sectors) const;
    void enqueue(DieId die, Command cmd);
    void trySuspend(DieId die);
    void tryStart(DieId die);
    void occupyDie(DieId die, sim::Time end, bool suspendable,
                   DoneCallback done);
    void onDieOpEnd(DieId die, std::uint64_t gen);
    void resumeSuspended(DieId die);
    std::uint32_t acquireReadSlot(DoneCallback done, sim::Time completion);
    void finishRead(std::uint32_t slot);
    std::uint32_t openSpan(trace::SpanKind kind, Ppn ppn, DieId die,
                           Lpn lpn);
    void closeSpan(std::uint32_t handle, sim::Time complete);

    const Geometry geom_;
    const FlashTiming timing_;
    const CodingScheme coding_;
    sim::EventQueue &events_;

    /** Declared before table_: its arrays must not outlive the arena. */
    std::unique_ptr<sim::Arena> arena_;
    BlockTable table_;
    std::vector<Die> dies_;
    std::vector<sim::Time> channelFree_;
    std::vector<PendingRead> pendingReads_;
    std::uint32_t freeReadSlot_ = kNilSlot;
    /**
     * Open spans of traced commands in flight, indexed by handle (slot
     * 0 unused), with recycled handles on freeSpans_. Owned here rather
     * than by the Recorder so replacing or detaching it mid-run never
     * strands a queued command's handle.
     */
    std::vector<trace::Span> spans_;
    std::vector<std::uint32_t> freeSpans_;
    ChipStats stats_;
    std::uint64_t inflight_ = 0;
    trace::Recorder *tracer_ = nullptr;
};

} // namespace ida::flash
