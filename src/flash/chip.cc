#include "flash/chip.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/log.hh"
#include "trace/recorder.hh"

namespace ida::flash {

ChipArray::ChipArray(const Geometry &geom, const FlashTiming &timing,
                     const CodingScheme &coding, sim::EventQueue &events)
    : geom_((geom.validate(), geom)), // before the table sizes itself
      timing_(timing), coding_(coding),
      events_(events), arena_(std::make_unique<sim::Arena>()),
      table_(geom_, *arena_)
{
    if (static_cast<std::uint32_t>(coding_.bits()) != geom_.bitsPerCell)
        sim::fatal("ChipArray: coding scheme bit density does not match "
                   "geometry bitsPerCell");
    dies_.resize(geom_.dies());
    channelFree_.assign(geom_.channels, sim::Time{});
    spans_.resize(1); // slot 0 is kNoSpan
}

sim::Time
ChipArray::transferTimeFor(std::uint32_t sectors) const
{
    const std::uint32_t spp = geom_.sectorsPerPage();
    if (sectors == 0 || sectors >= spp)
        return timing_.pageTransfer;
    return timing_.pageTransfer * sectors / spp;
}

sim::Time
ChipArray::currentReadLatency(Ppn ppn) const
{
    const auto page = static_cast<std::uint32_t>(ppn % geom_.pagesPerBlock);
    const int sensings =
        table_.block(geom_.blockOf(ppn)).readSensings(page, coding_);
    return timing_.readLatency(coding_, sensings);
}

void
ChipArray::readPage(Ppn ppn, bool host_read, int extra_rounds,
                    DoneCallback done, Lpn lpn, std::uint32_t sectors)
{
    const BlockId bid = geom_.blockOf(ppn);
    const auto page = static_cast<std::uint32_t>(ppn % geom_.pagesPerBlock);
    const int senses = table_.block(bid).readSensings(page, coding_);
    const int conv = coding_.sensingCount(
        static_cast<int>(geom_.levelOfPage(page)));
    const auto rounds = static_cast<std::uint64_t>(1 + extra_rounds);
    const sim::Time sense =
        timing_.readLatency(coding_, senses) * (1 + extra_rounds);
    stats_.retrySenseRounds += static_cast<std::uint64_t>(extra_rounds);
    stats_.sensingOps += static_cast<std::uint64_t>(senses) * rounds;
    stats_.sensingOpsConventional +=
        static_cast<std::uint64_t>(conv) * rounds;
    stats_.sensingOpsSaved +=
        static_cast<std::uint64_t>(conv - senses) * rounds;
    const DieId die = geom_.dieOfBlock(bid);
    Command cmd;
    cmd.op = Command::Op::Read;
    cmd.hostRead = host_read;
    cmd.senseOrBusyTime = sense;
    cmd.usesChannel = true;
    cmd.transferTime = transferTimeFor(sectors);
    cmd.postLatency = timing_.eccDecode;
    cmd.done = std::move(done);
    if (tracer_) {
        cmd.span = openSpan(host_read ? trace::SpanKind::HostRead
                                      : trace::SpanKind::InternalRead,
                            ppn, die, lpn);
        trace::Span &sp = spans_[cmd.span];
        sp.senses = static_cast<std::uint16_t>(senses);
        sp.sensesConventional = static_cast<std::uint16_t>(conv);
        sp.retryRounds = static_cast<std::uint8_t>(extra_rounds);
    }
    enqueue(die, std::move(cmd));
    ++stats_.reads;
    stats_.senseTime += sense;
}

void
ChipArray::programImmediate(Ppn ppn)
{
    const BlockId bid = geom_.blockOf(ppn);
    const auto page = static_cast<std::uint32_t>(ppn % geom_.pagesPerBlock);
    if (page != table_.block(bid).writePointer())
        sim::panic("ChipArray::programImmediate: out-of-order program");
    table_.programNext(bid, events_.now());
}

void
ChipArray::programPage(Ppn ppn, DoneCallback done, Lpn lpn, bool host_data,
                       SectorMask sectors)
{
    const BlockId bid = geom_.blockOf(ppn);
    const auto page = static_cast<std::uint32_t>(ppn % geom_.pagesPerBlock);
    if (page != table_.block(bid).writePointer())
        sim::panic("ChipArray::programPage: out-of-order program");
    table_.programNext(bid, events_.now(), sectors);

    Command cmd;
    cmd.op = Command::Op::Program;
    cmd.senseOrBusyTime = timing_.pageProgram;
    cmd.usesChannel = true;
    cmd.transferTime = transferTimeFor(
        sectors == 0 ? 0 : static_cast<std::uint32_t>(
                               std::popcount(sectors)));
    cmd.done = std::move(done);
    const DieId die = geom_.dieOfBlock(bid);
    if (tracer_)
        cmd.span = openSpan(host_data ? trace::SpanKind::HostWrite
                                      : trace::SpanKind::InternalProgram,
                            ppn, die, lpn);
    enqueue(die, std::move(cmd));
    ++stats_.programs;
}

void
ChipArray::eraseBlock(BlockId b, DoneCallback done)
{
    table_.erase(b);
    Command cmd;
    cmd.op = Command::Op::Erase;
    cmd.senseOrBusyTime = timing_.blockErase;
    cmd.done = std::move(done);
    const DieId die = geom_.dieOfBlock(b);
    if (tracer_)
        cmd.span = openSpan(trace::SpanKind::Erase, geom_.firstPpnOf(b),
                            die, kInvalidLpn);
    enqueue(die, std::move(cmd));
    ++stats_.erases;
}

void
ChipArray::adjustWordline(BlockId b, std::uint32_t wl, LevelMask mask,
                          DoneCallback done)
{
    table_.applyIda(b, wl, mask);
    Command cmd;
    cmd.op = Command::Op::AdjustWl;
    cmd.senseOrBusyTime = timing_.voltageAdjust;
    cmd.done = std::move(done);
    const DieId die = geom_.dieOfBlock(b);
    if (tracer_)
        cmd.span = openSpan(trace::SpanKind::AdjustWl,
                            geom_.firstPpnOf(b) + geom_.pageOfWordline(wl, 0),
                            die, kInvalidLpn);
    enqueue(die, std::move(cmd));
    ++stats_.adjusts;
}

std::uint32_t
ChipArray::openSpan(trace::SpanKind kind, Ppn ppn, DieId die, Lpn lpn)
{
    std::uint32_t h;
    if (!freeSpans_.empty()) {
        h = freeSpans_.back();
        freeSpans_.pop_back();
    } else {
        h = static_cast<std::uint32_t>(spans_.size());
        spans_.emplace_back();
    }
    trace::Span &sp = spans_[h];
    sp = trace::Span{};
    sp.id = tracer_->nextId();
    sp.kind = kind;
    sp.lpn = lpn;
    sp.ppn = ppn;
    sp.die = die;
    sp.channel = geom_.channelOfDie(die);
    sp.start = events_.now();
    return h;
}

void
ChipArray::closeSpan(std::uint32_t handle, sim::Time complete)
{
    spans_[handle].complete = complete;
    if (tracer_)
        tracer_->record(spans_[handle]);
    freeSpans_.push_back(handle);
}

std::uint32_t
ChipArray::acquireReadSlot(DoneCallback done, sim::Time completion)
{
    std::uint32_t slot;
    if (freeReadSlot_ != kNilSlot) {
        slot = freeReadSlot_;
        freeReadSlot_ = pendingReads_[slot].nextFree;
    } else {
        slot = static_cast<std::uint32_t>(pendingReads_.size());
        pendingReads_.emplace_back();
    }
    PendingRead &pr = pendingReads_[slot];
    pr.done = std::move(done);
    pr.completion = completion;
    return slot;
}

void
ChipArray::finishRead(std::uint32_t slot)
{
    // Move everything out and recycle the slot before running the
    // callback: it may issue another read and reuse this very slot.
    PendingRead &pr = pendingReads_[slot];
    DoneCallback done = std::move(pr.done);
    const sim::Time completion = pr.completion;
    pr.done = nullptr;
    pr.nextFree = freeReadSlot_;
    freeReadSlot_ = slot;
    --inflight_;
    if (done)
        done(completion);
}

void
ChipArray::enqueue(DieId die, Command cmd)
{
    ++inflight_;
    Die &d = dies_[die];
    const bool is_host_read = cmd.op == Command::Op::Read && cmd.hostRead;
    if (is_host_read)
        d.readQ.push_back(std::move(cmd));
    else
        d.otherQ.push_back(std::move(cmd));
    if (!d.busy) {
        tryStart(die);
    } else if (!d.endArmed) {
        // The die is held by a read whose end event was elided. If the
        // sense window already passed, the die has really been idle
        // since endTime — start the new command now; otherwise arm the
        // deferred end event so the command starts at sense completion.
        if (events_.now() >= d.endTime) {
            d.busy = false;
            tryStart(die);
        } else {
            const std::uint64_t gen = d.endGen;
            events_.schedule(d.endTime,
                             [this, die, gen] { onDieOpEnd(die, gen); });
            d.endArmed = true;
        }
    } else if (is_host_read) {
        trySuspend(die);
    }
}

void
ChipArray::trySuspend(DieId die)
{
    if (!timing_.programSuspension)
        return;
    Die &d = dies_[die];
    if (!d.busy || !d.suspendable || d.hasSuspended || d.readQ.empty())
        return;
    // Interrupt the running program/erase/adjust: remember its residual
    // die time, invalidate its pending end event, and let the host read
    // take the die.
    ++stats_.suspensions;
    d.hasSuspended = true;
    d.suspendedRemaining = d.endTime - events_.now();
    stats_.dieBusy -= d.suspendedRemaining; // re-added on resume
    d.suspendedDone = std::move(d.runningDone);
    d.runningDone = nullptr;
    d.suspendedSpan = std::exchange(d.runningSpan, kNoSpan);
    ++d.endGen;
    d.busy = false;
    d.suspendable = false;
    tryStart(die);
}

void
ChipArray::occupyDie(DieId die, sim::Time end, bool suspendable,
                     DoneCallback done)
{
    Die &d = dies_[die];
    d.busy = true;
    d.suspendable = suspendable;
    d.endArmed = true;
    d.endTime = end;
    d.runningDone = std::move(done);
    const std::uint64_t gen = ++d.endGen;
    events_.schedule(end, [this, die, gen] { onDieOpEnd(die, gen); });
}

// ida-lint: hot-path-root
void
ChipArray::onDieOpEnd(DieId die, std::uint64_t gen)
{
    Die &d = dies_[die];
    if (gen != d.endGen)
        return; // the op was suspended; a new end event will come
    d.busy = false;
    d.suspendable = false;
    // Close before invoking the completion callback: it may issue new
    // work on this very die and start the next traced command.
    if (d.runningSpan != kNoSpan)
        closeSpan(std::exchange(d.runningSpan, kNoSpan), events_.now());
    if (d.runningDone) {
        DoneCallback done = std::move(d.runningDone);
        d.runningDone = nullptr;
        --inflight_;
        done(events_.now());
    }
    tryStart(die);
}

void
ChipArray::resumeSuspended(DieId die)
{
    Die &d = dies_[die];
    d.hasSuspended = false;
    const sim::Time end = events_.now() + timing_.suspendResumeOverhead +
                          d.suspendedRemaining;
    stats_.dieBusy += end - events_.now();
    d.runningSpan = std::exchange(d.suspendedSpan, kNoSpan);
    occupyDie(die, end, true, std::move(d.suspendedDone));
    d.suspendedDone = nullptr;
}

void
ChipArray::tryStart(DieId die)
{
    Die &d = dies_[die];
    if (d.busy)
        return;
    std::deque<Command> *q = nullptr;
    if (!d.readQ.empty()) {
        q = &d.readQ; // read-first scheduling
    } else if (d.hasSuspended) {
        resumeSuspended(die); // interrupted op resumes before new work
        return;
    } else if (!d.otherQ.empty()) {
        q = &d.otherQ;
    } else {
        return;
    }

    Command cmd = std::move(q->front());
    q->pop_front();

    const sim::Time now = events_.now();
    const std::uint32_t chan = geom_.channelOfDie(die);

    switch (cmd.op) {
      case Command::Op::Read: {
        // Sense on the die, then move the data out over the channel.
        // The die is released at sense completion: chips pipeline the
        // array read with the I/O transfer through the cache register
        // (read-page-cache mode), so back-to-back reads on one die are
        // sensing-bound, which is exactly the stage the paper attacks.
        const sim::Time sense_done = now + cmd.senseOrBusyTime;
        const sim::Time ch_start = timing_.channelContention
            ? std::max(sense_done, channelFree_[chan])
            : sense_done;
        const sim::Time ch_end = ch_start + cmd.transferTime;
        if (timing_.channelContention)
            channelFree_[chan] = ch_end;
        stats_.channelBusy += cmd.transferTime;
        stats_.dieBusy += sense_done - now;

        // The read itself completes after transfer + ECC, independent
        // of the die becoming free at sense completion. The callback is
        // parked in the pending-read slab; the event carries only the
        // slot index.
        const sim::Time completion = ch_end + cmd.postLatency;
        // A read's timeline is fully determined here (reads are never
        // suspended), so the span closes at die-start time.
        if (cmd.span != kNoSpan) {
            trace::Span &sp = spans_[cmd.span];
            sp.dieStart = now;
            sp.senseEnd = sense_done;
            sp.channelStart = ch_start;
            sp.channelEnd = ch_end;
            closeSpan(cmd.span, completion);
        }
        const std::uint32_t slot =
            acquireReadSlot(std::move(cmd.done), completion);
        events_.schedule(completion, [this, slot] { finishRead(slot); });
        if (d.readQ.empty() && d.otherQ.empty() && !d.hasSuspended) {
            // Nothing can start at sense completion and a read parks no
            // completion on the die: elide the die-end event (see
            // Die::endArmed). Back-to-back reads on an uncontended die
            // drain with one event each instead of two.
            d.busy = true;
            d.suspendable = false;
            d.endArmed = false;
            d.endTime = sense_done;
            ++d.endGen;
        } else {
            occupyDie(die, sense_done, false, nullptr);
        }
        break;
      }
      case Command::Op::Program: {
        // Transfer the page into the data register, then program.
        const sim::Time ch_start = timing_.channelContention
            ? std::max(now, channelFree_[chan])
            : now;
        const sim::Time ch_end = ch_start + cmd.transferTime;
        if (timing_.channelContention)
            channelFree_[chan] = ch_end;
        stats_.channelBusy += cmd.transferTime;
        const sim::Time end = ch_end + cmd.senseOrBusyTime;
        stats_.dieBusy += end - now;
        if (cmd.span != kNoSpan) {
            trace::Span &sp = spans_[cmd.span];
            sp.dieStart = now;
            sp.senseEnd = now;
            sp.channelStart = ch_start;
            sp.channelEnd = ch_end;
        }
        d.runningSpan = cmd.span; // closed in onDieOpEnd
        occupyDie(die, end, true, std::move(cmd.done));
        break;
      }
      case Command::Op::Erase:
      case Command::Op::AdjustWl: {
        const sim::Time end = now + cmd.senseOrBusyTime;
        stats_.dieBusy += end - now;
        if (cmd.span != kNoSpan) {
            trace::Span &sp = spans_[cmd.span];
            sp.dieStart = now;
            sp.senseEnd = now;
            sp.channelStart = now;
            sp.channelEnd = now;
        }
        d.runningSpan = cmd.span; // closed in onDieOpEnd
        occupyDie(die, end, true, std::move(cmd.done));
        break;
      }
    }
}

} // namespace ida::flash
