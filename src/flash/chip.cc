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
      timing_(timing), coding_(coding), decode_(geom_),
      events_(events), table_(geom_)
{
    if (static_cast<std::uint32_t>(coding_.bits()) != geom_.bitsPerCell)
        sim::fatal("ChipArray: coding scheme bit density does not match "
                   "geometry bitsPerCell");
    dies_.resize(geom_.dies());
    for (DieId d = 0; d < dies_.size(); ++d)
        dies_[d].channel = geom_.channelOfDie(d);
    channelFree_.assign(geom_.channels, sim::Time{});

    // One entry per (coding mask, valid level), by Block::readSensings'
    // rule: the conventional count on a full mask, else the IDA merge's.
    const int bits = coding_.bits();
    const LevelMask full = fullMask(bits);
    readCost_.resize((std::size_t{full} + 1) << 3); // 8 levels per mask
    for (unsigned m = 1; m <= full; ++m) {
        const auto mask = static_cast<LevelMask>(m);
        for (int level = 0; level < bits; ++level) {
            if (((mask >> level) & 1u) == 0)
                continue;
            const int senses = mask == full
                ? coding_.sensingCount(level)
                : coding_.idaMerge(mask).sensingCounts[level];
            ReadCost &c = readCost_[costIndex(mask, level)];
            c.round = timing_.readLatency(coding_, senses);
            c.senses = static_cast<std::uint16_t>(senses);
            c.conventional =
                static_cast<std::uint16_t>(coding_.sensingCount(level));
        }
    }
}

sim::Time
ChipArray::transferTimeFor(std::uint32_t sectors) const
{
    const std::uint32_t spp = geom_.sectorsPerPage();
    if (sectors == 0 || sectors >= spp)
        return timing_.pageTransfer;
    return timing_.pageTransfer * sectors / spp;
}

std::uint32_t
ChipArray::parkRead(const PageLocation &at, bool host_read, int extra_rounds,
                    Lpn lpn, std::uint32_t sectors, sim::Time &round)
{
    if (table_.sectorMask(at.ppn) == 0)
        sim::panic("ChipArray: reading a non-valid page");
    const ReadCost &c =
        readCost(table_.block(at.block).wordlineMask(at.wordline), at.level);
    const auto rounds = static_cast<std::uint64_t>(1 + extra_rounds);
    const sim::Time sense = c.round * (1 + extra_rounds);
    stats_.retrySenseRounds += static_cast<std::uint64_t>(extra_rounds);
    stats_.sensingOps += std::uint64_t{c.senses} * rounds;
    stats_.sensingOpsConventional += std::uint64_t{c.conventional} * rounds;
    stats_.sensingOpsSaved +=
        static_cast<std::uint64_t>(c.conventional - c.senses) * rounds;
    ++stats_.reads;
    stats_.senseTime += sense;
    const std::uint32_t slot =
        park(Command::Op::Read, sense, nullptr,
             host_read ? trace::SpanKind::HostRead
                       : trace::SpanKind::InternalRead,
             at.ppn, at.die, lpn);
    Command &cmd = commands_[slot];
    cmd.hostRead = host_read;
    cmd.transferTime = transferTimeFor(sectors);
    if (cmd.span.traced()) {
        cmd.span.senses = c.senses;
        cmd.span.sensesConventional = c.conventional;
        cmd.span.retryRounds = static_cast<std::uint8_t>(extra_rounds);
    }
    round = c.round;
    return slot;
}

sim::Time
ChipArray::readPage(Ppn ppn, int extra_rounds, DoneCallback done, Lpn lpn,
                    std::uint32_t sectors)
{
    const PageLocation at = decode_(ppn);
    sim::Time round;
    const std::uint32_t slot =
        parkRead(at, false, extra_rounds, lpn, sectors, round);
    commands_[slot].done = std::move(done);
    enqueue(at.die, slot);
    return round;
}

sim::Time
ChipArray::readHostPage(const PageLocation &at, int extra_rounds,
                        ReadDone done, Lpn lpn, std::uint32_t sectors)
{
    sim::Time round;
    const std::uint32_t slot =
        parkRead(at, true, extra_rounds, lpn, sectors, round);
    commands_[slot].report = std::move(done);
    enqueue(at.die, slot);
    return round;
}

void
ChipArray::programImmediate(Ppn ppn)
{
    const PageLocation at = decode_(ppn);
    if (at.page != table_.block(at.block).writePointer())
        sim::panic("ChipArray::programImmediate: out-of-order program");
    table_.programNext(at.block, events_.now());
}

void
ChipArray::programPage(Ppn ppn, DoneCallback done, Lpn lpn, bool host_data,
                       SectorMask sectors)
{
    const PageLocation at = decode_(ppn);
    if (at.page != table_.block(at.block).writePointer())
        sim::panic("ChipArray::programPage: out-of-order program");
    table_.programNext(at.block, events_.now(), sectors);

    const std::uint32_t slot =
        park(Command::Op::Program, timing_.pageProgram, std::move(done),
             host_data ? trace::SpanKind::HostWrite
                       : trace::SpanKind::InternalProgram,
             ppn, at.die, lpn);
    commands_[slot].transferTime = transferTimeFor(
        sectors == 0 ? 0 : static_cast<std::uint32_t>(
                               std::popcount(sectors)));
    enqueue(at.die, slot);
    ++stats_.programs;
}

void
ChipArray::eraseBlock(BlockId b, DoneCallback done)
{
    table_.erase(b);
    const DieId die = geom_.dieOfBlock(b);
    enqueue(die, park(Command::Op::Erase, timing_.blockErase,
                      std::move(done), trace::SpanKind::Erase,
                      geom_.firstPpnOf(b), die, kInvalidLpn));
    ++stats_.erases;
}

void
ChipArray::adjustWordline(BlockId b, std::uint32_t wl, LevelMask mask,
                          DoneCallback done)
{
    table_.applyIda(b, wl, mask);
    const DieId die = geom_.dieOfBlock(b);
    enqueue(die, park(Command::Op::AdjustWl, timing_.voltageAdjust,
                      std::move(done), trace::SpanKind::AdjustWl,
                      geom_.firstPpnOf(b) + geom_.pageOfWordline(wl, 0),
                      die, kInvalidLpn));
    ++stats_.adjusts;
}

std::uint32_t
ChipArray::park(Command::Op op, sim::Time busy, DoneCallback done,
                trace::SpanKind kind, Ppn ppn, DieId die, Lpn lpn)
{
    const std::uint32_t slot = commands_.acquire();
    Command &cmd = commands_[slot];
    cmd.op = op;
    cmd.hostRead = false;
    cmd.busyTime = busy;
    cmd.transferTime = sim::Time{};
    cmd.done = std::move(done);
    trace::Span &sp = cmd.span;
    if (!tracer_) {
        sp.kind = trace::SpanKind::None;
        return slot;
    }
    sp = trace::Span{};
    sp.id = tracer_->nextId();
    sp.kind = kind;
    sp.lpn = lpn;
    sp.ppn = ppn;
    sp.die = die;
    sp.channel = dies_[die].channel;
    sp.start = events_.now();
    return slot;
}

void
ChipArray::closeSpan(trace::Span &span, sim::Time complete)
{
    span.complete = complete;
    if (tracer_)
        tracer_->record(span);
}

void
ChipArray::push(Queue &q, std::uint32_t slot)
{
    commands_[slot].next = kNoSlot;
    (q.empty() ? q.head : commands_[q.tail].next) = slot;
    q.tail = slot;
}

std::uint32_t
ChipArray::pop(Queue &q)
{
    const std::uint32_t slot = q.head;
    q.head = commands_[slot].next;
    return slot;
}

void
ChipArray::finishRead(std::uint32_t slot)
{
    // An internal read's completion. Move the callback out and free the
    // slot before running it: it may issue another read and reuse this
    // very slot.
    DoneCallback done = std::move(commands_[slot].done);
    commands_.release(slot);
    if (done)
        done(events_.now());
}

void
ChipArray::enqueue(DieId die, std::uint32_t slot)
{
    Die &d = dies_[die];
    const bool is_host_read = commands_[slot].hostRead;
    push(is_host_read ? d.readQ : d.otherQ, slot);
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
    if (!d.busy || !d.suspendable || d.suspended != kNoSlot ||
        d.readQ.empty())
        return;
    // Interrupt the running program/erase/adjust: remember its residual
    // die time, invalidate its pending end event, and let the host read
    // take the die.
    ++stats_.suspensions;
    d.suspended = std::exchange(d.running, kNoSlot);
    d.suspendedRemaining = d.endTime - events_.now();
    stats_.dieBusy -= d.suspendedRemaining; // re-added on resume
    ++d.endGen;
    d.busy = false;
    d.suspendable = false;
    tryStart(die);
}

void
ChipArray::occupyDie(DieId die, sim::Time end, bool suspendable)
{
    Die &d = dies_[die];
    d.busy = true;
    d.suspendable = suspendable;
    d.endArmed = true;
    d.endTime = end;
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
    if (d.running != kNoSlot) {
        const std::uint32_t slot = std::exchange(d.running, kNoSlot);
        Command &cmd = commands_[slot];
        // Close before invoking the completion callback: it may issue
        // new work on this very die and start the next traced command.
        if (cmd.span.traced())
            closeSpan(cmd.span, events_.now());
        DoneCallback done = std::move(cmd.done);
        commands_.release(slot);
        if (done)
            done(events_.now());
    }
    tryStart(die);
}

void
ChipArray::resumeSuspended(DieId die)
{
    Die &d = dies_[die];
    const sim::Time end = events_.now() + timing_.suspendResumeOverhead +
                          d.suspendedRemaining;
    stats_.dieBusy += end - events_.now();
    d.running = std::exchange(d.suspended, kNoSlot);
    occupyDie(die, end, true);
}

void
ChipArray::tryStart(DieId die)
{
    Die &d = dies_[die];
    if (d.busy)
        return;
    Queue *q = nullptr;
    if (!d.readQ.empty()) {
        q = &d.readQ; // read-first scheduling
    } else if (d.suspended != kNoSlot) {
        resumeSuspended(die); // interrupted op resumes before new work
        return;
    } else if (!d.otherQ.empty()) {
        q = &d.otherQ;
    } else {
        return;
    }

    const std::uint32_t slot = pop(*q);
    Command &cmd = commands_[slot];
    trace::Span &sp = cmd.span;
    const sim::Time now = events_.now();
    const std::uint32_t chan = d.channel;

    switch (cmd.op) {
      case Command::Op::Read: {
        // Sense on the die, then move the data out over the channel.
        // The die is released at sense completion: chips pipeline the
        // array read with the I/O transfer through the cache register
        // (read-page-cache mode), so back-to-back reads on one die are
        // sensing-bound, which is exactly the stage the paper attacks.
        const sim::Time sense_done = now + cmd.busyTime;
        const sim::Time ch_start = timing_.channelContention
            ? std::max(sense_done, channelFree_[chan])
            : sense_done;
        const sim::Time ch_end = ch_start + cmd.transferTime;
        if (timing_.channelContention)
            channelFree_[chan] = ch_end;
        stats_.channelBusy += cmd.transferTime;
        stats_.dieBusy += sense_done - now;

        // The read itself completes after transfer + ECC, independent
        // of the die becoming free at sense completion. A read's
        // timeline is fully determined here (reads are never
        // suspended), so the span closes at die-start time.
        const sim::Time completion = ch_end + timing_.eccDecode;
        if (sp.traced()) {
            sp.dieStart = now;
            sp.senseEnd = sense_done;
            sp.channelStart = ch_start;
            sp.channelEnd = ch_end;
            closeSpan(sp, completion);
        }
        // An internal read stays in its slot until its completion
        // event, which carries only the slot index. A host read takes
        // the seq that event would take and reports below.
        const bool host = cmd.hostRead;
        std::uint64_t seq = 0;
        if (host)
            seq = events_.reserveSeq();
        else
            events_.schedule(completion, [this, slot] { finishRead(slot); });
        if (d.readQ.empty() && d.otherQ.empty() &&
            d.suspended == kNoSlot) {
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
            occupyDie(die, sense_done, false);
        }
        if (host) {
            // Report last, with the die's state settled: the report may
            // issue new work on this very die. Free the slot first, as
            // finishRead does.
            ReadDone report = std::move(commands_[slot].report);
            commands_.release(slot);
            if (report)
                report(completion, seq);
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
        const sim::Time end = ch_end + cmd.busyTime;
        stats_.dieBusy += end - now;
        if (sp.traced()) {
            sp.dieStart = now;
            sp.senseEnd = now;
            sp.channelStart = ch_start;
            sp.channelEnd = ch_end;
        }
        d.running = slot; // completes in onDieOpEnd
        occupyDie(die, end, true);
        break;
      }
      case Command::Op::Erase:
      case Command::Op::AdjustWl: {
        const sim::Time end = now + cmd.busyTime;
        stats_.dieBusy += end - now;
        if (sp.traced()) {
            sp.dieStart = now;
            sp.senseEnd = now;
            sp.channelStart = now;
            sp.channelEnd = now;
        }
        d.running = slot; // completes in onDieOpEnd
        occupyDie(die, end, true);
        break;
      }
    }
}

} // namespace ida::flash
