#include "ftl/gc.hh"

#include <bit>

#include "ftl/ftl.hh"
#include "sim/log.hh"

namespace ida::ftl {

GcJob::GcJob(Ftl &ftl, flash::BlockId victim) : ftl_(ftl), victim_(victim)
{
}

void
GcJob::start()
{
    if (phase_ != Phase::Idle)
        sim::panic("GcJob::start: already started");
    ftl_.blocks().meta(victim_).busyWithJob(true);
    phase_ = Phase::Read;
    const auto &geom = ftl_.chips().geometry();
    const auto &blk = ftl_.chips().block(victim_);
    const flash::Ppn base = geom.firstPpnOf(victim_);
    for (std::uint32_t p = 0; p < geom.pagesPerBlock; ++p) {
        if (!blk.isValid(p))
            continue;
        ++pending_;
        // Only the still-valid sectors need the channel: partially
        // invalid pages transfer proportionally less.
        ftl_.chips().readPage(
            base + p, 0, [this](sim::Time) { opDone(); },
            flash::kInvalidLpn,
            static_cast<std::uint32_t>(std::popcount(blk.sectorMask(p))));
    }
    if (pending_ == 0)
        advance();
}

void
GcJob::opDone()
{
    if (pending_ == 0)
        sim::panic("GcJob::opDone: no pending operations");
    if (--pending_ == 0)
        advance();
}

void
GcJob::advance()
{
    const auto &geom = ftl_.chips().geometry();
    const flash::Ppn base = geom.firstPpnOf(victim_);

    switch (phase_) {
      case Phase::Read: {
        phase_ = Phase::Migrate;
        const auto &blk = ftl_.chips().block(victim_);
        for (std::uint32_t p = 0; p < geom.pagesPerBlock; ++p) {
            if (!blk.isValid(p))
                continue; // invalidated since victim selection
            if (ftl_.migrateValidPage(base + p,
                                      [this](sim::Time) { opDone(); })) {
                ++pending_;
                ++ftl_.mutableStats().gc.migratedPages;
            }
        }
        if (pending_ == 0)
            advance();
        break;
      }
      case Phase::Migrate: {
        phase_ = Phase::Erase;
        if (ftl_.chips().block(victim_).validCount() != 0)
            sim::panic("GcJob: victim still has valid pages after migrate");
        const std::uint64_t plane = geom.planeOfBlock(victim_);
        ftl_.eraseAndRelease(victim_, [this, plane] {
            finished_ = true;
            ftl_.onGcFinished(plane);
        });
        break;
      }
      default:
        sim::panic("GcJob::advance: bad phase");
    }
}

} // namespace ida::ftl
