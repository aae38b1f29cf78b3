/**
 * @file
 * Shared fixture for FTL-layer tests: a tiny TLC device with direct
 * access to every layer.
 */
#pragma once

#include "ecc/ecc_model.hh"
#include "flash/chip.hh"
#include "ftl/ftl.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace ida::ftl::testing {

struct FtlFixture
{
    explicit FtlFixture(FtlConfig cfg = {}, double adjust_error = 0.0,
                        ecc::RetryModel retry = ecc::RetryModel::earlyLife())
        : ftl(geom, cfg, chips, ecc::EccModel(adjust_error, retry), events,
              rng)
    {
    }

    sim::EventQueue events;
    sim::Rng rng{99};
    flash::Geometry geom = [] {
        flash::Geometry g;
        g.channels = 2;
        g.chipsPerChannel = 1;
        g.diesPerChip = 1;
        g.planesPerDie = 2;
        g.blocksPerPlane = 16;
        g.pagesPerBlock = 12;
        g.bitsPerCell = 3;
        return g;
    }();
    flash::ChipArray chips{geom, flash::FlashTiming{},
                           flash::CodingScheme::tlc124(), events};
    Ftl ftl;

    /** Write @p lpn synchronously through the timed path and drain. */
    void
    writeNow(flash::Lpn lpn)
    {
        ftl.hostWrite(lpn, 0, nullptr);
        events.run();
    }

    /** Preload logical pages [0, n). */
    void
    preload(flash::Lpn n)
    {
        for (flash::Lpn l = 0; l < n; ++l)
            ftl.preloadWrite(l);
        ftl.finalizePreload();
    }

    flash::Block
    blockOfLpn(flash::Lpn lpn) const
    {
        return chips.block(geom.blockOf(ftl.mapping().lookup(lpn)));
    }
};

} // namespace ida::ftl::testing
