/**
 * @file
 * Refresh inspector: builds a tiny device, constructs each of the
 * paper's Table I wordline cases in one block, runs a single
 * IDA-modified refresh, and narrates what happened to every wordline —
 * a console walk-through of paper Fig. 7.
 */
#include <cstdio>

#include "ecc/ecc_model.hh"
#include "flash/chip.hh"
#include "ftl/ftl.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

int
main()
{
    using namespace ida;

    sim::EventQueue events;
    sim::Rng rng(7);
    flash::Geometry geom;
    geom.channels = 1;
    geom.chipsPerChannel = 1;
    geom.diesPerChip = 1;
    geom.planesPerDie = 1;
    geom.blocksPerPlane = 16;
    geom.pagesPerBlock = 24; // 8 wordlines: enough for all 8 cases
    geom.bitsPerCell = 3;

    flash::ChipArray chips(geom, flash::FlashTiming{},
                           flash::CodingScheme::tlc124(), events);
    ftl::FtlConfig cfg;
    cfg.enableIda = true;
    cfg.refreshPeriod = 10 * sim::kSec;
    cfg.refreshCheckInterval = sim::kSec;
    ftl::Ftl ftl(geom, cfg, chips, ecc::EccModel(0.2,
                 ecc::RetryModel::earlyLife()), events, rng);

    // Fill one block: 8 wordlines x 3 pages (single plane, so LPN p is
    // in-block page p), plus one page to close the block.
    std::printf("programming 8 wordlines with the conventional coding\n");
    for (flash::Lpn l = 0; l < 25; ++l)
        ftl.hostWrite(l, 0, nullptr);
    events.run();

    // Sculpt the 8 Table I cases: wordline k-1 becomes case k.
    auto update = [&](flash::Lpn l) { ftl.hostWrite(l, 0, nullptr); };
    // case 1: all valid (nothing to do on WL0)
    update(3 * 1 + 0);                        // case 2: LSB invalid
    update(3 * 2 + 1);                        // case 3: CSB invalid
    update(3 * 3 + 0); update(3 * 3 + 1);     // case 4: LSB+CSB invalid
    update(3 * 4 + 2);                        // case 5: MSB invalid
    update(3 * 5 + 0); update(3 * 5 + 2);     // case 6: LSB+MSB invalid
    update(3 * 6 + 1); update(3 * 6 + 2);     // case 7: CSB+MSB invalid
    update(3 * 7 + 0); update(3 * 7 + 1); update(3 * 7 + 2); // case 8
    events.run();

    const flash::BlockId target = 0;
    const auto &blk = chips.block(target);
    std::printf("\nbefore refresh (block %llu):\n",
                (unsigned long long)target);
    for (std::uint32_t wl = 0; wl < 8; ++wl)
        std::printf("  WL%u: Table I case %d\n", wl, blk.tableICase(wl));

    // Age the block and let the refresh scanner pick it up. The window
    // is shorter than the refresh period, so exactly one refresh runs
    // (a second one would force-migrate the new IDA block).
    ftl.blocks().setRefreshedAt(target, -100 * sim::kSec);
    ftl.start();
    events.runUntil(events.now() + 5 * sim::kSec);

    const auto &st = ftl.stats().refresh;
    std::printf("\nrefresh done: %llu refresh(es), %llu wordlines "
                "voltage-adjusted, %llu pages migrated, %llu "
                "verification reads, %llu disturbed write-backs\n",
                (unsigned long long)st.refreshes,
                (unsigned long long)st.adjustedWordlines,
                (unsigned long long)st.migratedPages,
                (unsigned long long)st.extraReads,
                (unsigned long long)st.extraWrites);

    std::printf("\nafter refresh (block %llu is %s):\n",
                (unsigned long long)target,
                blk.isIdaBlock() ? "an IDA block" : "conventional");
    const auto &coding = chips.coding();
    for (std::uint32_t wl = 0; wl < 8; ++wl) {
        std::printf("  WL%u: ", wl);
        if (blk.isIdaWordline(wl)) {
            std::printf("IDA mask=0b");
            for (int b = 2; b >= 0; --b)
                std::printf("%d", (blk.wordlineMask(wl) >> b) & 1);
            for (std::uint32_t lvl = 0; lvl < 3; ++lvl) {
                const std::uint32_t page = wl * 3 + lvl;
                if (blk.isValid(page))
                    std::printf("  L%u:%d sensing(s)", lvl,
                                blk.readSensings(page, coding));
            }
            std::printf("\n");
        } else {
            std::uint32_t valid = 0;
            for (std::uint32_t lvl = 0; lvl < 3; ++lvl)
                valid += blk.isValid(wl * 3 + lvl);
            std::printf("conventional, %u valid page(s) %s\n", valid,
                        valid ? "" : "(migrated away)");
        }
    }
    return 0;
}
