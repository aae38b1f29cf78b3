/**
 * @file
 * Unit tests for the chip-array timing model: per-die serialization,
 * read-first scheduling, channel behaviour, and command latencies.
 */
#include <gtest/gtest.h>

#include <vector>

#include "flash/chip.hh"
#include "host_read.hh"
#include "trace/recorder.hh"

namespace ida::flash {
namespace {

using flash::testing::hostRead;

Geometry
tinyGeom()
{
    Geometry g;
    g.channels = 2;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 12;
    g.bitsPerCell = 3;
    return g;
}

struct Fixture
{
    sim::EventQueue events;
    Geometry geom = tinyGeom();
    FlashTiming timing;
    ChipArray chips{geom, timing, CodingScheme::tlc124(), events};

    void
    fillBlock(BlockId b)
    {
        for (std::uint32_t p = 0; p < geom.pagesPerBlock; ++p)
            chips.programImmediate(geom.firstPpnOf(b) + p);
    }
};

TEST(Chip, SingleReadLatencyBreakdown)
{
    Fixture f;
    f.fillBlock(0);
    sim::Time done{-1};
    hostRead(f.chips, 0, 0, [&](sim::Time t) { done = t; });
    f.events.run();
    // LSB read: 50us sense + 48us transfer + 20us ECC.
    EXPECT_EQ(done, (50 + 48 + 20) * sim::kUsec);
}

TEST(Chip, MsbReadUsesTier2Latency)
{
    Fixture f;
    f.fillBlock(0);
    sim::Time done{-1};
    hostRead(f.chips, 2, 0, [&](sim::Time t) { done = t; });
    f.events.run();
    EXPECT_EQ(done, (150 + 48 + 20) * sim::kUsec);
}

TEST(Chip, RetryRoundsMultiplySensing)
{
    Fixture f;
    f.fillBlock(0);
    sim::Time done{-1};
    hostRead(f.chips, 2, 2, [&](sim::Time t) { done = t; });
    f.events.run();
    EXPECT_EQ(done, (3 * 150 + 48 + 20) * sim::kUsec);
    EXPECT_EQ(f.chips.stats().retrySenseRounds, 2u);
}

TEST(Chip, IdaWordlineReadsFaster)
{
    Fixture f;
    f.fillBlock(0);
    f.chips.blockTable().invalidate(0);
    sim::Time done{-1};
    f.chips.adjustWordline(0, 0, 0b110, nullptr);
    hostRead(f.chips, 2, 0, [&](sim::Time t) { done = t; });
    f.events.run();
    // MSB after LSB-invalid merge reads at the CSB tier (100us); the
    // read queues behind the 2.3ms adjustment on the same die.
    const sim::Time adj = f.timing.voltageAdjust;
    EXPECT_EQ(done, adj + (100 + 48 + 20) * sim::kUsec);
}

TEST(Chip, DieSerializesCommands)
{
    Fixture f;
    f.fillBlock(0);
    std::vector<sim::Time> done;
    for (int i = 0; i < 3; ++i)
        hostRead(f.chips, 0, 0, [&](sim::Time t) { done.push_back(t); });
    f.events.run();
    ASSERT_EQ(done.size(), 3u);
    // Senses pipeline 50us apart (die released at sense completion; the
    // transfer overlaps through the cache register).
    EXPECT_EQ(done[0], (50 + 68) * sim::kUsec);
    EXPECT_EQ(done[1], (100 + 68) * sim::kUsec);
    EXPECT_EQ(done[2], (150 + 68) * sim::kUsec);
}

TEST(Chip, IndependentDiesRunInParallel)
{
    Fixture f;
    f.fillBlock(0);
    // Block on the second die (plane 1 == die 1 in this geometry).
    const BlockId b2 = f.geom.blocksPerPlane; // first block of plane 1
    f.fillBlock(b2);
    std::vector<sim::Time> done;
    hostRead(f.chips, 0, 0, [&](sim::Time t) { done.push_back(t); });
    hostRead(f.chips, f.geom.firstPpnOf(b2), 0,
             [&](sim::Time t) { done.push_back(t); });
    f.events.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], done[1]); // different dies and channels
}

TEST(Chip, ReadFirstSchedulingJumpsWrites)
{
    Fixture f;
    f.fillBlock(0);
    std::vector<int> order;
    // Two programs queued on the die, then a host read arrives; after
    // the in-flight program, the read must run before program #2.
    f.chips.programPage(f.geom.firstPpnOf(1), [&](sim::Time) {
        order.push_back(1);
    });
    f.chips.programPage(f.geom.firstPpnOf(1) + 1, [&](sim::Time) {
        order.push_back(2);
    });
    hostRead(f.chips, 0, 0, [&](sim::Time) { order.push_back(3); });
    f.events.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 3); // the read overtook program #2
    EXPECT_EQ(order[2], 2);
}

TEST(Chip, NonHostReadsDoNotJumpTheQueue)
{
    Fixture f;
    f.fillBlock(0);
    std::vector<int> order;
    f.chips.programPage(f.geom.firstPpnOf(1), [&](sim::Time) {
        order.push_back(1);
    });
    f.chips.programPage(f.geom.firstPpnOf(1) + 1, [&](sim::Time) {
        order.push_back(2);
    });
    f.chips.readPage(0, 0, [&](sim::Time) { order.push_back(3); });
    f.events.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Chip, ProgramLatency)
{
    Fixture f;
    sim::Time done{-1};
    f.chips.programPage(0, [&](sim::Time t) { done = t; });
    f.events.run();
    EXPECT_EQ(done, 48 * sim::kUsec + f.timing.pageProgram);
    EXPECT_TRUE(f.chips.block(0).isValid(0));
}

TEST(Chip, EraseLatencyAndStateReset)
{
    Fixture f;
    f.fillBlock(0);
    sim::Time done{-1};
    f.chips.eraseBlock(0, [&](sim::Time t) { done = t; });
    f.events.run();
    EXPECT_EQ(done, f.timing.blockErase);
    EXPECT_TRUE(f.chips.block(0).isErased());
}

TEST(Chip, InflightDrainsToZero)
{
    Fixture f;
    f.fillBlock(0);
    for (int i = 0; i < 5; ++i)
        hostRead(f.chips, 0, 0, nullptr);
    // Die ops without a callback count too, and must drain as well.
    f.chips.programPage(f.geom.firstPpnOf(1), nullptr);
    f.chips.eraseBlock(2, nullptr);
    // The first read reached the idle die and left: a host read counts
    // only until die start. The other four wait behind it.
    EXPECT_EQ(f.chips.inflight(), 6u);
    f.events.run();
    EXPECT_EQ(f.chips.inflight(), 0u);
}

TEST(Chip, StatsCountCommands)
{
    Fixture f;
    f.fillBlock(0);
    f.chips.blockTable().invalidate(0);
    hostRead(f.chips, 1, 0, nullptr);
    f.chips.programPage(f.geom.firstPpnOf(1), nullptr);
    f.chips.eraseBlock(2, nullptr);
    f.chips.adjustWordline(0, 0, 0b110, nullptr);
    f.events.run();
    const ChipStats &s = f.chips.stats();
    EXPECT_EQ(s.reads, 1u);
    EXPECT_EQ(s.programs, 1u);
    EXPECT_EQ(s.erases, 1u);
    EXPECT_EQ(s.adjusts, 1u);
    EXPECT_GT(s.dieBusy, sim::Time{});
}

TEST(Chip, ChannelContentionSerializesTransfersWhenEnabled)
{
    sim::EventQueue events;
    Geometry g = tinyGeom();
    g.channels = 1;
    g.chipsPerChannel = 2; // two dies, one shared channel
    FlashTiming t;
    t.channelContention = true;
    ChipArray chips(g, t, CodingScheme::tlc124(), events);
    for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p) {
        chips.programImmediate(p);
        chips.programImmediate(g.firstPpnOf(g.blocksPerPlane) + p);
    }
    std::vector<sim::Time> done;
    hostRead(chips, 0, 0, [&](sim::Time x) { done.push_back(x); });
    hostRead(chips, g.firstPpnOf(g.blocksPerPlane), 0,
             [&](sim::Time x) { done.push_back(x); });
    events.run();
    ASSERT_EQ(done.size(), 2u);
    // Senses run in parallel (both 50us) but transfers serialize.
    EXPECT_EQ(done[0], (50 + 48 + 20) * sim::kUsec);
    EXPECT_EQ(done[1], (50 + 48 + 48 + 20) * sim::kUsec);
}

TEST(Chip, ChannelContentionSerializesProgramTransfersToo)
{
    sim::EventQueue events;
    Geometry g = tinyGeom();
    g.channels = 1;
    g.chipsPerChannel = 2;
    FlashTiming t;
    t.channelContention = true;
    ChipArray chips(g, t, CodingScheme::tlc124(), events);
    std::vector<sim::Time> done;
    chips.programPage(0, [&](sim::Time x) { done.push_back(x); });
    chips.programPage(g.firstPpnOf(g.blocksPerPlane),
                      [&](sim::Time x) { done.push_back(x); });
    events.run();
    ASSERT_EQ(done.size(), 2u);
    // Data-in transfers serialize on the shared channel; the programs
    // themselves then overlap on the two dies.
    EXPECT_EQ(done[0], 48 * sim::kUsec + t.pageProgram);
    EXPECT_EQ(done[1], 96 * sim::kUsec + t.pageProgram);
}

TEST(Chip, NoContentionProgramsFullyOverlap)
{
    sim::EventQueue events;
    Geometry g = tinyGeom();
    g.channels = 1;
    g.chipsPerChannel = 2;
    ChipArray chips(g, FlashTiming{}, CodingScheme::tlc124(), events);
    std::vector<sim::Time> done;
    chips.programPage(0, [&](sim::Time x) { done.push_back(x); });
    chips.programPage(g.firstPpnOf(g.blocksPerPlane),
                      [&](sim::Time x) { done.push_back(x); });
    events.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], done[1]);
}

TEST(ChipDeath, OutOfOrderProgramPanics)
{
    Fixture f;
    EXPECT_DEATH(f.chips.programPage(1, nullptr), "out-of-order");
}

/**
 * The read cost table equals the reference path it replaced: for every
 * coding mask a wordline can carry and every level the mask keeps,
 * Block::readSensings gives the sensings and FlashTiming::readLatency
 * one round's latency. One wordline per mask, so each is read under the
 * mask it was adjusted to.
 */
TEST(ChipReadCost, TableMatchesReadSensingsAndReadLatency)
{
    const struct
    {
        const char *name;
        CodingScheme (*make)();
        FlashTiming timing;
    } cases[] = {
        {"tlc124", &CodingScheme::tlc124, FlashTiming{}},
        {"tlc232", &CodingScheme::tlc232,
         FlashTiming::tlcWithDeltaTr(30 * sim::kUsec)},
        {"mlc12", &CodingScheme::mlc12, FlashTiming::mlcDefaults()},
        {"qlc1248", &CodingScheme::qlc1248, FlashTiming{}},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const CodingScheme scheme = c.make();
        const auto bits = static_cast<std::uint32_t>(scheme.bits());
        Geometry g = tinyGeom();
        g.bitsPerCell = bits;
        g.pagesPerBlock = bits * 16; // a wordline for every mask
        sim::EventQueue events;
        ChipArray chips(g, c.timing, scheme, events);
        for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p)
            chips.programImmediate(p);

        const LevelMask full = fullMask(scheme.bits());
        std::uint32_t wl = 0;
        for (unsigned m = 1; m <= full; ++m, ++wl) {
            const auto mask = static_cast<LevelMask>(m);
            if (mask != full) {
                for (std::uint32_t level = 0; level < bits; ++level) {
                    if (((mask >> level) & 1u) == 0)
                        chips.blockTable().invalidate(
                            g.pageOfWordline(wl, level));
                }
                chips.blockTable().applyIda(0, wl, mask);
            }
            for (std::uint32_t level = 0; level < bits; ++level) {
                if (((mask >> level) & 1u) == 0)
                    continue;
                SCOPED_TRACE(::testing::Message()
                             << "mask " << m << ", level " << level);
                const int senses = chips.block(0).readSensings(
                    g.pageOfWordline(wl, level), scheme);
                const ReadCost &cost = chips.readCost(mask, level);
                EXPECT_EQ(cost.senses, senses);
                EXPECT_EQ(cost.conventional,
                          scheme.sensingCount(static_cast<int>(level)));
                EXPECT_EQ(cost.round,
                          c.timing.readLatency(scheme, senses));
            }
        }
        for (std::uint32_t level = 0; level < bits; ++level)
            EXPECT_EQ(chips.conventionalRound(level),
                      c.timing.conventionalReadLatency(
                          scheme, static_cast<int>(level)));
    }
}

/**
 * locate() agrees with Geometry's arithmetic, and each read runs on
 * the channel Geometry assigns its die (the span records both).
 */
TEST(Chip, LocateAndChannelMatchGeometry)
{
    sim::EventQueue events;
    Geometry g;
    g.channels = 3;
    g.chipsPerChannel = 2;
    g.diesPerChip = 2;
    g.planesPerDie = 3;
    g.blocksPerPlane = 5;
    g.pagesPerBlock = 12;
    ChipArray chips(g, FlashTiming{}, CodingScheme::tlc124(), events);
    for (Ppn p = 0; p < g.pages(); ++p) {
        const PageLocation at = chips.locate(p);
        ASSERT_EQ(at.ppn, p);
        ASSERT_EQ(at.block, g.blockOf(p));
        ASSERT_EQ(at.die, g.dieOfBlock(at.block));
        ASSERT_EQ(at.page, g.decode(p).page);
    }

    trace::Recorder rec(trace::Recorder::Options{true});
    chips.setTracer(&rec);
    const BlockId blocksPerDie = BlockId{g.planesPerDie} * g.blocksPerPlane;
    for (DieId d = 0; d < g.dies(); ++d) {
        const Ppn p = g.firstPpnOf(d * blocksPerDie);
        chips.programImmediate(p);
        hostRead(chips, p, 0, nullptr);
    }
    events.run();
    ASSERT_EQ(rec.spans().size(), g.dies());
    for (const trace::Span &sp : rec.spans()) {
        EXPECT_EQ(sp.die, g.dieOfBlock(g.blockOf(sp.ppn)));
        EXPECT_EQ(sp.channel, g.channelOfDie(sp.die));
    }
}

} // namespace
} // namespace ida::flash
