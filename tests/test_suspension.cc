/**
 * @file
 * Tests for program/erase suspension (FlashTiming::programSuspension) —
 * the Wu & He (FAST'12) mechanism from the paper's related work, which
 * composes with IDA coding.
 */
#include <gtest/gtest.h>

#include <vector>

#include "flash/chip.hh"
#include "host_read.hh"

namespace ida::flash {
namespace {

using flash::testing::hostRead;

Geometry
oneDieGeom()
{
    Geometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 12;
    g.bitsPerCell = 3;
    return g;
}

struct Rig
{
    explicit Rig(bool suspension)
    {
        timing.programSuspension = suspension;
        chips = std::make_unique<ChipArray>(
            geom, timing, CodingScheme::tlc124(), events);
        for (std::uint32_t p = 0; p < geom.pagesPerBlock; ++p)
            chips->programImmediate(p); // block 0 readable
    }

    sim::EventQueue events;
    Geometry geom = oneDieGeom();
    FlashTiming timing;
    std::unique_ptr<ChipArray> chips;
};

TEST(Suspension, ReadInterruptsProgram)
{
    Rig r(true);
    sim::Time prog_done{-1}, read_done{-1};
    // Program on block 1, then a host read arriving mid-program.
    r.chips->programPage(r.geom.firstPpnOf(1),
                         [&](sim::Time t) { prog_done = t; });
    r.events.runUntil(500 * sim::kUsec); // program is mid-flight
    hostRead(*r.chips, 0, 0, [&](sim::Time t) { read_done = t; });
    r.events.run();

    // The read ran immediately: 50us sense + 48 + 20 from t=500us.
    EXPECT_EQ(read_done, (500 + 50 + 48 + 20) * sim::kUsec);
    // The program finished after its full work plus the suspension:
    // 48us transfer + 2300us program + 50us read-sense on the die +
    // 20us resume overhead.
    EXPECT_EQ(prog_done,
              (48 + 2300 + 50 + 20) * sim::kUsec);
    EXPECT_EQ(r.chips->stats().suspensions, 1u);
    EXPECT_EQ(r.chips->inflight(), 0u);
}

TEST(Suspension, DisabledReadWaitsBehindProgram)
{
    Rig r(false);
    sim::Time read_done{-1};
    r.chips->programPage(r.geom.firstPpnOf(1), nullptr);
    r.events.runUntil(500 * sim::kUsec);
    hostRead(*r.chips, 0, 0, [&](sim::Time t) { read_done = t; });
    r.events.run();
    // Without suspension, the read starts when the program ends.
    EXPECT_EQ(read_done, (48 + 2300 + 50 + 48 + 20) * sim::kUsec);
    EXPECT_EQ(r.chips->stats().suspensions, 0u);
}

TEST(Suspension, MultipleReadsDrainBeforeResume)
{
    Rig r(true);
    sim::Time prog_done{-1};
    std::vector<sim::Time> reads;
    r.chips->programPage(r.geom.firstPpnOf(1),
                         [&](sim::Time t) { prog_done = t; });
    r.events.runUntil(100 * sim::kUsec);
    for (int i = 0; i < 3; ++i)
        hostRead(*r.chips, 0, 0,
                 [&](sim::Time t) { reads.push_back(t); });
    r.events.run();
    ASSERT_EQ(reads.size(), 3u);
    // Reads pipeline at 50us sense intervals from t=100us.
    EXPECT_EQ(reads[0], (100 + 50 + 68) * sim::kUsec);
    EXPECT_EQ(reads[1], (100 + 100 + 68) * sim::kUsec);
    EXPECT_EQ(reads[2], (100 + 150 + 68) * sim::kUsec);
    // One suspension only; the program resumed after the last sense.
    EXPECT_EQ(r.chips->stats().suspensions, 1u);
    EXPECT_EQ(prog_done, (48 + 2300 + 150 + 20) * sim::kUsec);
}

TEST(Suspension, EraseIsSuspendableToo)
{
    Rig r(true);
    sim::Time erase_done{-1}, read_done{-1};
    r.chips->eraseBlock(2, [&](sim::Time t) { erase_done = t; });
    r.events.runUntil(sim::kMsec);
    hostRead(*r.chips, 0, 0, [&](sim::Time t) { read_done = t; });
    r.events.run();
    EXPECT_EQ(read_done, (1000 + 50 + 68) * sim::kUsec);
    EXPECT_EQ(erase_done, (3000 + 50 + 20) * sim::kUsec);
}

TEST(Suspension, NonHostReadsDoNotSuspend)
{
    Rig r(true);
    sim::Time read_done{-1};
    r.chips->programPage(r.geom.firstPpnOf(1), nullptr);
    r.events.runUntil(500 * sim::kUsec);
    r.chips->readPage(0, 0, [&](sim::Time t) { read_done = t; });
    r.events.run();
    EXPECT_EQ(r.chips->stats().suspensions, 0u);
    EXPECT_EQ(read_done, (48 + 2300 + 50 + 48 + 20) * sim::kUsec);
}

TEST(Suspension, SuspendedOpResumesBeforeNewPrograms)
{
    Rig r(true);
    std::vector<int> order;
    r.chips->programPage(r.geom.firstPpnOf(1), [&](sim::Time) {
        order.push_back(1); // the suspended program
    });
    r.events.runUntil(500 * sim::kUsec);
    hostRead(*r.chips, 0, 0, [&](sim::Time) { order.push_back(2); });
    r.chips->programPage(r.geom.firstPpnOf(1) + 1, [&](sim::Time) {
        order.push_back(3); // a later program must wait
    });
    r.events.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

} // namespace
} // namespace ida::flash
