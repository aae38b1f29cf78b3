/**
 * @file
 * Unit tests for the discrete-event kernel.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit_peers.hh"
#include "sim/chunked_fifo.hh"
#include "sim/event_queue.hh"

namespace ida::sim {
namespace {

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), Time{0});
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(Time{30}, [&] { order.push_back(3); });
    q.schedule(Time{10}, [&] { order.push_back(1); });
    q.schedule(Time{20}, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), Time{30});
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(Time{5}, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbacksCanScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(Time{1}, [&] {
        ++fired;
        q.schedule(Time{2}, [&] {
            ++fired;
            q.schedule(Time{3}, [&] { ++fired; });
        });
    });
    q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), Time{3});
}

TEST(EventQueue, SchedulingInThePastClampsToNow)
{
    EventQueue q;
    // Exercise the Clamp policy explicitly: under the default Panic
    // policy this flow would (rightly) abort.
    q.setPastSchedulePolicy(PastSchedulePolicy::Clamp);
    Time fired_at{-1};
    q.schedule(Time{100}, [&] {
        q.schedule(Time{50}, [&] { fired_at = q.now(); }); // in the past
    });
    q.run();
    EXPECT_EQ(fired_at, Time{100});
}

TEST(EventQueueDeathTest, PastScheduleUnderPanicPolicyDies)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A deliberately mis-horizoned event: under the default policy the
    // kernel must abort instead of absorbing the causality violation by
    // clamping.
    EXPECT_DEATH(
        {
            EventQueue q;
            q.schedule(Time{100}, [&q] { q.schedule(Time{50}, [] {}); });
            q.run();
        },
        "past-time event");
}

/**
 * The heap key packs the seq next to the pool slot in one word, so a
 * queue has fewer than 2^64 seqs. Running out must stop the run with a
 * message naming the limit, never wrap and reorder same-tick events.
 */
TEST(EventQueueDeathTest, SeqBeyondKeyWidthIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    using Peer = audit::testing::EventQueuePeer;
    EXPECT_EXIT(
        {
            EventQueue q;
            Peer::setNextSeq(q, Peer::seqLimit() - 1);
            q.schedule(Time{1}, [] {}); // the last seq that fits
            q.schedule(Time{1}, [] {});
        },
        testing::ExitedWithCode(1), "at most 2\\^38 events");
    EXPECT_EXIT(
        {
            EventQueue q;
            Peer::setNextSeq(q, Peer::seqLimit());
            q.reserveSeq();
        },
        testing::ExitedWithCode(1), "at most 2\\^38 events");
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(Time{10}, [&] { ++fired; });
    q.schedule(Time{20}, [&] { ++fired; });
    q.schedule(Time{30}, [&] { ++fired; });
    q.runUntil(Time{20});
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), Time{20});
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesClockToLimitWhenIdle)
{
    EventQueue q;
    q.runUntil(Time{12345});
    EXPECT_EQ(q.now(), Time{12345});
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Time when{-1};
    q.schedule(Time{100}, [&] {
        q.scheduleAfter(Time{50}, [&] { when = q.now(); });
    });
    q.run();
    EXPECT_EQ(when, Time{150});
}

TEST(EventQueue, ExecutedCounterCounts)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(Time{i}, [] {});
    q.run();
    EXPECT_EQ(q.executed(), 7u);
}

/**
 * Reserved seqs at tick @p when: P is scheduled before both
 * reservations, A between them, B after; the reserved events R2 then
 * R1 are scheduled last, R2 first. Dispatch must follow the seqs:
 * P, R1, A, R2, B.
 */
void
expectReservedOrder(Time when)
{
    EventQueue q;
    std::vector<char> order;
    const auto log = [&order](char c) {
        return [&order, c] { order.push_back(c); };
    };
    q.schedule(when, log('P'));
    const std::uint64_t r1 = q.reserveSeq();
    q.schedule(when, log('A'));
    const std::uint64_t r2 = q.reserveSeq();
    q.schedule(when, log('B'));
    q.schedule(when, r2, log('2'));
    q.schedule(when, r1, log('1'));
    std::string why;
    ASSERT_TRUE(q.validateHeap(&why)) << why;
    EXPECT_EQ(q.pending(), 5u);
    q.run();
    EXPECT_EQ(order, (std::vector<char>{'P', '1', 'A', '2', 'B'}));
    EXPECT_EQ(q.now(), when);
    ASSERT_TRUE(q.validateHeap(&why)) << why;
}

TEST(EventQueue, ReservedSeqOrdersWithinLevel0Slot)
{
    expectReservedOrder(Time{5});
}

TEST(EventQueue, ReservedSeqSurvivesUpperLevelCascade)
{
    // A far-future tick (2^30 + 2^20 + 5 ns, about a second out): the
    // reserved seqs keep their FIFO place when the tie is decided deep
    // in the time range, not just near now().
    expectReservedOrder(
        Time{(std::int64_t{1} << 30) + (std::int64_t{1} << 20) + 5});
}

TEST(EventQueue, ReservedSeqOrdersWithinOverflowList)
{
    // A tick past 2^62 ns, near the top of the time range: the seq
    // tie-break still decides same-tick order there.
    expectReservedOrder(Time{(std::int64_t{1} << 62) + 5});
}

TEST(EventQueue, ReservedSeqJoinsTheTickBeingDrained)
{
    // The arrival-FIFO pattern: an event at tick 7 schedules, at its own
    // tick, an event under a seq reserved before the tick's later
    // events were scheduled. It must fire before them.
    EventQueue q;
    std::vector<int> order;
    const std::uint64_t reserved = q.reserveSeq();
    q.schedule(Time{7}, [&] {
        order.push_back(0);
        q.schedule(Time{7}, reserved, [&] { order.push_back(1); });
    });
    q.schedule(Time{7}, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ContainsFindsPendingEventsByKey)
{
    EventQueue q;
    const std::uint64_t reserved = q.reserveSeq();
    q.schedule(Time{3}, [] {});                    // seq 1
    q.schedule(Time{std::int64_t{1} << 40}, [] {}); // seq 2
    q.schedule(Time{3}, reserved, [] {});
    EXPECT_TRUE(q.contains(Time{3}, reserved));
    EXPECT_TRUE(q.contains(Time{3}, 1));
    EXPECT_TRUE(q.contains(Time{std::int64_t{1} << 40}, 2));
    EXPECT_FALSE(q.contains(Time{3}, 2));
    EXPECT_FALSE(q.contains(Time{4}, 1));
    q.runUntil(Time{3});
    EXPECT_FALSE(q.contains(Time{3}, reserved));
    EXPECT_TRUE(q.contains(Time{std::int64_t{1} << 40}, 2));
}

TEST(ChunkedFifo, KeepsOrderAcrossChunks)
{
    ChunkedFifo<int, 4> fifo;
    int pushed = 0;
    int popped = 0;
    // Interleave pushes and pops so the queue grows past several chunks,
    // drains to empty, and grows again from the recycled spare.
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 11; ++i)
            fifo.emplace_back() = pushed++;
        for (int i = 0; i < 5; ++i) {
            ASSERT_EQ(fifo.front(), popped++);
            fifo.pop_front();
        }
        std::vector<int> seen;
        fifo.forEach([&seen](int v) { seen.push_back(v); });
        ASSERT_EQ(seen.size(), fifo.size());
        for (std::size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], popped + static_cast<int>(i));
        EXPECT_EQ(fifo.back(), pushed - 1);
    }
    while (!fifo.empty()) {
        ASSERT_EQ(fifo.front(), popped++);
        fifo.pop_front();
    }
    EXPECT_EQ(popped, pushed);
    fifo.emplace_back() = 42;
    EXPECT_EQ(fifo.front(), 42);
    EXPECT_EQ(fifo.back(), 42);
}

TEST(TimeUnits, ConversionHelpers)
{
    EXPECT_EQ(kUsec.count(), 1000);
    EXPECT_EQ(kDay, 24 * kHour);
    EXPECT_DOUBLE_EQ(toUsec(Time{1500}), 1.5);
    EXPECT_DOUBLE_EQ(toSec(2 * kSec), 2.0);
}

} // namespace
} // namespace ida::sim
