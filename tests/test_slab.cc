/**
 * @file
 * Unit tests for sim::Slab, the handle-addressed pool every in-flight
 * record lives in: LIFO reuse, the live count, the live-slot visitor
 * and the free-list soundness check the auditor relies on.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/slab.hh"

namespace ida::sim {
namespace {

TEST(Slab, GrowsThenReusesTheLastFreedSlotFirst)
{
    Slab<int> s;
    const std::uint32_t a = s.acquire();
    const std::uint32_t b = s.acquire();
    const std::uint32_t c = s.acquire();
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);
    s.release(a);
    s.release(c);
    EXPECT_EQ(s.acquire(), c);
    EXPECT_EQ(s.acquire(), a);
    EXPECT_EQ(s.acquire(), 3u); // free list empty: grows
}

TEST(Slab, ReusedSlotKeepsItsValueUntilAssigned)
{
    Slab<int> s;
    const std::uint32_t a = s.acquire();
    EXPECT_EQ(s[a], 0); // a new slot is value-initialized
    s[a] = 7;
    s.release(a);
    EXPECT_EQ(s[s.acquire()], 7);
}

TEST(Slab, LiveCountsAcquiresMinusReleases)
{
    Slab<int> s;
    EXPECT_EQ(s.live(), 0u);
    const std::uint32_t a = s.acquire();
    const std::uint32_t b = s.acquire();
    EXPECT_EQ(s.live(), 2u);
    s.release(a);
    EXPECT_EQ(s.live(), 1u);
    s.acquire();
    EXPECT_EQ(s.live(), 2u);
    s.release(b);
    s.release(a);
    EXPECT_EQ(s.live(), 0u);
}

TEST(Slab, VisitorSkipsFreedSlots)
{
    Slab<int> s;
    for (int i = 0; i < 5; ++i)
        s[s.acquire()] = 10 + i;
    s.release(1);
    s.release(3);
    std::vector<int> seen;
    s.forEachLive([&](const int &v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<int>{10, 12, 14}));
    s[s.acquire()] = 99; // reuses slot 3
    seen.clear();
    s.forEachLive([&](const int &v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<int>{10, 12, 99, 14}));
}

TEST(Slab, ValidateAcceptsEveryReachableState)
{
    Slab<int> s;
    EXPECT_TRUE(s.validate());
    std::vector<std::uint32_t> held;
    for (int i = 0; i < 8; ++i)
        held.push_back(s.acquire());
    for (std::uint32_t h : {5u, 0u, 7u})
        s.release(h);
    EXPECT_TRUE(s.validate());
    s.acquire();
    EXPECT_TRUE(s.validate());
}

TEST(Slab, ValidateReportsACyclicFreeList)
{
    // Releasing a slot twice links it back into the free list: to
    // itself when it is the head, through other slots when it is
    // deeper. The walk must stop and name the cycle, not spin.
    Slab<int> self;
    self.acquire();
    const std::uint32_t b = self.acquire();
    self.release(b);
    self.release(b); // b -> b
    std::string why;
    EXPECT_FALSE(self.validate(&why));
    EXPECT_EQ(why, "free list is cyclic");

    Slab<int> deep;
    const std::uint32_t x = deep.acquire();
    const std::uint32_t y = deep.acquire();
    deep.acquire();
    deep.release(x);
    deep.release(y);
    deep.release(x); // x -> y -> x
    why.clear();
    EXPECT_FALSE(deep.validate(&why));
    EXPECT_EQ(why, "free list is cyclic");
}

TEST(Slab, ValidateReportsAFreeListThroughALiveSlot)
{
    // After a double release the next acquire hands out a slot the
    // free list still names.
    Slab<int> s;
    const std::uint32_t a = s.acquire();
    s.release(a);
    s.release(a);
    EXPECT_EQ(s.acquire(), a);
    std::string why;
    EXPECT_FALSE(s.validate(&why));
    EXPECT_EQ(why, "free list reaches a live slot");
}

} // namespace
} // namespace ida::sim
