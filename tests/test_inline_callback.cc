/**
 * @file
 * Unit tests for sim::InlineCallback, plus the allocation-counting
 * probe that pins the kernel's zero-heap-per-event guarantee.
 *
 * This translation unit replaces the global operator new/delete with
 * counting versions (delegating to malloc/free), which is why the
 * steady-state probes (event kernel, chip-array command queues) live
 * here: the counters observe every allocation in the process, so a
 * delta of zero across a dispatch storm is proof, not inference.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "flash/chip.hh"
#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_deletes{0};

} // namespace

void *
operator new(std::size_t size)
{
    ++g_news;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    if (p) {
        ++g_deletes;
        std::free(p);
    }
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

// The nothrow forms too (std::stable_sort's temporary buffer uses
// them): left to the runtime, their blocks would come back through the
// free() above, which ASan reports as an alloc/dealloc mismatch.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_news;
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

namespace ida::sim {
namespace {

using Cb = InlineCallback<int(int), 64>;

TEST(InlineCallback, EmptyByDefaultAndAfterNullptr)
{
    Cb cb;
    EXPECT_FALSE(cb);
    Cb cb2 = nullptr;
    EXPECT_FALSE(cb2);
    cb = [](int x) { return x; };
    EXPECT_TRUE(cb);
    cb = nullptr;
    EXPECT_FALSE(cb);
}

TEST(InlineCallback, InvokesWithArgsAndReturn)
{
    int base = 40;
    Cb cb = [base](int x) { return base + x; };
    EXPECT_EQ(cb(2), 42);
}

TEST(InlineCallback, CapturesMutateAcrossCalls)
{
    Cb counter = [n = 0](int) mutable { return ++n; };
    EXPECT_EQ(counter(0), 1);
    EXPECT_EQ(counter(0), 2);
    EXPECT_EQ(counter(0), 3);
}

TEST(InlineCallback, MoveTransfersAndEmptiesSource)
{
    Cb a = [](int x) { return 2 * x; };
    Cb b = std::move(a);
    EXPECT_FALSE(a);
    EXPECT_TRUE(b);
    EXPECT_EQ(b(21), 42);

    Cb c;
    c = std::move(b);
    EXPECT_FALSE(b);
    EXPECT_EQ(c(5), 10);
}

TEST(InlineCallback, HoldsMoveOnlyCaptures)
{
    auto p = std::make_unique<int>(7);
    InlineCallback<int(), 64> cb = [p = std::move(p)] { return *p; };
    EXPECT_EQ(cb(), 7);
    InlineCallback<int(), 64> cb2 = std::move(cb);
    EXPECT_EQ(cb2(), 7);
}

TEST(InlineCallback, DestroysNonTrivialCaptureExactlyOnce)
{
    struct Probe
    {
        int *count;
        explicit Probe(int *c) : count(c) {}
        Probe(Probe &&o) noexcept : count(std::exchange(o.count, nullptr))
        {
        }
        ~Probe()
        {
            if (count)
                ++*count;
        }
    };
    static_assert(!std::is_trivially_destructible_v<Probe>);

    int destroyed = 0;
    {
        InlineCallback<int(), 64> cb = [p = Probe(&destroyed)] {
            return p.count ? 1 : 0;
        };
        EXPECT_EQ(cb(), 1);
        // The non-trivial relocate path: moved-from callable must not
        // double-count on destruction.
        InlineCallback<int(), 64> cb2 = std::move(cb);
        EXPECT_EQ(cb2(), 1);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);

    destroyed = 0;
    {
        InlineCallback<int(), 64> cb = [p = Probe(&destroyed)] {
            return p.count ? 1 : 0;
        };
        cb = nullptr; // reset destroys in place
        EXPECT_EQ(destroyed, 1);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(InlineCallback, RebindInPlaceReplacesCallable)
{
    Cb cb = [](int x) { return x + 1; };
    EXPECT_EQ(cb(1), 2);
    cb = [](int x) { return x * 10; };
    EXPECT_EQ(cb(4), 40);
}

// Compile-time acceptance predicate, both directions. A capture set
// that would not fit inline is a build error at the construction site,
// never a silent heap fallback.
struct Fits
{
    char pad[64];
    int operator()(int) const { return 0; }
};
struct TooBig
{
    char pad[65];
    int operator()(int) const { return 0; }
};
struct OverAligned
{
    alignas(32) char pad[32];
    int operator()(int) const { return 0; }
};

static_assert(Cb::canHold<Fits>);
static_assert(!Cb::canHold<TooBig>);
static_assert(!Cb::canHold<OverAligned>);
static_assert(std::is_constructible_v<Cb, Fits>);
static_assert(!std::is_constructible_v<Cb, TooBig>);
static_assert(!std::is_constructible_v<Cb, OverAligned>);
static_assert(!std::is_assignable_v<Cb &, TooBig>);
// Signature mismatches are rejected the same way.
static_assert(!Cb::canHold<void (*)()>);
// Capacity is a knob: a smaller alias rejects what a larger one takes.
static_assert(InlineCallback<int(int), 16>::canHold<decltype([](int x) {
    return x;
})>);
static_assert(!InlineCallback<int(int), 16>::canHold<Fits>);

// The object itself stays pointer-aligned and exactly Capacity + one
// vtable pointer: nested budgets (flash::DoneCallback inside an
// EventQueue::Callback capture) depend on this arithmetic.
static_assert(sizeof(EventQueue::Callback) == 64 + sizeof(void *));
static_assert(alignof(EventQueue::Callback) == alignof(void *));

TEST(InlineCallbackAlloc, HoldingALambdaDoesNotAllocate)
{
    const std::uint64_t before = g_news.load();
    {
        std::uint64_t big[6] = {1, 2, 3, 4, 5, 6}; // 48 bytes, > SBO of
                                                   // std::function
        InlineCallback<std::uint64_t(), 64> cb = [big] {
            return big[0] + big[5];
        };
        EXPECT_EQ(cb(), 7u);
        InlineCallback<std::uint64_t(), 64> cb2 = std::move(cb);
        EXPECT_EQ(cb2(), 7u);
    }
    EXPECT_EQ(g_news.load(), before);
}

/**
 * The acceptance probe for the kernel rewrite: once the event pool and
 * heap have grown to the workload's footprint, a schedule/dispatch
 * storm performs ZERO heap allocations — not amortized-few, zero.
 */
TEST(InlineCallbackAlloc, EventQueueSteadyStateIsAllocationFree)
{
    EventQueue q;
    std::uint64_t fired = 0;

    struct Pump
    {
        EventQueue &q;
        std::uint64_t &fired;
        std::uint64_t remaining;
        std::uint64_t payload[4] = {1, 2, 3, 4}; // kernel-sized capture

        void
        step(std::uint64_t salt)
        {
            ++fired;
            if (remaining == 0)
                return;
            --remaining;
            q.scheduleAfter(sim::Time{1 + (salt % 5)},
                            [this, salt] { step(salt * 2654435761u); });
        }
    };

    // Warm-up: grow pool/heap to steady-state footprint (16 chains).
    Pump pumps[16] = {
        {q, fired, 50}, {q, fired, 50}, {q, fired, 50}, {q, fired, 50},
        {q, fired, 50}, {q, fired, 50}, {q, fired, 50}, {q, fired, 50},
        {q, fired, 50}, {q, fired, 50}, {q, fired, 50}, {q, fired, 50},
        {q, fired, 50}, {q, fired, 50}, {q, fired, 50}, {q, fired, 50},
    };
    for (std::uint64_t i = 0; i < 16; ++i)
        pumps[i].step(i + 1);
    q.run();
    const std::uint64_t warmed = fired;
    EXPECT_GT(warmed, 16u * 50u);

    // Steady state: same 16 chains again, 10k more events — and the
    // process-wide allocation counter must not move at all.
    for (auto &p : pumps)
        p.remaining = 10'000 / 16;
    const std::uint64_t news_before = g_news.load();
    const std::uint64_t deletes_before = g_deletes.load();
    for (std::uint64_t i = 0; i < 16; ++i)
        pumps[i].step(i + 1);
    q.run();
    EXPECT_GT(fired, warmed + 10'000u - 16u);
    EXPECT_EQ(g_news.load(), news_before);
    EXPECT_EQ(g_deletes.load(), deletes_before);
}

/** One die on one channel: every command queues behind the last. */
flash::Geometry
oneDieGeometry()
{
    flash::Geometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 12;
    g.bitsPerCell = 3;
    return g;
}

/**
 * The chip array's die queues, command slots and completion events,
 * probed like the kernel above: once a burst shape has run, running it
 * again allocates nothing. Each burst queues an erase, four programs and
 * sixteen host reads on one die at one instant; with programSuspension
 * on, a further read arrives mid-program and suspends it.
 */
TEST(InlineCallbackAlloc, ChipArrayQueuedCommandsAreAllocationFree)
{
    for (const bool suspension : {false, true}) {
        SCOPED_TRACE(suspension ? "programSuspension" : "no suspension");
        const flash::Geometry geom = oneDieGeometry();
        flash::FlashTiming timing;
        timing.programSuspension = suspension;
        EventQueue q;
        flash::ChipArray chips(geom, timing,
                               flash::CodingScheme::tlc124(), q);
        for (std::uint32_t p = 0; p < geom.pagesPerBlock; ++p)
            chips.programImmediate(p); // block 0 readable

        std::uint64_t done = 0;
        const auto burst = [&] {
            const auto cb = [&done](Time) { ++done; };
            const auto read_cb = [&done](Time, std::uint64_t) { ++done; };
            chips.eraseBlock(1, cb);
            for (std::uint32_t p = 0; p < 4; ++p)
                chips.programPage(geom.firstPpnOf(1) + p, cb);
            for (std::uint32_t p = 0; p < 16; ++p)
                chips.readHostPage(chips.locate(p % geom.pagesPerBlock), 0,
                                   read_cb);
            q.runUntil(q.now() + 6 * kMsec); // erase done, programs run
            chips.readHostPage(chips.locate(0), 0, read_cb);
            q.run();
        };

        for (int i = 0; i < 3; ++i)
            burst(); // warm-up: slots, event pool and heap grow
        ASSERT_EQ(done, 3u * 22u);
        ASSERT_EQ(chips.inflight(), 0u);
        const std::uint64_t suspensions = chips.stats().suspensions;

        const std::uint64_t news_before = g_news.load();
        const std::uint64_t deletes_before = g_deletes.load();
        for (int i = 0; i < 50; ++i)
            burst();
        EXPECT_EQ(g_news.load(), news_before);
        EXPECT_EQ(g_deletes.load(), deletes_before);
        EXPECT_EQ(done, 53u * 22u);
        EXPECT_EQ(chips.inflight(), 0u);
        // Per burst, the first read suspends the erase and the late
        // read suspends the running program.
        EXPECT_EQ(chips.stats().suspensions - suspensions,
                  suspension ? 100u : 0u);
    }
}

} // namespace
} // namespace ida::sim
