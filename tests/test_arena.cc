/**
 * @file
 * Unit tests for the device arena: what allocate() guarantees (zeroed
 * arrays, even on recycled heap memory), how chunks are opened, and how
 * much of a device's arena, and of its event queue, actually becomes
 * resident.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "ssd/ssd.hh"

namespace ida::sim {
namespace {

TEST(Arena, ReturnsZeroedArraysOnRecycledMemory)
{
    constexpr std::size_t kChunk = std::size_t{1} << 20;
    constexpr std::size_t kWords = 40'000;
    for (int round = 0; round < 3; ++round) {
        {
            // Dirty a chunk and a dedicated chunk, then free both.
            Arena dirty(kChunk);
            auto *bytes = dirty.allocate<std::uint8_t>(kChunk / 2);
            auto *big = dirty.allocate<std::uint8_t>(2 * kChunk);
            std::memset(bytes, 0xFF, kChunk / 2);
            std::memset(big, 0xFF, 2 * kChunk);
        }
        Arena fresh(kChunk);
        const auto *bytes = fresh.allocate<std::uint8_t>(kChunk / 2);
        const auto *big = fresh.allocate<std::uint8_t>(2 * kChunk);
        const auto *words = fresh.allocate<std::uint64_t>(kWords);
        EXPECT_TRUE(std::all_of(bytes, bytes + kChunk / 2,
                                [](std::uint8_t b) { return b == 0; }));
        EXPECT_TRUE(std::all_of(big, big + 2 * kChunk,
                                [](std::uint8_t b) { return b == 0; }));
        EXPECT_TRUE(std::all_of(words, words + kWords,
                                [](std::uint64_t w) { return w == 0; }));
    }
}

TEST(Arena, DedicatedChunkKeepsBumpingTheCurrentChunk)
{
    Arena a(1024);
    auto *first = a.allocate<std::uint8_t>(100);
    a.allocate<std::uint8_t>(4096); // its own chunk
    auto *next = a.allocate<std::uint8_t>(100);
    EXPECT_EQ(a.chunkCount(), 2u);
    EXPECT_EQ(next, first + 100); // the first chunk's tail, not stranded
    EXPECT_EQ(a.bytesAllocated(), 4296u);
}

TEST(Arena, SmallRequestThatDoesNotFitOpensAQuantumChunk)
{
    Arena a(1024);
    a.allocate<std::uint8_t>(1000);
    auto *second = a.allocate<std::uint8_t>(100); // 24 bytes left: grow
    auto *third = a.allocate<std::uint8_t>(100);
    EXPECT_EQ(a.chunkCount(), 2u);
    EXPECT_EQ(third, second + 100);
}

TEST(Arena, KeepsTheRoomierChunkCurrent)
{
    Arena a(1000);
    auto *small = a.allocate<std::uint8_t>(100);  // 900 left
    a.allocate<std::uint8_t>(950);                // 50 left in its chunk
    auto *next = a.allocate<std::uint8_t>(800);   // still fits the first
    EXPECT_EQ(a.chunkCount(), 2u);
    EXPECT_EQ(next, small + 100);
}

TEST(Arena, AlignsEachArray)
{
    Arena a(256);
    a.allocate<std::uint8_t>(3);
    auto *w = a.allocate<std::uint64_t>(4);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w) % alignof(std::uint64_t),
              0u);
    EXPECT_EQ(a.bytesAllocated(), 35u);
}

/**
 * This process's anonymous resident memory in bytes (statm's resident
 * minus its file-backed pages), if /proc/self/statm is readable and the
 * number means what it says. File-backed pages are left out because
 * running code not yet mapped faults in its executable pages up to
 * 64 KiB at a time (the kernel's fault-around), depending on where ASLR
 * put the binary. Under AddressSanitizer every touched byte also faults
 * in shadow memory, and with transparent huge pages set to "always" one
 * touched byte can fault in 2 MiB.
 */
std::optional<std::uint64_t>
residentBytes()
{
#if defined(__SANITIZE_ADDRESS__)
    return std::nullopt;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return std::nullopt;
#endif
#endif
    std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string mode;
    if (std::getline(thp, mode) &&
        mode.find("[always]") != std::string::npos)
        return std::nullopt;
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    std::uint64_t fileBacked = 0;
    if (!(statm >> size >> resident >> fileBacked))
        return std::nullopt;
    return (resident - fileBacked) *
           static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/**
 * Build and drop one tiny device so one-time process costs (allocator
 * and stream set-up, static tables) do not count against a measurement,
 * then hand freed heap pages back so that reusing memory an earlier test
 * already touched cannot hide new faults. One reading afterwards faults
 * the reader's own stream buffers back in: without it the next reading
 * after the trim counts ~64 KiB of them against the measurement.
 */
void
warmUp()
{
    { ssd::Ssd warm(ssd::SsdConfig::tiny()); }
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    residentBytes();
}

TEST(ArenaResidency, TinyDeviceFaultsInLessThanTwoMiB)
{
    warmUp();
    const auto before = residentBytes();
    if (!before)
        GTEST_SKIP() << "no meaningful resident-set reading here";
    ssd::Ssd ssd(ssd::SsdConfig::tiny());
    const auto after = residentBytes();
    ASSERT_TRUE(after);
    // The arena's chunk is 4 MiB; the device uses ~32 KiB of it. Zeroing
    // the whole chunk made this over 4 MiB.
    EXPECT_LT(*after - *before, std::uint64_t{2} << 20)
        << "arena handed out " << ssd.chips().arena().bytesAllocated();
}

TEST(ArenaResidency, PaperTlcDeviceFaultsInLittleMoreThanTheArenaHandsOut)
{
    warmUp();
    const auto before = residentBytes();
    if (!before)
        GTEST_SKIP() << "no meaningful resident-set reading here";
    ssd::Ssd ssd(ssd::SsdConfig::paperTlc());
    const auto after = residentBytes();
    ASSERT_TRUE(after);
    const std::uint64_t handedOut = ssd.chips().arena().bytesAllocated();
    EXPECT_GT(handedOut, std::uint64_t{12} << 20);
    // Everything else the device allocates (free pools, per-die queues,
    // event queue) plus partly used pages stays under 2 MiB; zeroing
    // whole chunks put ~8.5 MiB of untouched tail here.
    EXPECT_LT(*after - *before, handedOut + (std::uint64_t{2} << 20))
        << "arena handed out " << handedOut << " bytes in "
        << ssd.chips().arena().chunkCount() << " chunks";
}

TEST(ArenaResidency, PaperTlcDeviceIsUnder16MiBResident)
{
    warmUp();
    const auto before = residentBytes();
    if (!before)
        GTEST_SKIP() << "no meaningful resident-set reading here";
    ssd::Ssd ssd(ssd::SsdConfig::paperTlc());
    const auto after = residentBytes();
    ASSERT_TRUE(after);
    // 1.57M pages at ~10 bytes each: a 2-byte sector mask, two
    // wordline bytes per three pages, ~7.4 bytes of L2P/P2L, and a
    // 24-byte record per 192-page block.
    EXPECT_LT(*after - *before, std::uint64_t{16} << 20)
        << "arena handed out " << ssd.chips().arena().bytesAllocated();
}

TEST(QueueResidency, OneEventQueueFaultsInUnder64KiB)
{
    warmUp();
    const auto before = residentBytes();
    if (!before)
        GTEST_SKIP() << "no meaningful resident-set reading here";
    auto q = std::make_unique<EventQueue>();
    q->schedule(Time{1}, [] {});
    q->run();
    const auto after = residentBytes();
    ASSERT_TRUE(after);
    // Every device and every fleet member owns a queue; one slab chunk
    // and a one-entry heap fault in ~20 KiB.
    EXPECT_LT(*after - *before, std::uint64_t{64} << 10)
        << "pool holds " << q->poolSize() << " slots";
}

} // namespace
} // namespace ida::sim
