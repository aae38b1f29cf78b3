/**
 * @file
 * Resident-memory bounds: how much of a freshly built device, and of
 * one event queue, actually becomes resident.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "sim/event_queue.hh"
#include "ssd/ssd.hh"

namespace ida::sim {
namespace {

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

TEST(DeviceResidency, TinyDeviceFaultsInLessThanTwoMiB)
{
    warmUp();
    const auto before = residentBytes();
    if (!before)
        GTEST_SKIP() << "no meaningful resident-set reading here";
    ssd::Ssd ssd(ssd::SsdConfig::tiny());
    const auto after = residentBytes();
    ASSERT_TRUE(after);
    // The whole device faults in ~24 KiB; a 4 MiB backing chunk zeroed
    // up front once made this over 4 MiB.
    EXPECT_LT(*after - *before, std::uint64_t{2} << 20);
}

TEST(DeviceResidency, PaperTlcDeviceIsUnder16MiBResident)
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
    // 24-byte record per 192-page block. 64-bit mapping entries would
    // add ~6 MiB.
    EXPECT_LT(*after - *before, std::uint64_t{16} << 20);
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
