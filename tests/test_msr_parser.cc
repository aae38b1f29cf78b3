/**
 * @file
 * Tests for the MSR Cambridge trace parser.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "sim/rng.hh"
#include "workload/msr_parser.hh"

namespace ida::workload {
namespace {

TEST(MsrParseLine, ValidReadRecord)
{
    IoRequest r;
    std::uint64_t ts = 0;
    ASSERT_TRUE(MsrTrace::parseLine(
        "128166372003061629,hm,1,Read,8192,24576,559", 8192, 1'000'000,
        r, ts));
    EXPECT_TRUE(r.isRead);
    EXPECT_EQ(r.startPage, 1u);
    EXPECT_EQ(r.pageCount, 3u);
    EXPECT_EQ(ts, 128166372003061629ull);
}

TEST(MsrParseLine, ValidWriteRecord)
{
    IoRequest r;
    std::uint64_t ts = 0;
    ASSERT_TRUE(MsrTrace::parseLine(
        "128166372003061629,hm,1,Write,0,4096,100", 8192, 1000, r, ts));
    EXPECT_FALSE(r.isRead);
    EXPECT_EQ(r.startPage, 0u);
    EXPECT_EQ(r.pageCount, 1u);
}

TEST(MsrParseLine, UnalignedRangeCoversTouchedPages)
{
    IoRequest r;
    std::uint64_t ts = 0;
    // Bytes 5000..13191 touch pages 0 and 1.
    ASSERT_TRUE(MsrTrace::parseLine("1,h,0,Read,5000,8192,1", 8192, 1000,
                                    r, ts));
    EXPECT_EQ(r.startPage, 0u);
    EXPECT_EQ(r.pageCount, 2u);
}

TEST(MsrParseLine, RejectsMalformedRecords)
{
    IoRequest r;
    std::uint64_t ts = 0;
    EXPECT_FALSE(MsrTrace::parseLine("", 8192, 1000, r, ts));
    EXPECT_FALSE(MsrTrace::parseLine("Timestamp,Host,Disk,Type,Off,Size",
                                     8192, 1000, r, ts));
    EXPECT_FALSE(MsrTrace::parseLine("1,h,0,Flush,0,4096,1", 8192, 1000,
                                     r, ts));
    EXPECT_FALSE(MsrTrace::parseLine("1,h,0,Read,0,0,1", 8192, 1000, r,
                                     ts));
    EXPECT_FALSE(MsrTrace::parseLine("x,h,0,Read,0,4096,1", 8192, 1000,
                                     r, ts));
    // offset + size runs past 2^64: must not wrap into a request that
    // covers the whole device.
    EXPECT_FALSE(MsrTrace::parseLine(
        "1,h,0,Read,18446744073709551000,8192,10", 4096, 1000, r, ts));
}

/** One field of a generated record: well-formed, extreme, or junk. */
std::string
fuzzField(sim::Rng &rng, bool numeric)
{
    static const char *const kJunk[] = {
        "",   "-1", " 1", "1 ", "0x10", "1e3", "+5", "abc", "\t",
        "18446744073709551616", "99999999999999999999999", "Read ",
        "read", "W", "R", "Flush", "Write", "Read",
    };
    const double kind = rng.uniform01();
    if (kind < 0.3 || !numeric)
        return kJunk[rng.uniformInt(0, std::size(kJunk) - 1)];
    if (kind < 0.5)
        return std::to_string(UINT64_MAX - rng.uniformInt(0, 1 << 20));
    if (kind < 0.7)
        return std::to_string(rng.uniformInt(0, UINT64_MAX - 1));
    return std::to_string(rng.uniformInt(0, 1 << 24));
}

TEST(MsrParseLine, SeededMalformedInputNeverEscapesCapacity)
{
    // Every generated line is either rejected or lands inside the
    // logical space with a nonempty page count.
    sim::Rng rng(0x5eed'4d53'5250ull);
    constexpr std::uint32_t kPageSizes[] = {1, 512, 4096, 8192, 65536};
    constexpr std::uint64_t kCapacities[] = {1, 2, 1000, 1u << 20,
                                             UINT64_MAX / 3, UINT64_MAX};
    std::uint64_t accepted = 0, rejected = 0;
    for (int i = 0; i < 20'000; ++i) {
        std::string line;
        // Mostly record-shaped (6-8 fields), sometimes truncated.
        const auto fields = rng.uniform01() < 0.8 ? rng.uniformInt(6, 8)
                                                   : rng.uniformInt(0, 5);
        for (std::uint64_t f = 0; f < fields; ++f) {
            if (f > 0)
                line += ',';
            // Fields 0/4/5 are numeric, 3 is the op type; keep the
            // others junk so only the parse rules decide.
            const bool numeric = f == 0 || f == 4 || f == 5;
            line += f == 3 && rng.uniform01() < 0.7
                        ? (rng.uniform01() < 0.5 ? "Read" : "Write")
                        : fuzzField(rng, numeric);
        }
        const std::uint32_t page =
            kPageSizes[rng.uniformInt(0, std::size(kPageSizes) - 1)];
        const std::uint64_t cap =
            kCapacities[rng.uniformInt(0, std::size(kCapacities) - 1)];
        IoRequest r;
        std::uint64_t ts = 0;
        if (!MsrTrace::parseLine(line, page, cap, r, ts)) {
            ++rejected;
            continue;
        }
        ++accepted;
        ASSERT_GE(r.pageCount, 1u) << line;
        ASSERT_LE(r.pageCount, cap) << line;
        ASSERT_LE(r.startPage, cap - r.pageCount)
            << line << " (page " << page << ", capacity " << cap << ")";
    }
    // The generator must exercise both outcomes.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

TEST(MsrParseLine, OffsetWrapsIntoLogicalSpace)
{
    IoRequest r;
    std::uint64_t ts = 0;
    ASSERT_TRUE(MsrTrace::parseLine("1,h,0,Read,81920000,8192,1", 8192,
                                    100, r, ts));
    EXPECT_LT(r.startPage, 100u);
    EXPECT_LE(r.startPage + r.pageCount, 100u);
}

TEST(MsrTrace, StreamsFileWithRebasedTimestamps)
{
    const std::string path = ::testing::TempDir() + "/msr_test.csv";
    {
        std::ofstream out(path);
        out << "128166372003061629,hm,1,Read,8192,8192,559\n";
        out << "garbage line that should be skipped\n";
        out << "128166372003062629,hm,1,Write,16384,8192,100\n";
    }
    MsrTrace t(path, 8192, 1000);
    IoRequest r;
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.arrival, sim::Time{});
    EXPECT_TRUE(r.isRead);
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.arrival, sim::Time{100'000}); // 1000 ticks of 100ns = 100us
    EXPECT_FALSE(r.isRead);
    EXPECT_FALSE(t.next(r));
    EXPECT_EQ(t.malformedLines(), 1u);
    std::remove(path.c_str());
}

TEST(MsrTrace, OutOfOrderTimestampsAreClampedAndCounted)
{
    const std::string path = ::testing::TempDir() + "/msr_ooo.csv";
    {
        std::ofstream out(path);
        // Ticks relative to the first record: 0, +2000, +1000 (regresses),
        // +3000. One tick is 100ns.
        out << "128166372003061629,hm,1,Read,8192,8192,1\n";
        out << "128166372003063629,hm,1,Write,16384,8192,1\n";
        out << "128166372003062629,hm,1,Read,24576,8192,1\n";
        out << "128166372003064629,hm,1,Write,32768,8192,1\n";
    }
    MsrTrace t(path, 8192, 1000);
    IoRequest r;
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.arrival, sim::Time{});
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.arrival, sim::Time{200'000});
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.arrival, sim::Time{200'000}); // clamped to the previous arrival
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.arrival, sim::Time{300'000}); // later records unaffected
    EXPECT_FALSE(t.next(r));
    EXPECT_EQ(t.outOfOrderLines(), 1u);
    EXPECT_EQ(t.malformedLines(), 0u);
    std::remove(path.c_str());
}

TEST(MsrTraceDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(MsrTrace("/nonexistent/trace.csv", 8192, 1000),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace ida::workload
