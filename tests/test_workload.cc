/**
 * @file
 * Tests for the synthetic workload generator and the named presets.
 */
#include <gtest/gtest.h>

#include <set>

#include "workload/presets.hh"
#include "workload/synthetic.hh"

namespace ida::workload {
namespace {

SyntheticConfig
smallCfg()
{
    SyntheticConfig c;
    c.footprintPages = 10'000;
    c.totalRequests = 20'000;
    c.duration = 100 * sim::kSec;
    c.seed = 11;
    return c;
}

TEST(Synthetic, Deterministic)
{
    SyntheticTrace a(smallCfg()), b(smallCfg());
    IoRequest ra, rb;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        EXPECT_EQ(ra.arrival, rb.arrival);
        EXPECT_EQ(ra.isRead, rb.isRead);
        EXPECT_EQ(ra.startPage, rb.startPage);
        EXPECT_EQ(ra.pageCount, rb.pageCount);
    }
}

TEST(Synthetic, ProducesExactlyTotalRequests)
{
    SyntheticTrace t(smallCfg());
    IoRequest r;
    std::uint64_t n = 0;
    while (t.next(r))
        ++n;
    EXPECT_EQ(n, smallCfg().totalRequests);
}

TEST(Synthetic, ArrivalsAreNonDecreasingAndPaced)
{
    SyntheticTrace t(smallCfg());
    IoRequest r;
    sim::Time prev{}, last{};
    while (t.next(r)) {
        EXPECT_GE(r.arrival, prev);
        prev = r.arrival;
        last = r.arrival;
    }
    // Total span should be within a factor of the configured duration.
    EXPECT_GT(last, smallCfg().duration / 4);
    EXPECT_LT(last, smallCfg().duration * 4);
}

TEST(Synthetic, RequestsStayInsideFootprint)
{
    SyntheticTrace t(smallCfg());
    IoRequest r;
    while (t.next(r)) {
        EXPECT_LT(r.startPage, smallCfg().footprintPages);
        EXPECT_LE(r.startPage + r.pageCount, smallCfg().footprintPages);
        EXPECT_GE(r.pageCount, 1u);
    }
}

TEST(Synthetic, ReadRatioConverges)
{
    SyntheticConfig c = smallCfg();
    c.readRatio = 0.75;
    SyntheticTrace t(c);
    IoRequest r;
    std::uint64_t reads = 0, total = 0;
    while (t.next(r)) {
        reads += r.isRead;
        ++total;
    }
    EXPECT_NEAR(double(reads) / double(total), 0.75, 0.03);
}

TEST(Synthetic, MeanReadSizeConverges)
{
    SyntheticConfig c = smallCfg();
    c.readSizePagesMean = 5.0;
    c.maxRequestPages = 256; // avoid clamp bias for this check
    SyntheticTrace t(c);
    IoRequest r;
    double sum = 0;
    std::uint64_t n = 0;
    while (t.next(r)) {
        if (r.isRead) {
            sum += r.pageCount;
            ++n;
        }
    }
    EXPECT_NEAR(sum / double(n), 5.0, 0.6);
}

TEST(Synthetic, WriteRegionConfinesUpdates)
{
    SyntheticConfig c = smallCfg();
    c.writeRegionFraction = 0.25;
    c.readRatio = 0.5;
    SyntheticTrace t(c);
    IoRequest r;
    const auto boundary = static_cast<flash::Lpn>(
        c.footprintPages * (1.0 - c.writeRegionFraction));
    while (t.next(r)) {
        if (!r.isRead) {
            EXPECT_GE(r.startPage, boundary);
        }
    }
}

TEST(Synthetic, SegregatedBurstsAreHomogeneous)
{
    // With segregation, type flips only across long gaps; within a
    // burst (short gaps) the type is constant.
    SyntheticConfig c = smallCfg();
    c.segregateBursts = true;
    c.burstFraction = 0.9;
    c.burstGapScale = 0.001;
    SyntheticTrace t(c);
    IoRequest prev, cur;
    ASSERT_TRUE(t.next(prev));
    const double shortGap = 0.001 *
        (double(c.duration.count()) / double(c.totalRequests));
    std::uint64_t flipsInsideBurst = 0, insideBurst = 0;
    while (t.next(cur)) {
        const double gap = double((cur.arrival - prev.arrival).count());
        if (gap < shortGap * 20) {
            ++insideBurst;
            flipsInsideBurst += cur.isRead != prev.isRead;
        }
        prev = cur;
    }
    ASSERT_GT(insideBurst, 1000u);
    // Essentially no type flips inside bursts (a few from gap aliasing).
    EXPECT_LT(double(flipsInsideBurst) / double(insideBurst), 0.02);
}

TEST(SyntheticDeath, SeventeenSectorsPerPageIsFatal)
{
    // Sub-page requests carry 16-bit sector masks.
    SyntheticConfig c = smallCfg();
    c.subPageFraction = 0.5;
    c.sectorsPerPage = 17;
    EXPECT_EXIT(SyntheticTrace{c}, ::testing::ExitedWithCode(1),
                "sectorsPerPage must be in \\[2, 16\\]");
    c.sectorsPerPage = 16;
    SyntheticTrace ok(c);
}

TEST(Presets, TableIIIHasAllElevenWorkloads)
{
    const auto &ws = paperWorkloads();
    ASSERT_EQ(ws.size(), 11u);
    std::set<std::string> names;
    for (const auto &w : ws)
        names.insert(w.name);
    for (const char *n : {"proj_1", "proj_2", "proj_3", "proj_4", "hm_1",
                          "src1_0", "src1_1", "src2_0", "stg_1", "usr_1",
                          "usr_2"}) {
        EXPECT_TRUE(names.count(n)) << n;
    }
}

TEST(Presets, ParametersDerivedFromPaperTable)
{
    const auto &p = presetByName("proj_1");
    EXPECT_NEAR(p.synth.readRatio, 0.8943, 1e-6);
    EXPECT_NEAR(p.synth.readSizePagesMean, 37.45 / 8.0, 1e-6);
    EXPECT_GT(p.synth.writeSizePagesMean, 0.9);
    EXPECT_NEAR(p.paperMsbInvalidPct, 22.12, 1e-6);
}

TEST(Presets, ExtraWorkloadsSpanReadRatios)
{
    const auto &ws = extraWorkloads();
    ASSERT_EQ(ws.size(), 10u); // nine read-ratio bins + fig10-mix
    EXPECT_NEAR(ws.front().synth.readRatio, 0.50, 1e-9);
    EXPECT_NEAR(ws[8].synth.readRatio, 0.90, 1e-9);
    EXPECT_EQ(ws.back().name, "fig10-mix");
    EXPECT_GT(ws.back().synth.trimFraction, 0.0);
    EXPECT_GT(ws.back().synth.subPageFraction, 0.0);
}

TEST(Presets, ScaledShrinksLengthNotRate)
{
    const auto &p = presetByName("hm_1");
    const auto s = scaled(p, 0.25);
    EXPECT_EQ(s.synth.totalRequests, p.synth.totalRequests / 4);
    EXPECT_EQ(s.synth.duration, p.synth.duration / 4);
    EXPECT_EQ(s.refreshPeriod, p.refreshPeriod / 4);
}

TEST(PresetsDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(presetByName("nope"), ::testing::ExitedWithCode(1),
                "unknown workload");
}

} // namespace
} // namespace ida::workload
