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

/** FNV-1a over every field of every request of one whole stream. */
std::uint64_t
streamChecksum(const SyntheticConfig &cfg)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    SyntheticTrace t(cfg);
    IoRequest r;
    while (t.next(r)) {
        mix(static_cast<std::uint64_t>(r.arrival.count()));
        mix(r.isRead);
        mix(r.isTrim);
        mix(r.startPage);
        mix(r.pageCount);
        mix(r.startSector);
        mix(r.sectorCount);
    }
    return h;
}

TEST(Synthetic, StreamChecksumsArePinned)
{
    // Every figure and golden replays these streams, so a faster draw
    // must return the same values for the same state. Each preset runs
    // at its own seed and at the prewrite pass's seed (seed ^ 0x5eed).
    struct Pin
    {
        const char *preset;
        std::uint64_t atSeed, atPrewriteSeed;
    };
    for (const Pin &pin : {
             Pin{"proj_1", 0xddde7c5af38bc663ull, 0x3486aa04225d75a1ull},
             Pin{"src1_0", 0x25280afb997353ccull, 0xf44dee6ef1d005d5ull},
             Pin{"fig10-mix", 0x6a68b6f26af87960ull, 0x6698e6b2f32cdb81ull},
         }) {
        SyntheticConfig c = presetByName(pin.preset).synth;
        EXPECT_EQ(streamChecksum(c), pin.atSeed) << pin.preset;
        c.seed ^= 0x5eedu;
        EXPECT_EQ(streamChecksum(c), pin.atPrewriteSeed) << pin.preset;
    }
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

TEST(SyntheticDeath, MaxRequestPagesOutsideFootprintIsFatal)
{
    // A request larger than the footprint once wrapped startPage below 0.
    SyntheticConfig c = smallCfg();
    c.footprintPages = 20;
    EXPECT_EXIT(SyntheticTrace{c}, ::testing::ExitedWithCode(1),
                "maxRequestPages must be in \\[1, footprintPages\\]");
    c.maxRequestPages = 0;
    EXPECT_EXIT(SyntheticTrace{c}, ::testing::ExitedWithCode(1),
                "maxRequestPages must be in \\[1, footprintPages\\]");
}

TEST(SyntheticDeath, BurstFractionOutsideUnitIntervalIsFatal)
{
    SyntheticConfig c = smallCfg();
    for (double bf : {-0.1, 1.5}) {
        c.burstFraction = bf;
        EXPECT_EXIT(SyntheticTrace{c}, ::testing::ExitedWithCode(1),
                    "burstFraction must be in \\[0, 1\\]");
    }
}

TEST(SyntheticDeath, NegativeBurstGapScaleIsFatal)
{
    SyntheticConfig c = smallCfg();
    c.burstGapScale = -0.01;
    EXPECT_EXIT(SyntheticTrace{c}, ::testing::ExitedWithCode(1),
                "burstGapScale must be >= 0");
}

TEST(SyntheticDeath, NegativeLongGapMeanIsFatal)
{
    // 0.95 * 2.0 > 1 once sent arrivals backwards.
    SyntheticConfig c = smallCfg();
    c.burstFraction = 0.95;
    c.burstGapScale = 2.0;
    EXPECT_EXIT(SyntheticTrace{c}, ::testing::ExitedWithCode(1),
                "burstFraction \\* burstGapScale must be <= 1");
}

TEST(SyntheticDeath, NonPositiveMeanSizeIsFatal)
{
    // The lognormal size draw takes log(mean).
    SyntheticConfig c = smallCfg();
    c.writeSizePagesMean = 0.0;
    EXPECT_EXIT(SyntheticTrace{c}, ::testing::ExitedWithCode(1),
                "writeSizePagesMean must be > 0");
}

TEST(SyntheticDeath, FootprintAboveMaxPagesIsFatal)
{
    SyntheticConfig c = smallCfg();
    c.footprintPages = flash::kMaxPages + 1;
    EXPECT_EXIT(SyntheticTrace{c}, ::testing::ExitedWithCode(1),
                "footprintPages must be at most 4294967294");
}

TEST(Synthetic, EdgeOfContractKeepsTheStreamValid)
{
    // Requests as large as the footprint, and burstFraction *
    // burstGapScale on its bound: 0.9 * (1 / 0.9) rounds to 1, while the
    // long-gap mean computes to -9e-9 ns before it is clamped to 0.
    SyntheticConfig c = smallCfg();
    c.footprintPages = 20;
    c.maxRequestPages = 20;
    c.readSizePagesMean = 16.0;
    c.burstFraction = 0.9;
    c.burstGapScale = 1.0 / 0.9;
    SyntheticTrace t(c);
    IoRequest r;
    sim::Time prev{};
    while (t.next(r)) {
        EXPECT_GE(r.arrival, prev);
        EXPECT_LE(r.startPage + r.pageCount, c.footprintPages);
        prev = r.arrival;
    }
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
