/**
 * @file
 * System-level property tests: randomized end-to-end runs across device
 * configurations, checking invariants that must hold regardless of
 * workload, coding scheme, error rate, or optional features.
 */
#include <gtest/gtest.h>

#include <ostream>

#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace ida {
namespace {

struct SystemCase
{
    const char *name;
    bool ida;
    double errorRate;
    bool suspension;
    std::uint32_t wbufPages;
    double readRatio;
    std::uint64_t seed;
};

/**
 * Print a case by name. Without this gtest dumps the raw object bytes,
 * which hold a string address that moves with ASLR and uninitialised
 * padding, so the listed test names would differ on every run.
 */
void
PrintTo(const SystemCase &c, std::ostream *os)
{
    *os << c.name;
}

class SystemProperty : public ::testing::TestWithParam<SystemCase>
{
};

TEST_P(SystemProperty, EndToEndInvariants)
{
    const SystemCase &c = GetParam();
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.ftl.enableIda = c.ida;
    cfg.adjustErrorRate = c.errorRate;
    cfg.timing.programSuspension = c.suspension;
    cfg.ftl.writeBuffer.capacityPages = c.wbufPages;
    cfg.ftl.refreshPeriod = 40 * sim::kSec;
    cfg.ftl.refreshCheckInterval = sim::kSec;
    cfg.seed = c.seed;

    ssd::Ssd dev(cfg);
    workload::SyntheticConfig wc;
    wc.footprintPages = dev.logicalPages() / 2;
    wc.totalRequests = 5000;
    wc.duration = 100 * sim::kSec;
    wc.readRatio = c.readRatio;
    wc.readSizePagesMean = 2.5;
    wc.writeSizePagesMean = 1.5;
    wc.seed = c.seed * 7 + 1;
    workload::SyntheticTrace trace(wc);

    dev.preloadSequential(wc.footprintPages);
    std::uint64_t submittedReads = 0, submittedWrites = 0;
    workload::IoRequest r;
    while (trace.next(r)) {
        ssd::HostRequest hr;
        hr.arrival = r.arrival;
        hr.isRead = r.isRead;
        hr.startPage = r.startPage % wc.footprintPages;
        hr.pageCount = r.pageCount;
        if (hr.startPage + hr.pageCount > wc.footprintPages)
            hr.startPage = wc.footprintPages - hr.pageCount;
        (hr.isRead ? submittedReads : submittedWrites) += 1;
        dev.submit(hr);
    }
    dev.start();
    dev.events().runUntil(wc.duration);
    const sim::Time limit = dev.events().now() + 20 * sim::kMin;
    while (!dev.drained() && dev.events().now() < limit)
        dev.events().runUntil(dev.events().now() + sim::kSec);

    // (1) Everything submitted completed (no lost requests).
    ASSERT_TRUE(dev.drained()) << c.name;
    EXPECT_EQ(dev.stats().readRequests, submittedReads);
    EXPECT_EQ(dev.stats().writeRequests, submittedWrites);

    // (2) Response-time sanity: no read below the DRAM floor, none
    //     absurdly large, p99 >= mean.
    if (submittedReads > 0) {
        EXPECT_GT(dev.stats().readResponseUs.mean(), 0.0);
        EXPECT_LT(dev.stats().readResponseUs.max(), 1e6);
        EXPECT_GE(dev.stats().readHist.quantile(0.99) * 1.0001,
                  dev.stats().readResponseUs.mean() * 0.5);
    }

    // (3) Mapping/back-pointer consistency over the whole device.
    const auto &geom = dev.config().geometry;
    const auto &map = dev.ftl().mapping();
    std::uint64_t valid = 0;
    for (std::uint64_t b = 0; b < geom.blocks(); ++b) {
        const auto &blk = dev.chips().block(b);
        for (std::uint32_t p = 0; p < geom.pagesPerBlock; ++p) {
            const flash::Ppn ppn = geom.firstPpnOf(b) + p;
            if (blk.pageState(p) == flash::PageState::Valid) {
                ++valid;
                const flash::Lpn lpn = map.reverse(ppn);
                ASSERT_NE(lpn, flash::kInvalidLpn) << c.name;
                EXPECT_EQ(map.lookup(lpn), ppn);
            } else {
                EXPECT_EQ(map.reverse(ppn), flash::kInvalidLpn) << c.name;
            }
        }
    }
    EXPECT_EQ(valid, map.mappedCount()) << c.name;

    // (4) Flash-level conservation: every erase matched by a prior
    //     full-block worth of state, erase counters consistent.
    std::uint64_t erases = 0;
    for (std::uint64_t b = 0; b < geom.blocks(); ++b)
        erases += dev.chips().block(b).eraseCount();
    EXPECT_EQ(erases, dev.chips().stats().erases) << c.name;

    // (5) IDA-specific: every IDA wordline's masked-out levels hold no
    //     valid page.
    for (std::uint64_t b = 0; b < geom.blocks(); ++b) {
        const auto &blk = dev.chips().block(b);
        for (std::uint32_t wl = 0; wl < geom.wordlinesPerBlock(); ++wl) {
            const auto mask = blk.wordlineMask(wl);
            if (mask == flash::fullMask(int(geom.bitsPerCell)))
                continue;
            for (std::uint32_t lvl = 0; lvl < geom.bitsPerCell; ++lvl) {
                if (!((mask >> lvl) & 1)) {
                    EXPECT_NE(blk.pageState(geom.pageOfWordline(wl, lvl)),
                              flash::PageState::Valid)
                        << c.name;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SystemProperty,
    ::testing::Values(
        SystemCase{"baseline_r7", false, 0.0, false, 0, 0.7, 31},
        SystemCase{"baseline_writeheavy", false, 0.0, false, 0, 0.3, 32},
        SystemCase{"ida_e0", true, 0.0, false, 0, 0.7, 33},
        SystemCase{"ida_e20", true, 0.2, false, 0, 0.7, 34},
        SystemCase{"ida_e80", true, 0.8, false, 0, 0.7, 35},
        SystemCase{"ida_e100", true, 1.0, false, 0, 0.6, 36},
        SystemCase{"ida_suspension", true, 0.2, true, 0, 0.7, 37},
        SystemCase{"ida_wbuf", true, 0.2, false, 256, 0.7, 38},
        SystemCase{"ida_all_features", true, 0.2, true, 256, 0.5, 39},
        SystemCase{"baseline_suspension", false, 0.0, true, 0, 0.6, 40}),
    [](const auto &info) { return std::string(info.param.name); });

// ---- Determinism across the matrix. --------------------------------------

TEST(SystemDeterminism, TwoIdenticalRunsAgreeExactly)
{
    auto once = [] {
        ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
        cfg.ftl.enableIda = true;
        cfg.adjustErrorRate = 0.2;
        cfg.ftl.refreshPeriod = 30 * sim::kSec;
        cfg.ftl.refreshCheckInterval = sim::kSec;
        ssd::Ssd dev(cfg);
        workload::SyntheticConfig wc;
        wc.footprintPages = dev.logicalPages() / 3;
        wc.totalRequests = 3000;
        wc.duration = 60 * sim::kSec;
        wc.seed = 5;
        workload::SyntheticTrace trace(wc);
        dev.preloadSequential(wc.footprintPages);
        workload::IoRequest r;
        while (trace.next(r)) {
            ssd::HostRequest hr;
            hr.arrival = r.arrival;
            hr.isRead = r.isRead;
            hr.startPage = r.startPage % wc.footprintPages;
            hr.pageCount = 1;
            dev.submit(hr);
        }
        dev.start();
        dev.events().runUntil(wc.duration + 10 * sim::kMin);
        return std::make_tuple(dev.stats().readResponseUs.mean(),
                               dev.stats().readResponseUs.count(),
                               dev.ftl().stats().refresh.extraWrites,
                               dev.chips().stats().programs);
    };
    EXPECT_EQ(once(), once());
}

} // namespace
} // namespace ida
