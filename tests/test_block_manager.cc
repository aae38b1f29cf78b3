/**
 * @file
 * Unit tests for FTL block pools, GC victim selection, and refresh
 * candidate enumeration, plus a seeded property test of the age index
 * against a brute-force scan.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "ftl/block_manager.hh"
#include "sim/rng.hh"

namespace ida::ftl {
namespace {

struct Fixture
{
    sim::EventQueue events;
    flash::Geometry geom = [] {
        flash::Geometry g;
        g.channels = 1;
        g.chipsPerChannel = 1;
        g.diesPerChip = 1;
        g.planesPerDie = 2;
        g.blocksPerPlane = 4;
        g.pagesPerBlock = 6;
        g.bitsPerCell = 3;
        return g;
    }();
    flash::ChipArray chips{geom, flash::FlashTiming{},
                           flash::CodingScheme::tlc124(), events};
    BlockManager mgr{geom, chips};

    void
    fill(flash::BlockId b)
    {
        for (std::uint32_t p = 0; p < geom.pagesPerBlock; ++p)
            chips.programImmediate(geom.firstPpnOf(b) + p);
    }
};

TEST(BlockManager, AllBlocksStartFree)
{
    Fixture f;
    EXPECT_EQ(f.mgr.freeCount(0), 4u);
    EXPECT_EQ(f.mgr.freeCount(1), 4u);
    EXPECT_EQ(f.mgr.minFreeCount(), 4u);
    EXPECT_EQ(f.mgr.inUseBlocks(), 0u);
}

TEST(BlockManager, TakeCloseReleaseLifecycle)
{
    Fixture f;
    const flash::BlockId b = f.mgr.takeFree(0);
    EXPECT_EQ(f.mgr.freeCount(0), 3u);
    EXPECT_FALSE(f.mgr.meta(b).inFreePool());

    f.mgr.meta(b).hostActive(true);
    f.fill(b);
    f.mgr.closeActive(b);
    EXPECT_EQ(f.mgr.inUseBlocks(), 1u);

    f.chips.blockTable().erase(b);
    f.mgr.release(b);
    EXPECT_EQ(f.mgr.freeCount(0), 4u);
    EXPECT_EQ(f.mgr.inUseBlocks(), 0u);
    EXPECT_TRUE(f.mgr.meta(b).inFreePool());
}

TEST(BlockManager, TakeFreeComesFromRequestedPlane)
{
    Fixture f;
    const flash::BlockId b0 = f.mgr.takeFree(0);
    const flash::BlockId b1 = f.mgr.takeFree(1);
    EXPECT_EQ(f.geom.planeOfBlock(b0), 0u);
    EXPECT_EQ(f.geom.planeOfBlock(b1), 1u);
}

TEST(BlockManager, GcVictimIsFewestValidThenLeastWorn)
{
    Fixture f;
    // Close three full blocks on plane 0 with different valid counts.
    flash::BlockId ids[3];
    for (int i = 0; i < 3; ++i) {
        ids[i] = f.mgr.takeFree(0);
        f.mgr.meta(ids[i]).hostActive(true);
        f.fill(ids[i]);
        f.mgr.closeActive(ids[i]);
    }
    f.chips.blockTable().invalidate(f.geom.firstPpnOf(ids[0]));
    f.chips.blockTable().invalidate(f.geom.firstPpnOf(ids[1]));
    f.chips.blockTable().invalidate(f.geom.firstPpnOf(ids[1]) + 1);
    // ids[1] has the fewest valid pages.
    flash::BlockId victim;
    ASSERT_TRUE(f.mgr.pickGcVictim(0, victim));
    EXPECT_EQ(victim, ids[1]);
}

TEST(BlockManager, GcVictimSkipsActiveBusyAndPartialBlocks)
{
    Fixture f;
    const flash::BlockId open = f.mgr.takeFree(0);
    f.mgr.meta(open).hostActive(true);
    f.fill(open); // full but still marked active

    const flash::BlockId busy = f.mgr.takeFree(0);
    f.mgr.meta(busy).hostActive(true);
    f.fill(busy);
    f.mgr.closeActive(busy);
    f.mgr.meta(busy).busyWithJob(true);

    const flash::BlockId partial = f.mgr.takeFree(0);
    f.mgr.meta(partial).hostActive(true);
    f.chips.programImmediate(f.geom.firstPpnOf(partial));
    f.mgr.closeActive(partial); // closed but not full (edge case)

    flash::BlockId victim;
    EXPECT_FALSE(f.mgr.pickGcVictim(0, victim));
}

TEST(BlockManager, RefreshCandidatesRespectAgeAndValidity)
{
    Fixture f;
    const flash::BlockId young = f.mgr.takeFree(0);
    f.mgr.meta(young).hostActive(true);
    f.fill(young);
    f.mgr.closeActive(young);
    f.mgr.setRefreshedAt(young, sim::Time{900});

    const flash::BlockId old1 = f.mgr.takeFree(0);
    f.mgr.meta(old1).hostActive(true);
    f.fill(old1);
    f.mgr.closeActive(old1);
    f.mgr.setRefreshedAt(old1, sim::Time{});

    const flash::BlockId empty = f.mgr.takeFree(1);
    f.mgr.meta(empty).hostActive(true);
    f.fill(empty);
    f.mgr.closeActive(empty);
    f.mgr.setRefreshedAt(empty, sim::Time{});
    // Nothing valid is left to protect.
    for (std::uint32_t p = 0; p < f.geom.pagesPerBlock; ++p)
        f.chips.blockTable().invalidate(f.geom.firstPpnOf(empty) + p);

    const auto cands = f.mgr.refreshCandidates(sim::Time{1000}, sim::Time{500});
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0], old1);
}

TEST(BlockManager, EqualAgesComeOutInAscendingBlockIdOrder)
{
    Fixture f;
    // Close four full blocks in descending id order, all the same age.
    std::vector<flash::BlockId> ids;
    for (std::uint64_t plane = 0; plane < 2; ++plane) {
        for (int i = 0; i < 2; ++i)
            ids.push_back(f.mgr.takeFree(plane));
    }
    std::sort(ids.rbegin(), ids.rend());
    for (const flash::BlockId b : ids) {
        f.mgr.meta(b).hostActive(true);
        f.mgr.setRefreshedAt(b, sim::Time{});
        f.fill(b);
        f.mgr.closeActive(b);
    }
    std::vector<flash::BlockId> oldest(ids.size());
    ASSERT_EQ(f.mgr.oldestRefreshCandidates(sim::kSec, sim::kSec, oldest),
              ids.size());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(oldest, ids);

    // Re-keying to an equal age keeps the id order too.
    f.mgr.setRefreshedAt(ids.front(), sim::Time{});
    ASSERT_EQ(f.mgr.oldestRefreshCandidates(sim::kSec, sim::kSec, oldest),
              ids.size());
    EXPECT_EQ(oldest, ids);
}

/** A larger device for the property test: 4 planes x 16 blocks. */
struct PropertyFixture
{
    sim::EventQueue events;
    flash::Geometry geom = [] {
        flash::Geometry g;
        g.channels = 1;
        g.chipsPerChannel = 1;
        g.diesPerChip = 2;
        g.planesPerDie = 2;
        g.blocksPerPlane = 16;
        g.pagesPerBlock = 6;
        g.bitsPerCell = 3;
        return g;
    }();
    flash::ChipArray chips{geom, flash::FlashTiming{},
                           flash::CodingScheme::tlc124(), events};
    BlockManager mgr{geom, chips};

    bool
    active(flash::BlockId b) const
    {
        const auto m = mgr.meta(b);
        return m.hostActive() || m.internalActive();
    }

    bool
    closed(flash::BlockId b) const
    {
        return !mgr.meta(b).inFreePool() && !active(b);
    }

    void
    program(flash::BlockId b, std::uint32_t pages)
    {
        const flash::Block blk = chips.block(b);
        for (std::uint32_t i = 0; i < pages && !blk.isFull(); ++i)
            chips.programImmediate(geom.firstPpnOf(b) + blk.writePointer());
    }

    /** The scan the age index replaced: every block, ascending ids. */
    std::vector<flash::BlockId>
    flatScan(sim::Time now, sim::Time period) const
    {
        std::vector<flash::BlockId> out;
        for (flash::BlockId b = 0; b < geom.blocks(); ++b) {
            const auto m = mgr.meta(b);
            if (m.inFreePool() || active(b) || m.busyWithJob())
                continue;
            if (now - m.refreshedAt() < period)
                continue;
            const auto &blk = chips.block(b);
            if (blk.isFull() && blk.validCount() != 0)
                out.push_back(b);
        }
        return out;
    }
};

TEST(BlockManagerProperty, AgeIndexMatchesFlatScanOverRandomLifecycles)
{
    PropertyFixture f;
    sim::Rng rng(20261017);
    const sim::Time period = 10 * sim::kSec;
    // Ages come from 40 whole seconds, so equal ages are common.
    auto randomAge = [&rng] {
        return static_cast<std::int64_t>(rng.uniformInt(0, 39)) * sim::kSec;
    };
    auto pick = [&](auto &&want) -> std::optional<flash::BlockId> {
        std::vector<flash::BlockId> ok;
        for (flash::BlockId b = 0; b < f.geom.blocks(); ++b) {
            if (want(b))
                ok.push_back(b);
        }
        if (ok.empty())
            return std::nullopt;
        return ok[rng.uniformInt(0, ok.size() - 1)];
    };
    auto isActive = [&f](flash::BlockId b) { return f.active(b); };
    auto isClosed = [&f](flash::BlockId b) { return f.closed(b); };

    constexpr int kOps = 12000;
    for (int op = 0; op < kOps; ++op) {
        const std::uint64_t kind = rng.uniformInt(0, 8);
        if (kind == 0) { // take a free block and open it
            const std::uint64_t plane =
                rng.uniformInt(0, f.geom.planes() - 1);
            if (f.mgr.freeCount(plane) != 0) {
                const flash::BlockId b = f.mgr.takeFree(plane);
                if (rng.chance(0.5))
                    f.mgr.meta(b).hostActive(true);
                else
                    f.mgr.meta(b).internalActive(true);
                f.mgr.setRefreshedAt(b, randomAge());
                f.program(b, static_cast<std::uint32_t>(
                                 rng.uniformInt(0, f.geom.pagesPerBlock)));
            }
        } else if (kind == 1) { // fill an open block
            const auto b = pick(isActive);
            if (b)
                f.program(*b, f.geom.pagesPerBlock);
        } else if (kind == 2) { // close an open block (full or not)
            const auto b = pick(isActive);
            if (b)
                f.mgr.closeActive(*b);
        } else if (kind == 3) { // set the age of an open or closed block
            const auto b = pick([&](flash::BlockId x) {
                return !f.mgr.meta(x).inFreePool();
            });
            if (b)
                f.mgr.setRefreshedAt(*b, randomAge());
        } else if (kind == 4) { // start or finish a job on a closed block
            const auto b = pick(isClosed);
            if (b) {
                auto m = f.mgr.meta(*b);
                m.busyWithJob(!m.busyWithJob());
            }
        } else if (kind == 5) { // invalidate one page of a closed block
            const auto b = pick([&](flash::BlockId x) {
                return f.closed(x) && f.chips.block(x).validCount() != 0;
            });
            if (b) {
                const flash::Block blk = f.chips.block(*b);
                for (std::uint32_t p = 0; p < f.geom.pagesPerBlock; ++p) {
                    if (blk.isValid(p)) {
                        f.chips.blockTable().invalidate(
                            f.geom.firstPpnOf(*b) + p);
                        break;
                    }
                }
            }
        } else if (kind == 6) { // empty a closed block
            const auto b = pick(isClosed);
            if (b) {
                const flash::Block blk = f.chips.block(*b);
                for (std::uint32_t p = 0; p < f.geom.pagesPerBlock; ++p) {
                    if (blk.isValid(p))
                        f.chips.blockTable().invalidate(
                            f.geom.firstPpnOf(*b) + p);
                }
            }
        } else if (kind == 7) { // erase and release a closed block
            const auto b = pick(isClosed);
            if (b) {
                f.chips.blockTable().erase(*b);
                f.mgr.release(*b);
            }
        } else if (rng.chance(0.05)) { // bulk load, as a preload does
            f.mgr.deferAgeIndex();
            for (flash::BlockId b = 0; b < f.geom.blocks(); ++b) {
                if (f.active(b) && rng.chance(0.5))
                    f.mgr.closeActive(b);
            }
            f.mgr.restampAges([&](flash::BlockId) { return randomAge(); });
        }

        const sim::Time now =
            static_cast<std::int64_t>(rng.uniformInt(0, 59)) * sim::kSec;
        const auto flat = f.flatScan(now, period);
        ASSERT_EQ(f.mgr.refreshCandidates(now, period), flat)
            << "op " << op;

        auto oldest = flat;
        std::stable_sort(oldest.begin(), oldest.end(),
                         [&](flash::BlockId a, flash::BlockId b) {
                             return f.mgr.meta(a).refreshedAt() <
                                    f.mgr.meta(b).refreshedAt();
                         });
        std::vector<flash::BlockId> got(f.geom.blocks());
        got.resize(f.mgr.oldestRefreshCandidates(now, period, got));
        ASSERT_EQ(got, oldest) << "op " << op;

        // A short (or empty) span returns the same order, cut at its
        // size.
        std::vector<flash::BlockId> prefix(rng.uniformInt(0, 4));
        prefix.resize(f.mgr.oldestRefreshCandidates(now, period, prefix));
        oldest.resize(std::min(oldest.size(), prefix.size()));
        ASSERT_EQ(prefix, oldest) << "op " << op;
    }
}

TEST(BlockManagerDeath, RefreshQueryWhileAgeIndexDeferredPanics)
{
    Fixture f;
    f.mgr.deferAgeIndex();
    EXPECT_DEATH(f.mgr.refreshCandidates(sim::kSec, sim::kSec), "deferred");
}

TEST(BlockManagerDeath, ReleaseUnerasedBlockPanics)
{
    Fixture f;
    const flash::BlockId b = f.mgr.takeFree(0);
    f.mgr.meta(b).hostActive(true);
    f.fill(b);
    f.mgr.closeActive(b);
    EXPECT_DEATH(f.mgr.release(b), "not erased");
}

TEST(BlockManagerDeath, ExhaustedPlaneIsFatal)
{
    Fixture f;
    for (int i = 0; i < 4; ++i)
        f.mgr.takeFree(0);
    EXPECT_EXIT(f.mgr.takeFree(0), ::testing::ExitedWithCode(1),
                "out of free blocks");
}

} // namespace
} // namespace ida::ftl
