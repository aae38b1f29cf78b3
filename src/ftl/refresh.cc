#include "ftl/refresh.hh"

#include <bit>

#include "ftl/ftl.hh"
#include "sim/log.hh"

namespace ida::ftl {

RefreshJob::RefreshJob(Ftl &ftl, flash::BlockId target)
    : ftl_(ftl), target_(target)
{
}

flash::LevelMask
RefreshJob::idaMaskOf(std::uint32_t wl) const
{
    const auto &geom = ftl_.chips().geometry();
    const auto &blk = ftl_.chips().block(target_);
    flash::LevelMask mask = 0;
    for (int level = static_cast<int>(geom.bitsPerCell) - 1; level >= 1;
         --level) {
        const std::uint32_t page =
            geom.pageOfWordline(wl, static_cast<std::uint32_t>(level));
        if (!blk.isValid(page))
            break;
        mask |= static_cast<flash::LevelMask>(1u << level);
    }
    // An empty mask means the MSB itself is invalid: cases 5-8, no IDA.
    return mask;
}

void
RefreshJob::start()
{
    if (phase_ != Phase::Idle)
        sim::panic("RefreshJob::start: already started");
    ftl_.blocks().meta(target_).busyWithJob(true);
    phase_ = Phase::ReadAll;
    const auto &geom = ftl_.chips().geometry();
    const auto &blk = ftl_.chips().block(target_);
    validAtStart_ = blk.validCount();
    const flash::Ppn base = geom.firstPpnOf(target_);
    for (std::uint32_t p = 0; p < geom.pagesPerBlock; ++p) {
        if (!blk.isValid(p))
            continue;
        ++pending_;
        // Partially invalid pages transfer only their valid sectors.
        ftl_.chips().readPage(
            base + p, 0, [this](sim::Time) { opDone(); },
            flash::kInvalidLpn,
            static_cast<std::uint32_t>(std::popcount(blk.sectorMask(p))));
    }
    if (pending_ == 0)
        advance();
}

void
RefreshJob::classify()
{
    const auto &geom = ftl_.chips().geometry();
    const auto &blk = ftl_.chips().block(target_);
    const flash::Ppn base = geom.firstPpnOf(target_);
    const auto &cfg = ftl_.config();

    const bool idaAllowed = cfg.enableIda &&
        !ftl_.blocks().meta(target_).forceMigrateNextRefresh();

    for (std::uint32_t wl = 0; wl < geom.wordlinesPerBlock(); ++wl) {
        std::vector<flash::Ppn> validHere;
        for (std::uint32_t level = 0; level < geom.bitsPerCell; ++level) {
            const std::uint32_t p = geom.pageOfWordline(wl, level);
            if (blk.isValid(p))
                validHere.push_back(base + p);
        }
        if (validHere.empty())
            continue; // Table I case 8: nothing to do

        flash::LevelMask mask = idaAllowed ? idaMaskOf(wl) : 0;
        if (mask != 0 && !cfg.idaHandleCases13) {
            // Ablation: only naturally LSB-invalid wordlines (cases 2/4)
            // are IDA targets; if any valid page would need moving,
            // fall back to plain migration of the whole wordline.
            for (flash::Ppn p : validHere) {
                const auto level = static_cast<std::uint32_t>(
                    p % geom.bitsPerCell);
                if (!((mask >> level) & 1)) {
                    mask = 0;
                    break;
                }
            }
        }

        if (mask == 0) {
            // Cases 5-7 (or IDA disabled): migrate everything valid.
            for (flash::Ppn p : validHere)
                toMove_.push_back(p);
            continue;
        }

        applyIda_ = true;
        toAdjust_.emplace_back(wl, mask);
        for (flash::Ppn p : validHere) {
            const auto level =
                static_cast<std::uint32_t>(p % geom.bitsPerCell);
            if ((mask >> level) & 1)
                targets_.push_back(p); // stays in place, IDA-read later
            else
                toMove_.push_back(p);  // e.g. the valid LSB of case 1/3
        }
    }
}

void
RefreshJob::opDone()
{
    if (pending_ == 0)
        sim::panic("RefreshJob::opDone: no pending operations");
    if (--pending_ == 0)
        advance();
}

void
RefreshJob::advance()
{
    auto &chips = ftl_.chips();
    auto &stats = ftl_.mutableStats().refresh;

    switch (phase_) {
      case Phase::ReadAll: {
        phase_ = Phase::Migrate;
        classify();
        const auto &geom = chips.geometry();
        if (ftl_.config().moveToLsbAlternative) {
            // The rejected alternative: buffer every page, tagging the
            // would-be-IDA CSB/MSB pages as wanting fast LSB slots, and
            // let the flush pair them with the internal block's slots.
            for (flash::Ppn p : toMove_) {
                const bool wantFast =
                    geom.levelOfPage(static_cast<std::uint32_t>(
                        p % geom.pagesPerBlock)) > 0;
                if (ftl_.queueMigration(p, wantFast,
                                        [this](sim::Time) { opDone(); })) {
                    ++pending_;
                    ++stats.migratedPages;
                }
            }
            ftl_.flushMigrations(geom.planeOfBlock(target_));
        } else {
            for (flash::Ppn p : toMove_) {
                if (ftl_.migrateValidPage(
                        p, [this](sim::Time) { opDone(); })) {
                    ++pending_;
                    ++stats.migratedPages;
                }
            }
        }
        if (pending_ == 0)
            advance();
        break;
      }
      case Phase::Migrate: {
        phase_ = Phase::Adjust;
        for (const auto &[wl, mask] : toAdjust_) {
            ++pending_;
            ++stats.adjustedWordlines;
            chips.adjustWordline(target_, wl, mask,
                                 [this](sim::Time) { opDone(); });
        }
        if (pending_ == 0)
            advance();
        break;
      }
      case Phase::Adjust: {
        phase_ = Phase::Verify;
        const auto &blk = chips.block(target_);
        const auto &geom = chips.geometry();
        for (flash::Ppn p : targets_) {
            const auto page =
                static_cast<std::uint32_t>(p % geom.pagesPerBlock);
            if (!blk.isValid(page))
                continue; // host invalidated it meanwhile
            ++pending_;
            ++stats.extraReads;
            chips.readPage(p, 0, [this](sim::Time) { opDone(); },
                           flash::kInvalidLpn,
                           static_cast<std::uint32_t>(
                               std::popcount(blk.sectorMask(page))));
        }
        if (pending_ == 0)
            advance();
        break;
      }
      case Phase::Verify: {
        phase_ = Phase::WriteBack;
        const auto &geom = chips.geometry();
        for (flash::Ppn p : targets_) {
            const auto page =
                static_cast<std::uint32_t>(p % geom.pagesPerBlock);
            if (!chips.block(target_).isValid(page))
                continue;
            if (!ftl_.ecc().adjustDisturbs(ftl_.rng()))
                continue;
            // Disturbed beyond in-place use: persist the error-free
            // copy (still held in controller DRAM) in the new block.
            if (ftl_.migrateValidPage(p, [this](sim::Time) { opDone(); })) {
                ++pending_;
                ++stats.extraWrites;
            }
        }
        if (pending_ == 0)
            advance();
        break;
      }
      case Phase::WriteBack: {
        phase_ = Phase::Finish;
        stats.validPages += validAtStart_;
        stats.targetPages += targets_.size();
        ++stats.refreshes;
        if (applyIda_)
            ++stats.idaRefreshes;
        else
            ++stats.baselineRefreshes;
        finish(applyIda_);
        break;
      }
      default:
        sim::panic("RefreshJob::advance: bad phase");
    }
}

void
RefreshJob::finish(bool applied_ida)
{
    auto &chips = ftl_.chips();
    auto meta = ftl_.blocks().meta(target_);

    if (chips.block(target_).validCount() == 0) {
        // Everything was migrated (baseline flow, or IDA with every kept
        // page disturbed): reclaim the block right away.
        meta.busyWithJob(false);
        ftl_.eraseAndRelease(target_, [this] {
            finished_ = true;
            ftl_.onRefreshFinished(target_);
        });
        return;
    }

    if (!applied_ida)
        sim::panic("RefreshJob: baseline refresh left valid pages behind");

    // The target block lives on as an IDA block; force plain migration
    // on its next refresh cycle so it is eventually reclaimed
    // (paper Sec. III-C, "After the Data Refresh").
    meta.busyWithJob(false);
    meta.forceMigrateNextRefresh(true);
    ftl_.blocks().setRefreshedAt(target_, chips.now());
    finished_ = true;
    ftl_.onRefreshFinished(target_);
}

} // namespace ida::ftl
