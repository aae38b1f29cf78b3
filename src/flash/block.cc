#include "flash/block.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ida::flash {

BlockTable::BlockTable(const Geometry &geom)
    : pagesPerBlock_(geom.pagesPerBlock),
      bits_(geom.bitsPerCell),
      wordlinesPerBlock_(geom.wordlinesPerBlock()),
      fullSectorMask_(geom.fullSectorMask()),
      fullLevelMask_(fullMask(static_cast<int>(geom.bitsPerCell))),
      wlMask_(geom.pages() / bits_, fullLevelMask_),
      wlInvalid_(geom.pages() / bits_),
      records_(geom.blocks()),
      sectorValid_(geom.pages())
{
}

std::uint32_t
BlockTable::programNext(BlockId b, sim::Time now, SectorMask sectors)
{
    BlockRecord &r = records_[b];
    if (r.writePtr == pagesPerBlock_)
        sim::panic("BlockTable::programNext: block is full");
    if (sectors == 0)
        sectors = fullSectorMask_;
    if ((sectors & ~fullSectorMask_) != 0)
        sim::panic("BlockTable::programNext: sector mask exceeds page");
    const std::uint32_t page = r.writePtr++;
    sectorValid_[b * pagesPerBlock_ + page] = sectors;
    ++r.validCount;
    if (page == 0)
        r.programTime = now;
    return page;
}

void
BlockTable::killPage(Ppn p)
{
    sectorValid_[p] = 0;
    wlInvalid_[p / bits_] |= static_cast<LevelMask>(1u << (p % bits_));
    --records_[p / pagesPerBlock_].validCount;
}

void
BlockTable::invalidate(Ppn p)
{
    if (!block(p / pagesPerBlock_).isValid(p % pagesPerBlock_))
        sim::panic("BlockTable::invalidate: page is not valid");
    killPage(p);
}

bool
BlockTable::invalidateSectors(Ppn p, SectorMask sectors)
{
    if (!block(p / pagesPerBlock_).isValid(p % pagesPerBlock_))
        sim::panic("BlockTable::invalidateSectors: page is not valid");
    if ((sectors & ~fullSectorMask_) != 0)
        sim::panic("BlockTable::invalidateSectors: sector mask exceeds "
                   "page");
    sectorValid_[p] &= static_cast<SectorMask>(~sectors);
    if (sectorValid_[p] != 0)
        return false;
    killPage(p);
    return true;
}

void
BlockTable::applyIda(BlockId b, std::uint32_t wl, LevelMask validMask)
{
    if (validMask == 0 || validMask >= fullLevelMask_)
        sim::panic("BlockTable::applyIda: mask must drop at least one "
                   "level");
    const Block blk = block(b);
    for (std::uint32_t level = 0; level < bits_; ++level) {
        const PageState st = blk.pageState(wl * bits_ + level);
        if (st == PageState::Free)
            sim::panic("BlockTable::applyIda: wordline not fully "
                       "programmed");
        const bool levelValid = (validMask >> level) & 1;
        if (!levelValid && st == PageState::Valid)
            sim::panic("BlockTable::applyIda: would destroy a valid page");
    }
    // Tightening an already-IDA wordline further (e.g. CSB invalidated
    // after an LSB-invalid adjustment) is allowed: the new mask must be
    // a subset of the old one, so states only keep moving up.
    LevelMask &mask = wlMask_[b * wordlinesPerBlock_ + wl];
    if ((mask & validMask) != validMask)
        sim::panic("BlockTable::applyIda: mask must shrink monotonically");
    mask = validMask;
    records_[b].idaBlock = true;
}

void
BlockTable::erase(BlockId b)
{
    std::fill_n(&sectorValid_[b * pagesPerBlock_], pagesPerBlock_,
                SectorMask{0});
    const std::uint64_t wl = b * wordlinesPerBlock_;
    std::fill_n(&wlMask_[wl], wordlinesPerBlock_, fullLevelMask_);
    std::fill_n(&wlInvalid_[wl], wordlinesPerBlock_, LevelMask{0});
    BlockRecord &r = records_[b];
    r.writePtr = 0;
    r.validCount = 0;
    ++r.eraseCount;
    r.idaBlock = false;
    r.programTime = sim::Time{};
}

int
Block::readSensings(std::uint32_t page, const CodingScheme &scheme) const
{
    if (!isValid(page))
        sim::panic("Block::readSensings: reading a non-valid page");
    const int level = static_cast<int>(page % bitsPerCell());
    const LevelMask mask = wordlineMask(page / bitsPerCell());
    if (mask == t_->fullLevelMask_)
        return scheme.sensingCount(level);
    return scheme.idaMerge(mask).sensingCounts[level];
}

LevelMask
Block::recomputeInvalidMask(std::uint32_t wl) const
{
    LevelMask mask = 0;
    for (std::uint32_t level = 0; level < bitsPerCell(); ++level) {
        if (pageState(wl * bitsPerCell() + level) == PageState::Invalid)
            mask |= static_cast<LevelMask>(1u << level);
    }
    return mask;
}

int
Block::tableICase(std::uint32_t wl) const
{
    if (bitsPerCell() != 3)
        return 0;
    bool v[3];
    for (std::uint32_t level = 0; level < 3; ++level) {
        const PageState st = pageState(wl * 3 + level);
        if (st == PageState::Free)
            return 0;
        v[level] = st == PageState::Valid;
    }
    // Table I: cases 1-4 have MSB valid with (LSB, CSB) =
    // (V,V), (I,V), (V,I), (I,I); cases 5-8 repeat that with MSB invalid.
    const int low = (v[0] ? 0 : 1) + (v[1] ? 0 : 2);
    return (v[2] ? 1 : 5) + low;
}

} // namespace ida::flash
