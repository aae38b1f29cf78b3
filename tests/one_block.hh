/**
 * @file
 * A one-block flash::BlockTable for unit tests of per-block state.
 */
#pragma once

#include <cstdint>

#include "flash/block.hh"

namespace ida::flash::testing {

/** One TLC block of @p pages pages (16 sectors each). */
struct OneBlock
{
    static Geometry
    shape(std::uint32_t pages)
    {
        Geometry g;
        g.channels = g.chipsPerChannel = g.diesPerChip = g.planesPerDie = 1;
        g.blocksPerPlane = 1;
        g.pagesPerBlock = pages;
        return g;
    }

    explicit OneBlock(std::uint32_t pages) : table(shape(pages)) {}

    Block view() const { return table.block(0); }

    BlockTable table;
};

} // namespace ida::flash::testing
