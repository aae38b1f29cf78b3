/**
 * @file
 * Page-level address translation: logical-to-physical (L2P) and the
 * physical-to-logical (P2L) inverse needed by GC and refresh migration.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "flash/geometry.hh"

namespace ida::ftl {

using flash::Lpn;
using flash::Ppn;
using flash::kInvalidLpn;
using flash::kInvalidPpn;

/**
 * Flat page-level mapping table with an always-consistent inverse.
 *
 * Both directions are flat arrays, filled with the unmapped sentinel
 * once the sizes have been checked.
 *
 * Entries are stored as 32 bits with ~0u as the unmapped sentinel, half
 * the footprint of 64-bit entries; the API takes and returns 64-bit
 * Ppn/Lpn and widens the sentinel to kInvalidPpn/kInvalidLpn. Tables
 * above flash::kMaxPages physical pages are rejected at construction.
 */
class MappingTable
{
  public:
    MappingTable(std::uint64_t logical_pages, std::uint64_t physical_pages);

    std::uint64_t logicalPages() const { return logicalPages_; }
    std::uint64_t physicalPages() const { return physicalPages_; }

    /** Physical page of @p lpn, or kInvalidPpn when unmapped. */
    Ppn lookup(Lpn lpn) const { return widen(l2p_[lpn]); }

    /** Logical page stored at @p ppn, or kInvalidLpn. */
    Lpn reverse(Ppn ppn) const { return widen(p2l_[ppn]); }

    bool isMapped(Lpn lpn) const { return l2p_[lpn] != kUnmapped; }

    /**
     * Point @p lpn at @p ppn; returns the previous physical page
     * (kInvalidPpn if this is the first write). The previous physical
     * page's reverse entry is cleared; the caller is responsible for
     * invalidating it in the block state.
     */
    Ppn remap(Lpn lpn, Ppn ppn);

    /** Drop the mapping of @p lpn (TRIM); returns the old PPN. */
    Ppn unmap(Lpn lpn);

    /** Number of currently mapped logical pages. */
    std::uint64_t mappedCount() const { return mapped_; }

  private:
    using Entry = std::uint32_t;
    static constexpr Entry kUnmapped = ~Entry{0};
    static_assert(kInvalidPpn == kInvalidLpn &&
                  flash::kMaxPages < kUnmapped);

    static std::uint64_t
    widen(Entry e)
    {
        return e == kUnmapped ? kInvalidPpn : e;
    }

    std::uint64_t logicalPages_;
    std::uint64_t physicalPages_;
    std::vector<Entry> l2p_;
    std::vector<Entry> p2l_;
    std::uint64_t mapped_ = 0;
};

} // namespace ida::ftl
