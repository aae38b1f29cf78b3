#include "ftl/mapping.hh"

#include <string>

#include "sim/log.hh"

namespace ida::ftl {

MappingTable::MappingTable(std::uint64_t logical_pages,
                           std::uint64_t physical_pages)
    : logicalPages_(logical_pages), physicalPages_(physical_pages)
{
    if (logical_pages == 0 || physical_pages < logical_pages)
        sim::fatal("MappingTable: physical space must cover logical space");
    if (physical_pages > flash::kMaxPages)
        sim::fatal("MappingTable: " + std::to_string(physical_pages) +
                   " physical pages exceed " +
                   std::to_string(flash::kMaxPages) +
                   " (mapping entries are 32 bits)");
    l2p_.assign(logical_pages, kUnmapped);
    p2l_.assign(physical_pages, kUnmapped);
}

Ppn
MappingTable::remap(Lpn lpn, Ppn ppn)
{
    if (p2l_[ppn] != kUnmapped)
        sim::panic("MappingTable::remap: target physical page already used");
    const Ppn old = lookup(lpn);
    if (old != kInvalidPpn)
        p2l_[old] = kUnmapped;
    else
        ++mapped_;
    // Both fit: lpn < logicalPages_ <= physicalPages_ <= kMaxPages.
    l2p_[lpn] = static_cast<Entry>(ppn);
    p2l_[ppn] = static_cast<Entry>(lpn);
    return old;
}

Ppn
MappingTable::unmap(Lpn lpn)
{
    const Ppn old = lookup(lpn);
    if (old == kInvalidPpn)
        return kInvalidPpn;
    p2l_[old] = kUnmapped;
    l2p_[lpn] = kUnmapped;
    --mapped_;
    return old;
}

} // namespace ida::ftl
