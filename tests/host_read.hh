/**
 * @file
 * Host reads for chip-level tests that only want the completion tick.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "flash/chip.hh"

namespace ida::flash::testing {

/**
 * Issue a host read of @p ppn with @p rounds retry rounds, on behalf of
 * @p lpn; @p fn gets the completion tick when the read reaches the die
 * (ReadDone's seq is dropped).
 */
template <typename F>
void
hostRead(ChipArray &chips, Ppn ppn, int rounds, F fn, Lpn lpn = kInvalidLpn)
{
    chips.readHostPage(
        chips.locate(ppn), rounds,
        [fn](sim::Time t, std::uint64_t) mutable { fn(t); }, lpn);
}

/** A host read nobody waits for. */
inline void
hostRead(ChipArray &chips, Ppn ppn, int rounds, std::nullptr_t)
{
    chips.readHostPage(chips.locate(ppn), rounds, nullptr);
}

} // namespace ida::flash::testing
