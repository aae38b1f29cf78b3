#include "ftl/allocator.hh"

#include "sim/log.hh"

namespace ida::ftl {

PageAllocator::PageAllocator(const flash::Geometry &geom,
                             flash::ChipArray &chips, BlockManager &blocks,
                             LowFreeCallback low_free)
    : geom_(geom), chips_(chips), blocks_(blocks),
      lowFree_(std::move(low_free)),
      hostOpen_(geom.planes(), kNoBlock),
      internalOpen_(geom.planes(), kNoBlock)
{
}

std::uint64_t
PageAllocator::nextHostPlane() const
{
    // CWDP: channel varies fastest, then chip (way), then die, then
    // plane.
    const std::uint64_t c = geom_.channels;
    const std::uint64_t w = geom_.chipsPerChannel;
    const std::uint64_t d = geom_.diesPerChip;
    const std::uint64_t p = geom_.planesPerDie;
    const std::uint64_t k = rr_ % (c * w * d * p);
    const std::uint64_t channel = k % c;
    const std::uint64_t chip = (k / c) % w;
    const std::uint64_t die = (k / (c * w)) % d;
    const std::uint64_t plane = (k / (c * w * d)) % p;
    return ((channel * w + chip) * d + die) * p + plane;
}

Ppn
PageAllocator::allocateHostPage()
{
    const std::uint64_t plane = nextHostPlane();
    ++rr_;
    return allocateOn(plane, false);
}

Ppn
PageAllocator::allocateInternalPage(std::uint64_t plane)
{
    return allocateOn(plane, true);
}

Ppn
PageAllocator::allocateOn(std::uint64_t plane, bool internal)
{
    std::vector<BlockId> &open = internal ? internalOpen_ : hostOpen_;
    BlockId b = open[plane];

    if (b != kNoBlock && chips_.block(b).isFull()) {
        blocks_.closeActive(b);
        b = kNoBlock;
    }
    if (b == kNoBlock) {
        b = blocks_.takeFree(plane);
        auto m = blocks_.meta(b);
        if (internal)
            m.internalActive(true);
        else
            m.hostActive(true);
        blocks_.setRefreshedAt(b, chips_.now());
        open[plane] = b;
        if (lowFree_)
            lowFree_(plane);
    }

    const flash::Block &blk = chips_.block(b);
    if (blk.isFull())
        sim::panic("PageAllocator: fresh block is already full");
    return geom_.firstPpnOf(b) + blk.writePointer();
}

} // namespace ida::ftl
