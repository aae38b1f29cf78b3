#include "ftl/block_manager.hh"

#include <algorithm>
#include <limits>

#include "sim/log.hh"

namespace ida::ftl {

BlockManager::BlockManager(const flash::Geometry &geom,
                           flash::ChipArray &chips)
    : geom_(geom), chips_(chips), freePool_(geom.planes())
{
    if (geom_.blocks() >= kUnlinked)
        sim::fatal("BlockManager: more blocks than the age index can link");
    flags_.assign(geom_.blocks(), kInFreePool);
    refreshedAt_.assign(geom_.blocks(), sim::Time{});
    age_.assign(geom_.blocks() + 1,
                AgeNode{sim::Time{}, kUnlinked, kUnlinked});
    age_[head()] = AgeNode{sim::Time{}, head(), head()};
    for (std::uint64_t b = 0; b < geom_.blocks(); ++b)
        freePool_[geom_.planeOfBlock(b)].push_back(b);
}

std::size_t
BlockManager::minFreeCount() const
{
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (const auto &pool : freePool_)
        best = std::min(best, pool.size());
    return best;
}

BlockId
BlockManager::takeFree(std::uint64_t plane)
{
    auto &pool = freePool_[plane];
    if (pool.empty())
        sim::fatal("BlockManager: plane ran out of free blocks "
                   "(workload outran GC; shrink the footprint or raise "
                   "over-provisioning)");
    const BlockId b = pool.front();
    pool.pop_front();
    flags_[b] &= static_cast<std::uint8_t>(~kInFreePool);
    return b;
}

void
BlockManager::release(BlockId b)
{
    const std::uint8_t f = flags_[b];
    if (f & kInFreePool)
        sim::panic("BlockManager::release: block already free");
    if (f & (kHostActive | kInternalActive))
        sim::panic("BlockManager::release: block still active");
    if (!chips_.block(b).isErased())
        sim::panic("BlockManager::release: block not erased");
    if (indexed(b))
        unlink(b);
    flags_[b] = kInFreePool;
    refreshedAt_[b] = sim::Time{};
    freePool_[geom_.planeOfBlock(b)].push_back(b);
    --inUse_;
}

void
BlockManager::closeActive(BlockId b)
{
    const std::uint8_t f = flags_[b];
    if (!(f & (kHostActive | kInternalActive)))
        sim::panic("BlockManager::closeActive: block was not active");
    flags_[b] = f & static_cast<std::uint8_t>(
                        ~(kHostActive | kInternalActive));
    ++inUse_;
    if (!ageIndexDeferred_)
        link(b, refreshedAt_[b]);
}

void
BlockManager::setRefreshedAt(BlockId b, sim::Time t)
{
    refreshedAt_[b] = t;
    if (indexed(b)) {
        unlink(b);
        link(b, t);
    }
}

void
BlockManager::link(BlockId b, sim::Time key)
{
    // Walk back from the tail to the last entry ordered before
    // (key, b); the sentinel's prev is the tail.
    std::uint32_t p = age_[head()].prev;
    while (p != head() &&
           (age_[p].key > key || (age_[p].key == key && p > b)))
        p = age_[p].prev;
    const std::uint32_t n = age_[p].next;
    age_[b] = AgeNode{key, p, n};
    age_[p].next = static_cast<std::uint32_t>(b);
    age_[n].prev = static_cast<std::uint32_t>(b);
}

void
BlockManager::unlink(BlockId b)
{
    AgeNode &node = age_[b];
    age_[node.prev].next = node.next;
    age_[node.next].prev = node.prev;
    node.prev = node.next = kUnlinked;
}

void
BlockManager::rebuildAgeIndex()
{
    std::vector<std::uint32_t> closed;
    closed.reserve(inUse_);
    for (BlockId b = 0; b < geom_.blocks(); ++b) {
        age_[b].prev = age_[b].next = kUnlinked;
        if ((flags_[b] & (kInFreePool | kHostActive | kInternalActive)) == 0)
            closed.push_back(static_cast<std::uint32_t>(b));
    }
    std::sort(closed.begin(), closed.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return refreshedAt_[a] < refreshedAt_[b] ||
                         (refreshedAt_[a] == refreshedAt_[b] && a < b);
              });
    std::uint32_t p = head();
    for (const std::uint32_t b : closed) {
        age_[b] = AgeNode{refreshedAt_[b], p, head()};
        age_[p].next = b;
        p = b;
    }
    age_[head()].prev = p;
    ageIndexDeferred_ = false;
}

bool
BlockManager::gcEligible(BlockId b) const
{
    return (flags_[b] & kNotIdle) == 0 && chips_.block(b).isFull();
}

bool
BlockManager::pickGcVictim(std::uint64_t plane, BlockId &victim) const
{
    const BlockId first = firstBlockOf(plane);
    bool found = false;
    std::uint32_t bestValid = 0;
    std::uint32_t bestErase = 0;
    for (std::uint32_t i = 0; i < geom_.blocksPerPlane; ++i) {
        const BlockId b = first + i;
        if (!gcEligible(b))
            continue;
        const auto &blk = chips_.block(b);
        const std::uint32_t valid = blk.validCount();
        const std::uint32_t erase = blk.eraseCount();
        if (!found || valid < bestValid ||
            (valid == bestValid && erase < bestErase)) {
            found = true;
            victim = b;
            bestValid = valid;
            bestErase = erase;
        }
    }
    return found;
}

template <typename Visit>
void
BlockManager::forEachRefreshCandidate(sim::Time now, sim::Time period,
                                      Visit &&visit) const
{
    if (ageIndexDeferred_)
        sim::panic("BlockManager: refresh query while the age index is "
                   "deferred (restampAges not called)");
    for (std::uint32_t b = age_[head()].next; b != head();
         b = age_[b].next) {
        if (now - age_[b].key < period)
            return; // every later entry is younger still
        if ((flags_[b] & kNotIdle) != 0)
            continue; // busy with a GC or refresh job
        const auto &blk = chips_.block(b);
        if (!blk.isFull() || blk.validCount() == 0)
            continue; // nothing to protect; GC will reclaim it
        if (!visit(BlockId{b}))
            return;
    }
}

std::vector<BlockId>
BlockManager::refreshCandidates(sim::Time now, sim::Time period) const
{
    std::vector<BlockId> out;
    forEachRefreshCandidate(now, period, [&out](BlockId b) {
        out.push_back(b);
        return true;
    });
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t
BlockManager::oldestRefreshCandidates(sim::Time now, sim::Time period,
                                      std::span<BlockId> out) const
{
    if (out.empty())
        return 0;
    std::size_t n = 0;
    forEachRefreshCandidate(now, period, [&](BlockId b) {
        out[n++] = b;
        return n < out.size();
    });
    return n;
}

} // namespace ida::ftl
