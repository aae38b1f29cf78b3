#include "cache/read_cache.hh"

namespace ida::cache {

ReadCache::ReadCache(const ReadCacheConfig &cfg) : cfg_(cfg)
{
    slots_.reserve(cfg_.capacityPages);
}

void
ReadCache::unlink(std::uint32_t s)
{
    Line &l = slots_[s];
    if (l.prev != sim::kNoSlot)
        slots_[l.prev].next = l.next;
    else
        head_ = l.next;
    if (l.next != sim::kNoSlot)
        slots_[l.next].prev = l.prev;
    else
        tail_ = l.prev;
}

void
ReadCache::pushFront(std::uint32_t s)
{
    Line &l = slots_[s];
    l.prev = sim::kNoSlot;
    l.next = head_;
    if (head_ != sim::kNoSlot)
        slots_[head_].prev = s;
    head_ = s;
    if (tail_ == sim::kNoSlot)
        tail_ = s;
}

flash::SectorMask
ReadCache::lookupLine(flash::Lpn lpn)
{
    const auto it = lines_.find(lpn);
    if (it == lines_.end())
        return 0;
    const std::uint32_t s = it->second;
    if (s != head_) {
        unlink(s);
        pushFront(s);
    }
    return slots_[s].sectors;
}

flash::SectorMask
ReadCache::peek(flash::Lpn lpn) const
{
    const auto it = lines_.find(lpn);
    return it == lines_.end() ? 0 : slots_[it->second].sectors;
}

void
ReadCache::insertLine(flash::Lpn lpn, flash::SectorMask sectors)
{
    const auto it = lines_.find(lpn);
    if (it != lines_.end()) {
        const std::uint32_t s = it->second;
        slots_[s].sectors |= sectors;
        if (s != head_) {
            unlink(s);
            pushFront(s);
        }
        return;
    }
    if (lines_.size() >= cfg_.capacityPages) {
        const std::uint32_t victim = tail_;
        lines_.erase(slots_[victim].lpn);
        unlink(victim);
        slots_.release(victim);
        ++stats_.evictions;
    }
    const std::uint32_t s = slots_.acquire();
    slots_[s].lpn = lpn;
    slots_[s].sectors = sectors;
    pushFront(s);
    lines_.emplace(lpn, s);
    ++stats_.fills;
}

void
ReadCache::invalidate(flash::Lpn lpn, flash::SectorMask sectors)
{
    if (lines_.empty())
        return;
    const auto it = lines_.find(lpn);
    if (it == lines_.end())
        return;
    const std::uint32_t s = it->second;
    slots_[s].sectors &= ~sectors;
    ++stats_.invalidations;
    if (slots_[s].sectors == 0) {
        unlink(s);
        slots_.release(s);
        lines_.erase(it);
    }
}

} // namespace ida::cache
