/**
 * @file
 * A vector-backed pool of records addressed by 32-bit handles.
 *
 * Every in-flight record of the simulator (an admitted host request, a
 * fleet request, a read-modify-write, a read-cache line, a queued flash
 * command) lives in one slot from the moment it is taken to the moment
 * it completes. Completion events then capture {this, handle}, a few
 * bytes, instead of the record itself, and once the pool has grown to
 * the records in flight nothing allocates.
 *
 * Freed slots are reused last-in first-out through a free list threaded
 * beside the values. A reused slot keeps what its previous occupant
 * left: the caller assigns every field it reads later. Taking a slot may
 * grow the vector, so no reference into the slab survives an acquire().
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ida::sim {

/** The handle that names no slot (for links kept beside a Slab). */
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

template <typename T>
class Slab
{
  public:
    /** Take a free slot, or grow by one; returns its handle. */
    std::uint32_t
    acquire()
    {
        ++live_;
        if (freeHead_ == kNoSlot) {
            entries_.emplace_back();
            return static_cast<std::uint32_t>(entries_.size() - 1);
        }
        const std::uint32_t h = freeHead_;
        freeHead_ = entries_[h].next;
        entries_[h].next = kLive;
        return h;
    }

    /** Return slot @p h to the free list; its value is left as is. */
    void
    release(std::uint32_t h)
    {
        --live_;
        entries_[h].next = freeHead_;
        freeHead_ = h;
    }

    T &operator[](std::uint32_t h) { return entries_[h].value; }
    const T &operator[](std::uint32_t h) const { return entries_[h].value; }

    /** Slots taken and not yet released. */
    std::uint32_t live() const { return live_; }

    void reserve(std::size_t n) { entries_.reserve(n); }

    /** Visit every live slot's value, in handle order. */
    template <typename F>
    void
    forEachLive(F &&f) const
    {
        for (const Entry &e : entries_)
            if (e.next == kLive)
                f(e.value);
    }

    /**
     * Verify the free list, for the auditor: it ends within as many
     * steps as there are slots, names only free slots, and together
     * with live() accounts for every slot. O(slots). Returns true when
     * sound; otherwise false, with the first failure in @p why (when
     * non-null).
     */
    bool
    validate(std::string *why = nullptr) const
    {
        const auto fail = [why](const char *msg) {
            if (why)
                *why = msg;
            return false;
        };
        std::uint64_t free = 0;
        for (std::uint32_t h = freeHead_; h != kNoSlot; h = entries_[h].next) {
            if (h >= entries_.size())
                return fail("free list names a slot past the end");
            if (entries_[h].next == kLive)
                return fail("free list reaches a live slot");
            if (++free > entries_.size())
                return fail("free list is cyclic");
        }
        if (free + live_ != entries_.size())
            return fail("live count disagrees with the free list");
        return true;
    }

  private:
    /** Link of a slot that is taken (no free-list link can equal it). */
    static constexpr std::uint32_t kLive = kNoSlot - 1;

    struct Entry
    {
        T value{};
        /** Next free slot, kNoSlot at the list's end, kLive when taken. */
        std::uint32_t next = kLive;
    };

    std::vector<Entry> entries_;
    std::uint32_t freeHead_ = kNoSlot;
    std::uint32_t live_ = 0;
};

} // namespace ida::sim
