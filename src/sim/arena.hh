/**
 * @file
 * Device-lifetime bump arena for the simulator's hot-state arrays.
 *
 * The read critical path walks per-page and per-wordline arrays. The
 * arena hands them out bump-pointer style from a handful of large
 * chunks, so the device's block table (flash::BlockTable) is a few flat
 * arrays and device construction is a few mmap-sized allocations
 * instead of tens of thousands of small ones scattered across the heap.
 *
 * Allocations are never freed individually — the owning device object
 * (ChipArray) destroys the arena wholesale. That matches the usage: the
 * arrays live exactly as long as the device, and erase() recycles their
 * *contents*, not their storage.
 *
 * Chunks are obtained uninitialized, so a chunk's pages become resident
 * only when allocate() hands them out and value-initializes them; the
 * untouched tail of a chunk costs address space, not memory.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace ida::sim {

/** Chunked bump allocator; allocations live until the arena dies. */
class Arena
{
  public:
    /** @p chunk_bytes sizes the growth quantum (default 4 MiB). */
    explicit Arena(std::size_t chunk_bytes = std::size_t{1} << 22)
        : chunkBytes_(chunk_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate a value-initialized array of @p n objects of trivial type
     * T. A request that does not fit gets a new chunk of at least the
     * growth quantum; the bump pointer moves there only if that leaves
     * more room than the current chunk, so a dedicated chunk for a huge
     * mapping table does not strand the tail of the current chunk.
     */
    template <typename T>
    T *
    allocate(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "Arena never runs destructors");
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "a fresh chunk is only new[]-aligned");
        const std::size_t bytes = n * sizeof(T);
        void *raw = allocateRaw(bytes, alignof(T));
        // Value-initialize: all-zero for the trivial types stored here.
        return new (raw) T[n]();
    }

    /** Total bytes handed out (excluding alignment padding). */
    std::size_t bytesAllocated() const { return used_; }

    /** Number of chunks backing the arena. */
    std::size_t chunkCount() const { return chunks_.size(); }

  private:
    void *
    allocateRaw(std::size_t bytes, std::size_t align)
    {
        const std::size_t pad =
            (align - (reinterpret_cast<std::uintptr_t>(cur_) % align)) %
            align;
        if (bytes + pad > left_)
            return grow(bytes);
        cur_ += pad;
        left_ -= pad;
        void *out = cur_;
        cur_ += bytes;
        left_ -= bytes;
        used_ += bytes;
        return out;
    }

    /** Open a chunk for a @p bytes request that does not fit. */
    void *
    grow(std::size_t bytes)
    {
        const std::size_t want = std::max(chunkBytes_, bytes);
        // Uninitialized: allocate() zeroes exactly what it hands out.
        chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(want));
        std::byte *chunk = chunks_.back().get();
        used_ += bytes;
        if (want - bytes > left_) { // the new chunk is roomier: bump there
            cur_ = chunk + bytes;
            left_ = want - bytes;
        }
        return chunk;
    }

    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::byte *cur_ = nullptr;
    std::size_t left_ = 0;
    std::size_t used_ = 0;
    std::size_t chunkBytes_;
};

} // namespace ida::sim
