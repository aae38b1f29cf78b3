/**
 * @file
 * A FIFO queue over fixed-size chunks.
 *
 * Entries live in chunks of a fixed count, so pushing costs no
 * allocation except one per chunk, and entries never move once pushed
 * (a deep queue grows without the copy-on-grow spike of a vector). A
 * drained chunk is kept as a spare for the next one the tail needs, so
 * a queue that hovers around a chunk boundary does not allocate at all.
 */
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <memory>
#include <utility>

namespace ida::sim {

/** FIFO of T in chunks of @p ChunkSize default-constructed slots. */
template <typename T, std::size_t ChunkSize = 64>
class ChunkedFifo
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return (*chunks_.front())[head_]; }
    const T &front() const { return (*chunks_.front())[head_]; }
    const T &back() const { return (*chunks_.back())[tail_ - 1]; }

    /** Append a default entry (T{}) and return it, to fill in place. */
    T &
    emplace_back()
    {
        if (chunks_.empty() || tail_ == ChunkSize) {
            // One allocation per ChunkSize entries, none once a spare
            // exists.
            if (!spare_)
                spare_ = std::make_unique<Chunk>(); // ida-lint: allow(IDA010)
            chunks_.push_back(std::move(spare_));
            tail_ = 0;
        }
        ++size_;
        return (*chunks_.back())[tail_++];
    }

    /** Drop the front entry (reset to T{} so it releases what it holds). */
    void
    pop_front()
    {
        (*chunks_.front())[head_] = T{};
        --size_;
        if (++head_ == ChunkSize || size_ == 0) {
            // The front chunk is drained (or the queue is empty, so the
            // next push starts a fresh chunk anyway): recycle it.
            spare_ = std::move(chunks_.front());
            chunks_.pop_front();
            head_ = 0;
            if (chunks_.empty())
                tail_ = 0;
        }
    }

    /** Visit every entry, front to back. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        std::size_t i = head_;
        for (const auto &chunk : chunks_) {
            const std::size_t end =
                &chunk == &chunks_.back() ? tail_ : ChunkSize;
            for (; i < end; ++i)
                f((*chunk)[i]);
            i = 0;
        }
    }

  private:
    using Chunk = std::array<T, ChunkSize>;

    std::deque<std::unique_ptr<Chunk>> chunks_;
    std::unique_ptr<Chunk> spare_;
    /** Front entry's index in the first chunk. */
    std::size_t head_ = 0;
    /** One past the back entry's index in the last chunk. */
    std::size_t tail_ = 0;
    std::size_t size_ = 0;
};

} // namespace ida::sim
