#ifndef SQLB_MEM_PAGED_RING_H_
#define SQLB_MEM_PAGED_RING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

#include "common/status.h"
#include "mem/chunked_fifo.h"
#include "mem/page_pool.h"

/// \file
/// Fixed-capacity ring over lazily-allocated chunks — the pooled replacement
/// for the eagerly-sized RingBuffer behind the provider characterization
/// windows. Push/eviction semantics replicate common/ring_buffer.h exactly
/// (same slot order, same evicted element), so a window running on a
/// PagedRing is bit-identical to one on a RingBuffer; only the backing
/// storage differs. In eager mode every chunk is heap-allocated up front
/// (the honest AoS-baseline residency: the legacy RingBuffer sized its
/// vector to k at construction); in lazy mode a chunk materializes — from
/// the wired SlabPool, or the heap while none is wired — the first time a
/// logical slot inside it is written, so a provider proposed only a few
/// queries holds one chunk instead of k slots.

namespace sqlb::mem {

template <typename T>
class PagedRing {
 public:
  static_assert(std::is_trivially_copyable<T>::value &&
                    std::is_trivially_destructible<T>::value,
                "PagedRing requires trivially copyable elements");

  struct ChunkHeader {
    SlabPool* owner;  // nullptr = heap chunk
  };

  static constexpr std::size_t kChunkCapacity =
      (kAgentChunkBytes - sizeof(ChunkHeader)) / sizeof(T);
  static_assert(kChunkCapacity >= 1, "chunk too small for one element");

  PagedRing(std::size_t capacity, bool lazy)
      : capacity_(static_cast<std::uint32_t>(capacity)),
        num_chunks_(static_cast<std::uint32_t>(
            (capacity + kChunkCapacity - 1) / kChunkCapacity)),
        chunks_(new ChunkHeader*[num_chunks_]()) {
    SQLB_CHECK(capacity >= 1 &&
                   capacity <= std::numeric_limits<std::uint32_t>::max(),
               "PagedRing capacity must be in [1, 2^32)");
    if (!lazy) {
      for (std::size_t c = 0; c < num_chunks_; ++c) {
        chunks_[c] = NewChunk(nullptr);
        SQLB_CHECK(chunks_[c] != nullptr, "heap chunk allocation failed");
      }
    }
  }

  ~PagedRing() {
    for (std::size_t c = 0; c < num_chunks_; ++c) {
      if (chunks_[c] != nullptr) FreeChunk(chunks_[c]);
    }
  }

  PagedRing(const PagedRing&) = delete;
  PagedRing& operator=(const PagedRing&) = delete;

  PagedRing(PagedRing&& other) noexcept
      : capacity_(other.capacity_),
        num_chunks_(other.num_chunks_),
        chunks_(std::move(other.chunks_)),
        resident_chunks_(other.resident_chunks_),
        pool_(other.pool_),
        head_(other.head_),
        size_(other.size_),
        cursor_(other.cursor_),
        chunk_end_(other.chunk_end_) {
    other.chunks_.reset(new ChunkHeader*[other.num_chunks_]());
    other.resident_chunks_ = 0;
    other.head_ = 0;
    other.size_ = 0;
    other.cursor_ = nullptr;
    other.chunk_end_ = nullptr;
  }

  /// Wires (or rewires) the pool lazy chunks come from; already-resident
  /// chunks keep their original owner and return there when freed.
  void set_pool(SlabPool* pool) { pool_ = pool; }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Appends `value`; if full, evicts and returns the oldest element —
  /// exactly RingBuffer::Push. Writes through the cursor, which is
  /// recomputed only when it reaches the end of its chunk.
  bool Push(T value, T* evicted = nullptr) {
    if (cursor_ == chunk_end_) SeekCursor();
    const bool full = size_ == capacity_;
    if (full) {
      if (evicted != nullptr) *evicted = *cursor_;
      if (++head_ == capacity_) head_ = 0;
    } else {
      ++size_;
    }
    *cursor_++ = value;
    return full;
  }

  /// Element i = 0 is the oldest retained element.
  const T& at(std::size_t i) const {
    SQLB_CHECK(i < size_, "PagedRing index out of range");
    const std::size_t physical = (head_ + i) % capacity_;
    const ChunkHeader* c = chunks_[physical / kChunkCapacity];
    SQLB_CHECK(c != nullptr, "PagedRing slot read before first write");
    return Slots(c)[physical % kChunkCapacity];
  }

  /// Hints the prefetcher at the slot the next Push will write: the
  /// cursor. Before the first Push and at a chunk's end the cursor is null
  /// or one past the chunk, and the hint (which never faults) is wasted.
  void PrefetchPushSlot() const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(cursor_, 1, 1);
#endif
  }

  std::size_t resident_chunks() const { return resident_chunks_; }
  std::size_t resident_bytes() const {
    return resident_chunks_ * kAgentChunkBytes;
  }

 private:
  static T* Slots(ChunkHeader* c) {
    return reinterpret_cast<T*>(reinterpret_cast<char*>(c) +
                                sizeof(ChunkHeader));
  }
  static const T* Slots(const ChunkHeader* c) {
    return reinterpret_cast<const T*>(reinterpret_cast<const char*>(c) +
                                      sizeof(ChunkHeader));
  }

  ChunkHeader* NewChunk(SlabPool* pool) {
    void* raw = pool != nullptr ? pool->Allocate()
                                : ::operator new(kAgentChunkBytes,
                                                 std::nothrow);
    if (raw == nullptr) return nullptr;
    ChunkHeader* c = static_cast<ChunkHeader*>(raw);
    c->owner = pool;
    ++resident_chunks_;
    return c;
  }

  void FreeChunk(ChunkHeader* c) {
    --resident_chunks_;
    if (c->owner != nullptr) {
      c->owner->Free(c);
    } else {
      ::operator delete(static_cast<void*>(c));
    }
  }

  /// Points the cursor at the next Push's slot, physical index size_ while
  /// filling and head_ once full, materializing its chunk if it is lazy,
  /// and sets chunk_end_ past the last ring slot of that chunk.
  void SeekCursor() {
    const std::size_t physical = size_ < capacity_ ? size_ : head_;
    const std::size_t chunk = physical / kChunkCapacity;
    ChunkHeader*& c = chunks_[chunk];
    if (c == nullptr) {
      c = NewChunk(pool_);
      SQLB_CHECK(c != nullptr,
                 "agent pool out of memory: raise agent_pool.max_bytes");
    }
    cursor_ = Slots(c) + physical % kChunkCapacity;
    chunk_end_ = Slots(c) + std::min(kChunkCapacity,
                                     capacity_ - chunk * kChunkCapacity);
  }

  // 32-bit indices keep the ring, cursor included, at seven words.
  const std::uint32_t capacity_;
  const std::uint32_t num_chunks_;
  std::unique_ptr<ChunkHeader*[]> chunks_;
  std::size_t resident_chunks_ = 0;
  SlabPool* pool_ = nullptr;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  // The next Push's slot, and one past the ring's last slot in its chunk;
  // both null until the first Push.
  T* cursor_ = nullptr;
  T* chunk_end_ = nullptr;
};

}  // namespace sqlb::mem

#endif  // SQLB_MEM_PAGED_RING_H_
