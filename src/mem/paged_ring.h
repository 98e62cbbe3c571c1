#ifndef SQLB_MEM_PAGED_RING_H_
#define SQLB_MEM_PAGED_RING_H_

#include <cstddef>
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
/// (same index arithmetic, same evicted element), so a window running on a
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
      : capacity_(capacity),
        num_chunks_((capacity + kChunkCapacity - 1) / kChunkCapacity),
        chunks_(new ChunkHeader*[num_chunks_]()) {
    SQLB_CHECK(capacity >= 1, "PagedRing capacity must be >= 1");
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
        size_(other.size_) {
    other.chunks_.reset(new ChunkHeader*[other.num_chunks_]());
    other.resident_chunks_ = 0;
    other.head_ = 0;
    other.size_ = 0;
  }

  /// Wires (or rewires) the pool lazy chunks come from; already-resident
  /// chunks keep their original owner and return there when freed.
  void set_pool(SlabPool* pool) { pool_ = pool; }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Appends `value`; if full, evicts and returns the oldest element —
  /// exactly RingBuffer::Push.
  bool Push(T value, T* evicted = nullptr) {
    if (size_ < capacity_) {
      // Only eviction at capacity moves head_, so it is 0 here.
      *MutableSlot(size_) = value;
      ++size_;
      return false;
    }
    T* head_slot = MutableSlot(head_);
    if (evicted != nullptr) *evicted = *head_slot;
    *head_slot = value;
    if (++head_ == capacity_) head_ = 0;
    return true;
  }

  /// Element i = 0 is the oldest retained element.
  const T& at(std::size_t i) const {
    SQLB_CHECK(i < size_, "PagedRing index out of range");
    const std::size_t physical = (head_ + i) % capacity_;
    const ChunkHeader* c = chunks_[physical / kChunkCapacity];
    SQLB_CHECK(c != nullptr, "PagedRing slot read before first write");
    return Slots(c)[physical % kChunkCapacity];
  }

  /// Hints the prefetcher at the slot the next Push will write — the
  /// PagedRing analogue of RingBuffer::PrefetchPushSlot. A lazy slot whose
  /// chunk is not resident yet has no address to prefetch.
  void PrefetchPushSlot() const {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t physical = size_ < capacity_ ? size_ : head_;
    const ChunkHeader* c = chunks_[physical / kChunkCapacity];
    if (c != nullptr) {
      __builtin_prefetch(&Slots(c)[physical % kChunkCapacity], 1, 1);
    }
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

  T* MutableSlot(std::size_t physical) {
    ChunkHeader*& c = chunks_[physical / kChunkCapacity];
    if (c == nullptr) {
      c = NewChunk(pool_);
      SQLB_CHECK(c != nullptr,
                 "agent pool out of memory: raise agent_pool.max_bytes");
    }
    return Slots(c) + physical % kChunkCapacity;
  }

  const std::size_t capacity_;
  const std::size_t num_chunks_;
  std::unique_ptr<ChunkHeader*[]> chunks_;
  std::size_t resident_chunks_ = 0;
  SlabPool* pool_ = nullptr;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sqlb::mem

#endif  // SQLB_MEM_PAGED_RING_H_
