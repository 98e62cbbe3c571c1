#ifndef SQLB_MEM_PAGE_POOL_H_
#define SQLB_MEM_PAGE_POOL_H_

#include <cstddef>
#include <mutex>
#include <vector>

/// \file
/// Paged memory substrate for the compact agent-state tier: a PagePool hands
/// out large pages mapped from the OS (anonymous mmap, recycled while the
/// pool lives, unmapped when it dies), and a SlabPool carves one fixed
/// block class out of those pages for the chunked agent containers
/// (mem/chunked_fifo.h, mem/paged_ring.h).
///
/// Design points, in the spirit of katana's PagePool/SharedMemRuntime
/// (SNIPPETS.md §2):
///  - fresh pages are zero-filled and faulted in *by the calling thread*, so
///    a lane allocating from its own arena first-touches the page on its
///    worker's socket (the NUMA homing policy — no explicit mbind needed);
///  - freed pages/blocks go to freelists while the pool lives: a churn or
///    failover wave recycles into the next admission instead of thrashing
///    malloc;
///  - pages bypass the malloc heap, so a pool's death returns every page
///    to the OS and repeated create/run/teardown cycles in one process do
///    not fragment the heap;
///  - an optional byte budget turns exhaustion into a nullptr status the
///    caller can surface, not an abort inside the allocator.
///
/// Block/page frees are mutex-protected: they are chunk-granular (one lock
/// per ~tens of queue entries) and may legitimately cross pools — a provider
/// migrated by a churn handoff drains chunks allocated on its old shard's
/// arena from its new lane (each chunk carries its owner pool and returns
/// there).

namespace sqlb::mem {

/// Allocates fixed-size, aligned, zero-filled-on-first-use pages.
class PagePool {
 public:
  static constexpr std::size_t kDefaultPageBytes = 1u << 16;  // 64 KiB
  static constexpr std::size_t kPageAlignment = 4096;

  /// `max_bytes` caps the total bytes reserved from the OS; 0 = unlimited.
  explicit PagePool(std::size_t page_bytes = kDefaultPageBytes,
                    std::size_t max_bytes = 0);
  /// Unmaps every page reserved, free or in use.
  ~PagePool();

  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  /// One page, kPageAlignment-aligned, or nullptr when the byte budget is
  /// exhausted (or the OS refuses the mapping). A fresh page is zeroed and
  /// faulted in by the calling thread — the first-touch NUMA placement
  /// hook; a recycled one keeps its contents.
  void* Allocate();

  /// Returns a page to the freelist (unmapped only when the pool dies).
  void Free(void* page);

  std::size_t page_bytes() const { return page_bytes_; }
  /// Pages currently reserved from the OS (free + in use).
  std::size_t pages_reserved() const;
  std::size_t pages_free() const;
  std::size_t bytes_reserved() const;
  /// High-water mark of bytes reserved from the OS.
  std::size_t peak_bytes() const;

 private:
  const std::size_t page_bytes_;
  const std::size_t max_bytes_;
  mutable std::mutex mu_;
  std::vector<void*> free_;
  std::vector<void*> all_;
  std::size_t peak_pages_ = 0;
};

/// Carves one fixed block class out of PagePool pages. Blocks are the chunk
/// granule of the agent containers; `block_bytes` is rounded up so every
/// block is max_align_t-aligned within its page.
class SlabPool {
 public:
  SlabPool(PagePool* pages, std::size_t block_bytes);

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// One block, or nullptr when the backing PagePool is out of budget.
  /// Contents are unspecified (recycled blocks are not re-zeroed).
  void* Allocate();

  /// Returns a block to this pool. Safe from any thread, including threads
  /// draining chunks that migrated to another shard's lane.
  void Free(void* block);

  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t blocks_live() const;
  std::size_t blocks_peak() const;

 private:
  struct FreeNode {
    FreeNode* next;
  };

  PagePool* const pages_;
  const std::size_t block_bytes_;
  mutable std::mutex mu_;
  FreeNode* free_ = nullptr;
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace sqlb::mem

#endif  // SQLB_MEM_PAGE_POOL_H_
