#include "mem/page_pool.h"

#include <sys/mman.h>

#include "common/status.h"

namespace sqlb::mem {

PagePool::PagePool(std::size_t page_bytes, std::size_t max_bytes)
    : page_bytes_(page_bytes), max_bytes_(max_bytes) {
  SQLB_CHECK(page_bytes_ >= 4096 && (page_bytes_ & (page_bytes_ - 1)) == 0,
             "page size must be a power of two >= 4096");
}

PagePool::~PagePool() {
  for (void* page : all_) munmap(page, page_bytes_);
}

void* PagePool::Allocate() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      void* page = free_.back();
      free_.pop_back();
      return page;
    }
    if (max_bytes_ != 0 && (all_.size() + 1) * page_bytes_ > max_bytes_) {
      return nullptr;  // budget exhausted — caller surfaces the status
    }
  }
  // Anonymous mappings are zero-filled and OS-page aligned. Populating
  // faults the page in on the calling thread: first touch homes it on the
  // caller's NUMA node, which is the lane worker for pooled agent state.
  int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_POPULATE
  flags |= MAP_POPULATE;
#endif
  void* page = mmap(nullptr, page_bytes_, PROT_READ | PROT_WRITE, flags, -1, 0);
  if (page == MAP_FAILED) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  all_.push_back(page);
  if (all_.size() > peak_pages_) peak_pages_ = all_.size();
  return page;
}

void PagePool::Free(void* page) {
  SQLB_CHECK(page != nullptr, "freeing a null page");
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(page);
}

std::size_t PagePool::pages_reserved() const {
  std::lock_guard<std::mutex> lock(mu_);
  return all_.size();
}

std::size_t PagePool::pages_free() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

std::size_t PagePool::bytes_reserved() const {
  return pages_reserved() * page_bytes_;
}

std::size_t PagePool::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_pages_ * page_bytes_;
}

SlabPool::SlabPool(PagePool* pages, std::size_t block_bytes)
    : pages_(pages),
      block_bytes_((block_bytes + alignof(std::max_align_t) - 1) &
                   ~(alignof(std::max_align_t) - 1)) {
  SQLB_CHECK(pages_ != nullptr, "slab pool needs a page pool");
  SQLB_CHECK(block_bytes_ >= sizeof(FreeNode) &&
                 block_bytes_ <= pages_->page_bytes(),
             "slab block size out of range");
}

void* SlabPool::Allocate() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_ != nullptr) {
      FreeNode* node = free_;
      free_ = node->next;
      ++live_;
      if (live_ > peak_) peak_ = live_;
      return node;
    }
  }
  void* page = pages_->Allocate();
  if (page == nullptr) return nullptr;
  const std::size_t blocks = pages_->page_bytes() / block_bytes_;
  char* base = static_cast<char*>(page);
  std::lock_guard<std::mutex> lock(mu_);
  // Thread blocks [1, n) onto the freelist in address order; hand out
  // block 0 directly.
  for (std::size_t b = blocks; b-- > 1;) {
    FreeNode* node = reinterpret_cast<FreeNode*>(base + b * block_bytes_);
    node->next = free_;
    free_ = node;
  }
  ++live_;
  if (live_ > peak_) peak_ = live_;
  return base;
}

void SlabPool::Free(void* block) {
  SQLB_CHECK(block != nullptr, "freeing a null block");
  std::lock_guard<std::mutex> lock(mu_);
  FreeNode* node = static_cast<FreeNode*>(block);
  node->next = free_;
  free_ = node;
  SQLB_CHECK(live_ > 0, "slab pool free without a live block");
  --live_;
}

std::size_t SlabPool::blocks_live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

std::size_t SlabPool::blocks_peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

}  // namespace sqlb::mem
