#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "mem/agent_arena.h"
#include "mem/chunked_fifo.h"
#include "mem/page_pool.h"
#include "mem/paged_ring.h"

/// \file
/// The pooled agent-state substrate's contracts: page alignment and
/// zero-fill, freelist recycling (a churn/failover free wave feeds the next
/// admission; pages return to the OS only when their pool dies), the byte
/// budget surfacing as a
/// nullptr status instead of an abort, chunk ownership surviving cross-pool
/// frees, and PagedRing replicating RingBuffer's push/eviction arithmetic
/// exactly.

namespace sqlb::mem {
namespace {

TEST(PagePoolTest, PagesAreAlignedAndZeroFilled) {
  PagePool pool(PagePool::kDefaultPageBytes);
  void* page = pool.Allocate();
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(page) % PagePool::kPageAlignment,
            0u);
  const unsigned char* bytes = static_cast<const unsigned char*>(page);
  for (std::size_t i = 0; i < pool.page_bytes(); ++i) {
    ASSERT_EQ(bytes[i], 0u) << "byte " << i;
  }
  pool.Free(page);
}

TEST(PagePoolTest, FreedPagesAreRecycledNotReturned) {
  PagePool pool;
  std::vector<void*> wave;
  for (int i = 0; i < 8; ++i) wave.push_back(pool.Allocate());
  const std::size_t reserved = pool.pages_reserved();
  EXPECT_EQ(reserved, 8u);

  // A churn/failover-style free wave: everything back to the freelist.
  for (void* page : wave) pool.Free(page);
  EXPECT_EQ(pool.pages_reserved(), reserved);  // never returned to the OS
  EXPECT_EQ(pool.pages_free(), reserved);

  // The next admission wave reuses those exact pages.
  std::set<void*> recycled;
  for (int i = 0; i < 8; ++i) recycled.insert(pool.Allocate());
  EXPECT_EQ(pool.pages_reserved(), reserved);  // no new reservation
  for (void* page : wave) EXPECT_TRUE(recycled.count(page)) << page;
  for (void* page : recycled) pool.Free(page);
}

TEST(PagePoolTest, ByteBudgetExhaustionReturnsNull) {
  PagePool pool(PagePool::kDefaultPageBytes,
                /*max_bytes=*/2 * PagePool::kDefaultPageBytes);
  void* a = pool.Allocate();
  void* b = pool.Allocate();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.Allocate(), nullptr);  // budget, not abort
  pool.Free(a);
  EXPECT_NE(pool.Allocate(), nullptr);  // freed budget is usable again
}

TEST(PagePoolTest, MappedPagesAlignZeroRecycleAndKeepTheBudget) {
  for (std::size_t page_bytes :
       {std::size_t{4096}, PagePool::kDefaultPageBytes, std::size_t{1} << 20}) {
    SCOPED_TRACE(page_bytes);
    // The second round maps its pages after the first pool unmapped its
    // dirtied ones: fresh pages are zero again.
    for (int round = 0; round < 2; ++round) {
      PagePool pool(page_bytes, /*max_bytes=*/3 * page_bytes);
      std::vector<void*> pages;
      for (int i = 0; i < 3; ++i) {
        void* page = pool.Allocate();
        ASSERT_NE(page, nullptr);
        EXPECT_EQ(
            reinterpret_cast<std::uintptr_t>(page) % PagePool::kPageAlignment,
            0u);
        const unsigned char* bytes = static_cast<const unsigned char*>(page);
        for (std::size_t b = 0; b < page_bytes; ++b) {
          ASSERT_EQ(bytes[b], 0u) << "byte " << b;
        }
        std::memset(page, 0xab, page_bytes);
        pages.push_back(page);
      }
      EXPECT_EQ(pool.Allocate(), nullptr);  // the budget still refuses
      pool.Free(pages[1]);
      EXPECT_EQ(pool.Allocate(), pages[1]);  // recycled through the freelist
      EXPECT_EQ(static_cast<const unsigned char*>(pages[1])[0], 0xab);
      EXPECT_EQ(pool.pages_reserved(), 3u);
      for (void* page : pages) pool.Free(page);
    }
  }
}

TEST(PagePoolTest, PeakBytesTracksHighWater) {
  PagePool pool;
  void* a = pool.Allocate();
  void* b = pool.Allocate();
  EXPECT_EQ(pool.peak_bytes(), 2 * pool.page_bytes());
  pool.Free(a);
  pool.Free(b);
  EXPECT_EQ(pool.peak_bytes(), 2 * pool.page_bytes());  // monotone
}

TEST(SlabPoolTest, BlocksAreMaxAlignedWithinPages) {
  PagePool pages;
  SlabPool slabs(&pages, kAgentChunkBytes);
  for (int i = 0; i < 200; ++i) {
    void* block = slabs.Allocate();
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) %
                  alignof(std::max_align_t),
              0u);
  }
  EXPECT_EQ(slabs.blocks_live(), 200u);
  EXPECT_GE(slabs.blocks_peak(), 200u);
}

TEST(SlabPoolTest, FreelistRecyclesAcrossChurnWaves) {
  PagePool pages;
  SlabPool slabs(&pages, kAgentChunkBytes);
  std::vector<void*> wave;
  for (int i = 0; i < 300; ++i) wave.push_back(slabs.Allocate());
  const std::size_t pages_after_wave = pages.pages_reserved();
  for (void* block : wave) slabs.Free(block);
  EXPECT_EQ(slabs.blocks_live(), 0u);
  // The re-admission wave draws entirely from recycled blocks.
  for (int i = 0; i < 300; ++i) ASSERT_NE(slabs.Allocate(), nullptr);
  EXPECT_EQ(pages.pages_reserved(), pages_after_wave);
}

TEST(SlabPoolTest, BudgetExhaustionSurfacesAsNull) {
  PagePool pages(PagePool::kDefaultPageBytes,
                 /*max_bytes=*/PagePool::kDefaultPageBytes);
  SlabPool slabs(&pages, kAgentChunkBytes);
  std::vector<void*> blocks;
  void* block;
  while ((block = slabs.Allocate()) != nullptr) blocks.push_back(block);
  EXPECT_EQ(blocks.size(), PagePool::kDefaultPageBytes / kAgentChunkBytes);
  slabs.Free(blocks.back());
  blocks.pop_back();
  EXPECT_NE(slabs.Allocate(), nullptr);
}

TEST(ChunkedFifoTest, FifoOrderAcrossChunkBoundaries) {
  ChunkedFifo<std::uint64_t> fifo;
  const std::size_t n = ChunkedFifo<std::uint64_t>::kChunkCapacity * 3 + 7;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(fifo.push_back(i, nullptr));
  }
  EXPECT_EQ(fifo.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(fifo.front(), i);
    fifo.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(ChunkedFifoTest, SteadyStateRetainsOneChunk) {
  ChunkedFifo<int> fifo;
  ASSERT_TRUE(fifo.push_back(1, nullptr));
  const std::size_t one_chunk = fifo.resident_bytes();
  EXPECT_EQ(one_chunk, kAgentChunkBytes);
  for (int i = 0; i < 1000; ++i) {
    fifo.pop_front();
    ASSERT_TRUE(fifo.push_back(i, nullptr));
    ASSERT_EQ(fifo.resident_bytes(), one_chunk);  // allocator never touched
  }
}

TEST(ChunkedFifoTest, PooledChunksReturnToOwnerAfterCrossPoolMigration) {
  PagePool pages_a, pages_b;
  SlabPool slabs_a(&pages_a, kAgentChunkBytes);
  SlabPool slabs_b(&pages_b, kAgentChunkBytes);

  // Fill on arena A (the provider's original shard)...
  ChunkedFifo<std::uint64_t> fifo;
  const std::size_t n = ChunkedFifo<std::uint64_t>::kChunkCapacity * 4;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(fifo.push_back(i, &slabs_a));
  }
  const std::size_t live_a = slabs_a.blocks_live();
  ASSERT_GE(live_a, 4u);

  // ...migrate (move), then keep growing on arena B while draining: the
  // churn-handoff shape. A-chunks must drain back to pool A, B-chunks to B.
  ChunkedFifo<std::uint64_t> migrated(std::move(fifo));
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(migrated.push_back(n + i, &slabs_b));
  }
  for (std::uint64_t i = 0; i < 2 * n; ++i) {
    ASSERT_EQ(migrated.front(), i);
    migrated.pop_front();
  }
  migrated.Clear();
  EXPECT_EQ(slabs_a.blocks_live(), 0u);
  EXPECT_EQ(slabs_b.blocks_live(), 0u);
}

TEST(ChunkedFifoTest, PoolExhaustionLeavesQueueUnchanged) {
  PagePool pages(/*page_bytes=*/4096, /*max_bytes=*/4096);
  SlabPool slabs(&pages, kAgentChunkBytes);
  ChunkedFifo<std::uint64_t> fifo;
  std::uint64_t pushed = 0;
  while (fifo.push_back(pushed, &slabs)) ++pushed;
  ASSERT_GT(pushed, 0u);
  const std::size_t size_at_oom = fifo.size();
  EXPECT_FALSE(fifo.push_back(999, &slabs));  // still out of budget
  EXPECT_EQ(fifo.size(), size_at_oom);
  for (std::uint64_t i = 0; i < size_at_oom; ++i) {
    ASSERT_EQ(fifo.front(), i);  // contents untouched by the failed pushes
    fifo.pop_front();
  }
}

TEST(PagedRingTest, MatchesRingBufferPushEvictionArithmetic) {
  // Reference semantics: size < capacity appends; at capacity the oldest is
  // evicted and returned. Mirror against a plain vector model, at one slot,
  // one full chunk, a chunk plus one, and multi-chunk rings, both backings.
  constexpr std::size_t kChunk = PagedRing<double>::kChunkCapacity;
  for (std::size_t capacity : {std::size_t{1}, kChunk, kChunk + 1,
                               std::size_t{37}, std::size_t{500}}) {
    for (bool lazy : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "capacity " << capacity
                                        << (lazy ? " lazy" : " eager"));
      PagedRing<double> ring(capacity, lazy);
      std::vector<double> model;
      std::size_t model_head = 0;
      const int pushes = static_cast<int>(3 * capacity) + 500;
      for (int i = 0; i < pushes; ++i) {
        const double value = 0.25 * i;
        double evicted = -1.0;
        const bool did_evict = ring.Push(value, &evicted);
        if (model.size() < capacity) {
          model.push_back(value);
          EXPECT_FALSE(did_evict);
        } else {
          EXPECT_TRUE(did_evict);
          EXPECT_EQ(evicted, model[model_head]);
          model[model_head] = value;
          model_head = (model_head + 1) % capacity;
        }
        ASSERT_EQ(ring.size(), model.size());
        for (std::size_t k = 0; k < ring.size(); ++k) {
          ASSERT_EQ(ring.at(k), model[(model_head + k) % capacity]) << k;
        }
      }
    }
  }
}

TEST(PagedRingTest, CursorPushMatchesDequeAcrossWrapsMovesAndRewires) {
  // Push writes through a cursor that is recomputed only at a chunk's end.
  // Against a std::deque reference, at every step: the evicted value and
  // every at(i), over several wraps, with the ring move-constructed at each
  // chunk boundary and mid-chunk, and its pool rewired mid-run. The 16-byte
  // element is the provider window's entry size.
  struct Entry {
    double a;
    double b;
  };
  using Ring = PagedRing<Entry>;
  constexpr std::size_t kChunk = Ring::kChunkCapacity;
  AgentPoolConfig config;
  config.enabled = true;
  AgentArena first(config);
  AgentArena second(config);
  for (std::size_t capacity : {std::size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                               2 * kChunk, std::size_t{500}}) {
    for (bool lazy : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "capacity " << capacity
                                        << (lazy ? " lazy" : " eager"));
      auto ring = std::make_unique<Ring>(capacity, lazy);
      ring->set_pool(first.slabs());
      std::deque<Entry> model;
      const std::size_t pushes = 3 * capacity + 2 * kChunk + 5;
      for (std::size_t step = 0; step < pushes; ++step) {
        // The next slot's physical index is step % capacity.
        const std::size_t in_chunk = step % capacity % kChunk;
        if (in_chunk == 0 || in_chunk == kChunk / 2) {
          const std::size_t resident = ring->resident_chunks();
          ring = std::make_unique<Ring>(std::move(*ring));
          ASSERT_EQ(ring->resident_chunks(), resident);
        }
        if (step == pushes / 2) ring->set_pool(second.slabs());
        const Entry value{0.5 * static_cast<double>(step),
                          -static_cast<double>(step)};
        Entry evicted{-1.0, -1.0};
        const bool did_evict = ring->Push(value, &evicted);
        model.push_back(value);
        ASSERT_EQ(did_evict, model.size() > capacity) << step;
        if (did_evict) {
          ASSERT_EQ(evicted.a, model.front().a) << step;
          ASSERT_EQ(evicted.b, model.front().b) << step;
          model.pop_front();
        }
        ASSERT_EQ(ring->size(), model.size());
        for (std::size_t i = 0; i < model.size(); ++i) {
          ASSERT_EQ(ring->at(i).a, model[i].a) << step << " " << i;
          ASSERT_EQ(ring->at(i).b, model[i].b) << step << " " << i;
        }
      }
    }
  }
  EXPECT_EQ(first.slabs()->blocks_live(), 0u);
  EXPECT_EQ(second.slabs()->blocks_live(), 0u);
}

TEST(PagedRingTest, ThirtyTwoBitIndicesPayForTheCursor) {
  // Every provider window holds a ring. Five word-sized fields (the chunk
  // table, the resident count, the pool, the cursor and its chunk end) and
  // four 32-bit indices: 56 bytes on a 64-bit target, the ring's size
  // before it had a cursor.
  EXPECT_EQ(sizeof(PagedRing<double>),
            5 * sizeof(void*) + 4 * sizeof(std::uint32_t));
}

TEST(PagedRingTest, LazyModeMaterializesChunksOnDemand) {
  const std::size_t capacity = 1000;  // many chunks worth of doubles
  PagedRing<double> lazy(capacity, /*lazy=*/true);
  EXPECT_EQ(lazy.resident_bytes(), 0u);
  lazy.Push(1.0);
  EXPECT_EQ(lazy.resident_chunks(), 1u);  // one slot -> one chunk

  PagedRing<double> eager(capacity, /*lazy=*/false);
  const std::size_t full =
      (capacity + PagedRing<double>::kChunkCapacity - 1) /
      PagedRing<double>::kChunkCapacity;
  EXPECT_EQ(eager.resident_chunks(), full);
}

TEST(PagedRingTest, PooledChunksDrainToOriginArena) {
  AgentPoolConfig config;
  config.enabled = true;
  AgentArena arena(config);
  {
    PagedRing<double> ring(256, /*lazy=*/true);
    ring.set_pool(arena.slabs());
    for (int i = 0; i < 256; ++i) ring.Push(static_cast<double>(i));
    EXPECT_GT(arena.slabs()->blocks_live(), 0u);
    EXPECT_GT(arena.bytes_reserved(), 0u);
  }
  EXPECT_EQ(arena.slabs()->blocks_live(), 0u);  // destructor returned all
}

TEST(AgentArenaTest, DisabledConfigStillConstructsUsableArena) {
  // The arena type itself is mode-agnostic; enablement is decided by the
  // AgentStore wiring (runtime/agent_store.h), not here.
  AgentPoolConfig config;
  config.enabled = false;
  AgentArena arena(config);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  void* block = arena.slabs()->Allocate();
  EXPECT_NE(block, nullptr);
  arena.slabs()->Free(block);
}

}  // namespace
}  // namespace sqlb::mem
