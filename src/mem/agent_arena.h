#ifndef SQLB_MEM_AGENT_ARENA_H_
#define SQLB_MEM_AGENT_ARENA_H_

#include <cstddef>
#include <memory>

#include "mem/page_pool.h"

/// \file
/// Per-lane arena for pooled agent state. Each mediation lane (shard) owns
/// one arena; agents homed on that shard draw their queue/window chunks from
/// it, so a lane's agent state lives in pages its own worker thread
/// first-touched (the NUMA placement policy — see mem/page_pool.h).

namespace sqlb::mem {

/// Configuration for the pooled agent-state tier (SystemConfig::agent_pool).
struct AgentPoolConfig {
  /// On (default): chunked queues and window rings allocate lazily, in
  /// first-touch order, from per-lane arenas of mapped pages. Off: agents
  /// keep the eager heap layout (every chunk allocated at construction),
  /// the bit-identical twin pinned in tests/shard/agent_pool_parity_test.cc.
  bool enabled = true;
  /// Page size of each arena's PagePool.
  std::size_t page_bytes = PagePool::kDefaultPageBytes;
  /// Byte budget per arena; 0 = unlimited. Exhaustion surfaces as a
  /// checked out-of-memory status at the allocating agent, not an abort
  /// inside the allocator.
  std::size_t max_bytes_per_arena = 0;
};

/// One lane's pools: a PagePool and the single agent-chunk block class.
class AgentArena {
 public:
  explicit AgentArena(const AgentPoolConfig& config);

  SlabPool* slabs() { return &slabs_; }
  const PagePool& pages() const { return pages_; }

  std::size_t bytes_reserved() const { return pages_.bytes_reserved(); }
  std::size_t peak_bytes() const { return pages_.peak_bytes(); }

 private:
  PagePool pages_;
  SlabPool slabs_;
};

}  // namespace sqlb::mem

#endif  // SQLB_MEM_AGENT_ARENA_H_
