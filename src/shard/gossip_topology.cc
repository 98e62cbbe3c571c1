#include "shard/gossip_topology.h"

#include "common/status.h"

namespace sqlb::shard {

std::size_t GossipParentRank(std::size_t rank, std::size_t fanout) {
  SQLB_CHECK(rank > 0, "the tree root has no parent");
  SQLB_CHECK(fanout >= 1, "gossip fanout must be >= 1");
  return (rank - 1) / fanout;
}

std::size_t GossipDepthOfRank(std::size_t rank, std::size_t fanout) {
  std::size_t depth = 0;
  while (rank > 0) {
    rank = GossipParentRank(rank, fanout);
    ++depth;
  }
  return depth;
}

std::size_t HierarchicalMessagesPerRound(std::size_t live,
                                         std::size_t fanout) {
  std::size_t total = 0;
  for (std::size_t r = 0; r < live; ++r) {
    total += GossipDepthOfRank(r, fanout) + 1;
  }
  return total;
}

std::vector<std::uint32_t> LiveGossipRanks(
    std::size_t num_shards, const std::vector<std::uint8_t>& dead) {
  std::vector<std::uint32_t> live;
  live.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (s < dead.size() && dead[s]) continue;
    live.push_back(static_cast<std::uint32_t>(s));
  }
  return live;
}

}  // namespace sqlb::shard
