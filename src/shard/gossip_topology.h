#ifndef SQLB_SHARD_GOSSIP_TOPOLOGY_H_
#define SQLB_SHARD_GOSSIP_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// Gossip dissemination topologies for the sharded tier's load reports.
///
/// The original design ships every shard's report straight to the router
/// (kDirect): M messages per round, one hop each — fine at the paper's
/// scale, and kept as the default because its byte-for-byte behaviour is
/// part of the bit-identity pins. At fleet scale the alternative is
/// kHierarchical: live shards form a k-ary aggregation tree in rank order
/// (rank = position in the ascending live-shard list). Each shard sends its
/// report one hop up the tree; interior shards forward hop-by-hop (no
/// buffering, no timers — forwarding is deterministic and latency-only)
/// until the root, which hands reports to the router. A report from tree
/// depth d costs d + 1 messages, so a round costs sum over ranks of
/// (depth + 1) = O(M log_k M); with M = 64, k = 4 that is 229 messages,
/// where a full mesh (every shard to every peer and the router) would cost
/// M^2 = 4096. The price is staleness: each hop adds one network latency,
/// which the existing gossip.staleness_seconds histogram surfaces
/// (measured_at rides the report unchanged through every hop).
///
/// Dead shards are skipped by rank construction each round, so the tree
/// heals itself on the next cadence; a report in flight toward a relay
/// that died mid-hop is dropped and counted (gossip.relay_drops).

namespace sqlb::shard {

enum class GossipTopologyKind : std::uint8_t {
  /// Every live shard reports straight to the router: M messages, one hop.
  /// The default, byte-identical to the pre-topology code path.
  kDirect = 0,
  /// k-ary aggregation tree over the live shards; O(M log M) messages.
  kHierarchical = 1,
};

/// Parent of tree rank `rank` in a k-ary heap layout (rank 0 is the root;
/// precondition rank > 0): (rank - 1) / fanout.
std::size_t GossipParentRank(std::size_t rank, std::size_t fanout);

/// Hops from `rank` to the root (0 for the root itself).
std::size_t GossipDepthOfRank(std::size_t rank, std::size_t fanout);

/// Exact messages one hierarchical round costs over `live` shards: each
/// rank's report travels depth hops to the root plus one hop to the
/// router, so the total is sum_{r < live} (depth(r) + 1).
std::size_t HierarchicalMessagesPerRound(std::size_t live, std::size_t fanout);

/// The ascending list of live shard indices ("ranks"): rank r of the
/// round's tree is `live[r]`. Rebuilt per round, which is how the tree
/// routes around shards that died since the last cadence.
std::vector<std::uint32_t> LiveGossipRanks(
    std::size_t num_shards, const std::vector<std::uint8_t>& dead);

}  // namespace sqlb::shard

#endif  // SQLB_SHARD_GOSSIP_TOPOLOGY_H_
