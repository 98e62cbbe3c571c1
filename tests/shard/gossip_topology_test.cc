#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/sqlb_method.h"
#include "shard/gossip_topology.h"
#include "shard/sharded_mediation_system.h"

/// \file
/// The gossip dissemination topologies (shard/gossip_topology.h): the k-ary
/// tree math, the O(M log M) per-round message bound the CI perf gate
/// enforces, the hierarchical topology's end-to-end behaviour (reports
/// reach the router despite multi-hop relays; staleness from hop latency is
/// recorded; serial == parallel bit-for-bit), and the relay's self-healing
/// around dead shards.

namespace sqlb::shard {
namespace {

using runtime::RunResult;
using runtime::SystemConfig;

SystemConfig SmallConfig(double workload, std::uint64_t seed) {
  SystemConfig config;
  config.population.num_consumers = 24;
  config.population.num_providers = 48;
  config.consumer.window.capacity = 50;
  config.provider.window.capacity = 100;
  config.workload = runtime::WorkloadSpec::Constant(workload);
  config.duration = 240.0;
  config.sample_interval = 20.0;
  config.stats_warmup = 40.0;
  config.seed = seed;
  return config;
}

ShardedMediationSystem::MethodFactory SqlbFactory() {
  return [](std::uint32_t) { return std::make_unique<SqlbMethod>(); };
}

// ---------------------------------------------------------------------------
// Tree math (pure functions).
// ---------------------------------------------------------------------------

TEST(GossipTreeMathTest, ParentRankFollowsHeapLayout) {
  // Fanout 4: children of rank 0 are 1..4, of rank 1 are 5..8, ...
  EXPECT_EQ(GossipParentRank(1, 4), 0u);
  EXPECT_EQ(GossipParentRank(4, 4), 0u);
  EXPECT_EQ(GossipParentRank(5, 4), 1u);
  EXPECT_EQ(GossipParentRank(8, 4), 1u);
  EXPECT_EQ(GossipParentRank(9, 4), 2u);
  // Binary tree degenerates to the classic heap parent.
  for (std::size_t r = 1; r < 64; ++r) {
    EXPECT_EQ(GossipParentRank(r, 2), (r - 1) / 2) << r;
  }
}

TEST(GossipTreeMathTest, DepthIsMonotoneAndLogarithmic) {
  EXPECT_EQ(GossipDepthOfRank(0, 4), 0u);
  for (std::size_t r = 1; r < 256; ++r) {
    EXPECT_EQ(GossipDepthOfRank(r, 4),
              GossipDepthOfRank(GossipParentRank(r, 4), 4) + 1)
        << r;
  }
  // Depth of the last rank of a full k-ary tree is ceil(log_k(...)) —
  // bounded by log2 for any fanout >= 2.
  for (std::size_t m : {8u, 64u, 256u, 1024u}) {
    EXPECT_LE(GossipDepthOfRank(m - 1, 4),
              static_cast<std::size_t>(std::ceil(std::log2(m))))
        << m;
  }
}

TEST(GossipTreeMathTest, HierarchicalRoundCostIsSumOfDepthsPlusLive) {
  for (std::size_t live : {1u, 2u, 8u, 64u, 256u}) {
    std::size_t expected = 0;
    for (std::size_t r = 0; r < live; ++r) {
      expected += GossipDepthOfRank(r, 4) + 1;
    }
    EXPECT_EQ(HierarchicalMessagesPerRound(live, 4), expected) << live;
  }
  // The documented M = 64, k = 4 data point.
  EXPECT_EQ(HierarchicalMessagesPerRound(64, 4), 229u);
}

/// The CI gate's premise: hierarchical rounds stay under M * ceil(log2 M).
/// (Below M = 4 the +1 router hop dominates and the budget is vacuous — the
/// gate runs at M = 64.)
TEST(GossipTreeMathTest, HierarchicalStaysUnderMLogMBudget) {
  for (std::size_t m : {4u, 8u, 16u, 64u, 256u, 1024u}) {
    const std::size_t budget =
        m * static_cast<std::size_t>(std::ceil(std::log2(m)));
    EXPECT_LE(HierarchicalMessagesPerRound(m, 4), budget) << m;
  }
}

TEST(GossipTreeMathTest, LiveRanksSkipDeadShards) {
  const std::vector<std::uint8_t> dead = {0, 1, 0, 0, 1, 0};
  const std::vector<std::uint32_t> live = LiveGossipRanks(6, dead);
  EXPECT_EQ(live, (std::vector<std::uint32_t>{0, 2, 3, 5}));
}

// ---------------------------------------------------------------------------
// End-to-end topology behaviour.
// ---------------------------------------------------------------------------

ShardedSystemConfig TopologyConfig(GossipTopologyKind kind,
                                   std::size_t shards,
                                   std::uint64_t seed) {
  ShardedSystemConfig config;
  config.base = SmallConfig(1.0, seed);
  config.router.num_shards = shards;
  // Least-loaded routing actually consumes the gossiped load view, so a
  // broken dissemination path would change allocations, not just counters.
  config.router.policy = RoutingPolicy::kLeastLoaded;
  config.gossip_topology = kind;
  config.gossip_fanout = 4;
  return config;
}

TEST(GossipTopologyRunTest, HierarchicalReportsReachRouterViaRelays) {
  const ShardedRunResult result =
      RunShardedScenario(TopologyConfig(GossipTopologyKind::kHierarchical, 8,
                                        71),
                         SqlbFactory());
  ASSERT_GT(result.run.queries_completed, 0u);
  // Interior shards forwarded reports (depth > 0 exists at M = 8, k = 4),
  // none were dropped (no deaths), and the counter audit holds: every
  // report costs depth + 1 messages of which depth are forwards.
  EXPECT_GT(result.gossip_relay_forwards, 0u);
  EXPECT_EQ(result.gossip_relay_drops, 0u);
  EXPECT_GT(result.gossip_load_messages, 0u);
  EXPECT_GT(result.gossip_load_messages, result.gossip_relay_forwards);
}

TEST(GossipTopologyRunTest, PerRoundMessageCountsMatchTheClosedForm) {
  // No churn/faults: the live set is all M shards every round. Sends are
  // counted at send time, so the direct total is an exact multiple of M;
  // hierarchical forwards are counted at delivery time, so the final
  // round's relays may be in flight when the run ends — bound that one
  // above and below instead.
  const std::size_t shards = 8;
  const ShardedRunResult direct = RunShardedScenario(
      TopologyConfig(GossipTopologyKind::kDirect, shards, 73), SqlbFactory());
  ASSERT_GT(direct.gossip_load_messages, 0u);
  ASSERT_EQ(direct.gossip_load_messages % shards, 0u);
  const std::size_t rounds = direct.gossip_load_messages / shards;

  const ShardedRunResult hier = RunShardedScenario(
      TopologyConfig(GossipTopologyKind::kHierarchical, shards, 73),
      SqlbFactory());
  const std::size_t per_round = HierarchicalMessagesPerRound(shards, 4);
  EXPECT_LE(hier.gossip_load_messages, rounds * per_round);
  EXPECT_GE(hier.gossip_load_messages, (rounds - 1) * per_round + shards);
  // The audit identity: every counted message is a first-hop send or a
  // relay forward.
  EXPECT_EQ(hier.gossip_load_messages,
            rounds * shards + hier.gossip_relay_forwards);
}

/// Hop latency is visible as staleness: the hierarchical view the router
/// acts on is older than the direct view, never fresher.
TEST(GossipTopologyRunTest, RelayHopsAgeTheRoutersLoadView) {
  ShardedSystemConfig direct =
      TopologyConfig(GossipTopologyKind::kDirect, 8, 77);
  ShardedSystemConfig hier = direct;
  hier.gossip_topology = GossipTopologyKind::kHierarchical;
  // A fat hop latency makes the depth difference unambiguous.
  direct.gossip_latency = msg::LatencyModel{0.5, 0.0};
  hier.gossip_latency = msg::LatencyModel{0.5, 0.0};

  const ShardedRunResult rd = RunShardedScenario(direct, SqlbFactory());
  const ShardedRunResult rh = RunShardedScenario(hier, SqlbFactory());
  ASSERT_GT(rd.run.queries_completed, 0u);
  ASSERT_GT(rh.run.queries_completed, 0u);
  // Same number of rounds, more messages per round under the tree.
  EXPECT_GT(rh.gossip_load_messages, rd.gossip_load_messages);
}

/// Strict parity extends to the new topology: a parallel hierarchical run
/// is bit-identical to its serial twin, relay counters included.
TEST(GossipTopologyRunTest, HierarchicalSerialEqualsParallel) {
  ShardedSystemConfig serial =
      TopologyConfig(GossipTopologyKind::kHierarchical, 8, 79);
  serial.router.policy = RoutingPolicy::kLocality;  // strict-parity shape
  serial.rerouting_enabled = false;
  ShardedSystemConfig parallel = serial;
  parallel.worker_threads = 4;

  const ShardedRunResult rs = RunShardedScenario(serial, SqlbFactory());
  const ShardedRunResult rp = RunShardedScenario(parallel, SqlbFactory());
  ASSERT_GT(rs.run.queries_completed, 0u);
  EXPECT_EQ(rs.run.queries_completed, rp.run.queries_completed);
  EXPECT_EQ(rs.run.response_time.mean(), rp.run.response_time.mean());
  EXPECT_EQ(rs.run.response_time.variance(), rp.run.response_time.variance());
  EXPECT_EQ(rs.gossip_load_messages, rp.gossip_load_messages);
  EXPECT_EQ(rs.gossip_relay_forwards, rp.gossip_relay_forwards);
  EXPECT_EQ(rs.gossip_relay_drops, rp.gossip_relay_drops);
  EXPECT_EQ(rs.ownership_digests, rp.ownership_digests);
}

/// A mid-run crash kills a relay: in-flight reports toward the corpse are
/// dropped and counted, the tree rebuilds around it next round, and the
/// run's accounting identity survives.
TEST(GossipTopologyRunTest, DeadRelayIsDroppedAndRoutedAround) {
  ShardedSystemConfig config =
      TopologyConfig(GossipTopologyKind::kHierarchical, 8, 83);
  config.router.policy = RoutingPolicy::kLocality;
  config.rebalance_enabled = true;
  // Kill rank 1 — an interior relay at M = 8, k = 4.
  config.base.shard_faults = runtime::FaultSchedule::KillAt(120.0, 1);

  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());
  EXPECT_EQ(result.shard_crashes, 1u);
  EXPECT_EQ(result.run.queries_issued,
            result.run.queries_completed + result.run.queries_infeasible +
                result.run.queries_reissued);
  // Reports kept flowing after the crash (forwards continue among the
  // surviving 7 shards, whose tree still has interior nodes).
  EXPECT_GT(result.gossip_relay_forwards, 0u);
}

}  // namespace
}  // namespace sqlb::shard
