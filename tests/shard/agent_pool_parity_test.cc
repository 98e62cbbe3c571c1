#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sqlb_method.h"
#include "shard/shard_router.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

/// \file
/// The pooled agent-state bit-identity contract (runtime/agent_store.h,
/// mem/): a run with SystemConfig::agent_pool.enabled (the default) is
/// bit-for-bit the run with the eager heap layout — same counters, same
/// response-time statistics, same series, same ownership digests — across
/// every path that moves agent state between containers: single-query and
/// batched intake, churn-driven rebalancing handoffs (resident chunks
/// migrate across arenas and drain to their origin), mediator crashes with
/// snapshot-restore failover, and the Section 6.3.2 departure rules. The
/// pool may only change *where* queue and window storage lives, never a
/// single arithmetic result, and this suite is the enforcement — the
/// pooled twin of tests/shard/cache_parity_test.cc.

namespace sqlb::shard {
namespace {

using runtime::ChurnSchedule;
using runtime::FaultSchedule;
using runtime::RunResult;
using runtime::SystemConfig;

SystemConfig SmallConfig(double workload, std::uint64_t seed) {
  SystemConfig config;
  config.population.num_consumers = 20;
  config.population.num_providers = 40;
  config.consumer.window.capacity = 50;
  config.provider.window.capacity = 100;
  config.workload = runtime::WorkloadSpec::Constant(workload);
  config.duration = 300.0;
  config.sample_interval = 25.0;
  config.stats_warmup = 50.0;
  config.seed = seed;
  return config;
}

void ExpectIdenticalRuns(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_infeasible, b.queries_infeasible);
  EXPECT_EQ(a.queries_reissued, b.queries_reissued);
  EXPECT_EQ(a.provider_joins, b.provider_joins);
  EXPECT_EQ(a.response_time.count(), b.response_time.count());
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.response_time.variance(), b.response_time.variance());
  EXPECT_EQ(a.response_time_all.count(), b.response_time_all.count());
  EXPECT_EQ(a.response_time_all.sum(), b.response_time_all.sum());
  EXPECT_EQ(a.remaining_providers, b.remaining_providers);
  EXPECT_EQ(a.remaining_consumers, b.remaining_consumers);
  ASSERT_EQ(a.departures.size(), b.departures.size());
  for (std::size_t i = 0; i < a.departures.size(); ++i) {
    EXPECT_EQ(a.departures[i].time, b.departures[i].time) << i;
    EXPECT_EQ(a.departures[i].participant_index,
              b.departures[i].participant_index)
        << i;
  }
  const std::vector<std::string> names = a.series.Names();
  ASSERT_EQ(names, b.series.Names());
  for (const std::string& name : names) {
    const des::TimeSeries* sa = a.series.Find(name);
    const des::TimeSeries* sb = b.series.Find(name);
    ASSERT_EQ(sa->samples.size(), sb->samples.size()) << name;
    for (std::size_t i = 0; i < sa->samples.size(); ++i) {
      EXPECT_EQ(sa->samples[i].first, sb->samples[i].first)
          << name << " sample " << i;
      EXPECT_EQ(sa->samples[i].second, sb->samples[i].second)
          << name << " sample " << i;
    }
  }
}

void ExpectIdenticalShardedRuns(const ShardedRunResult& a,
                                const ShardedRunResult& b) {
  ExpectIdenticalRuns(a.run, b.run);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].routed, b.shards[s].routed) << s;
    EXPECT_EQ(a.shards[s].allocated, b.shards[s].allocated) << s;
    EXPECT_EQ(a.shards[s].providers_in, b.shards[s].providers_in) << s;
    EXPECT_EQ(a.shards[s].providers_out, b.shards[s].providers_out) << s;
    EXPECT_EQ(a.shards[s].remaining_providers, b.shards[s].remaining_providers)
        << s;
  }
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.ring_epoch, b.ring_epoch);
  EXPECT_EQ(a.handoffs_started, b.handoffs_started);
  EXPECT_EQ(a.handoffs_completed, b.handoffs_completed);
  EXPECT_EQ(a.handoffs_cancelled, b.handoffs_cancelled);
  EXPECT_EQ(a.ownership_digests, b.ownership_digests);
  EXPECT_EQ(a.shard_crashes, b.shard_crashes);
  EXPECT_EQ(a.reissued_queries, b.reissued_queries);
  EXPECT_EQ(a.restored_providers, b.restored_providers);
  EXPECT_EQ(a.dropped_completions, b.dropped_completions);
  EXPECT_EQ(a.batch_flushes, b.batch_flushes);
  EXPECT_EQ(a.batched_queries, b.batched_queries);
}

ShardedMediationSystem::MethodFactory SqlbFactory() {
  return [](std::uint32_t) { return std::make_unique<SqlbMethod>(); };
}

/// `base` through sqlb::Service's Mode::kMono (the paper's mono-mediator).
RunResult RunMono(const SystemConfig& base) {
  sqlb::Config config;
  config.mode = Mode::kMono;
  config.scenario() = base;
  return Service::Create(config, SqlbFactory())->Run().run;
}

TEST(AgentPoolParityTest, MonoRunIsBitIdenticalWithPoolOn) {
  SystemConfig heap = SmallConfig(0.9, 23);
  heap.agent_pool.enabled = false;
  heap.departures = runtime::DepartureConfig::AllEnabled();
  heap.departures.grace_period = 60.0;
  heap.departures.check_interval = 30.0;
  SystemConfig pooled = heap;
  pooled.agent_pool.enabled = true;

  const RunResult ra = RunMono(heap);
  const RunResult rb = RunMono(pooled);
  ASSERT_GT(ra.queries_completed, 0u);
  ExpectIdenticalRuns(ra, rb);
}

/// Churn handoffs migrate live providers — with their resident pooled
/// chunks — between shards (and arenas). Pooled on/off must still match
/// bit-for-bit, and so must pooled serial vs pooled parallel.
TEST(AgentPoolParityTest, ChurnWithRebalancingIsBitIdenticalWithPoolOn) {
  SystemConfig base = SmallConfig(1.0, 31);

  ShardedSystemConfig heap;
  heap.base = base;
  heap.base.agent_pool.enabled = false;
  heap.router.num_shards = 4;
  heap.router.policy = RoutingPolicy::kLocality;
  heap.rerouting_enabled = false;
  heap.rebalance_enabled = true;
  heap.rebalance_interval = 40.0;
  // Gut shard 0: its entire initial membership leaves and later rejoins,
  // which provably moves ownership and drives seal->drain->transfer
  // handoffs — the path that migrates resident chunks between arenas.
  heap.base.provider_churn = ShardChurnSchedule(
      heap.router, /*shard=*/0, base.population.num_providers,
      /*leave_at=*/base.duration / 3.0,
      /*rejoin_at=*/2.0 * base.duration / 3.0);

  ShardedSystemConfig pooled = heap;
  pooled.base.agent_pool.enabled = true;

  const ShardedRunResult heap_run = RunShardedScenario(heap, SqlbFactory());
  const ShardedRunResult pooled_run = RunShardedScenario(pooled, SqlbFactory());
  ASSERT_GT(heap_run.run.queries_completed, 0u);
  ASSERT_GT(heap_run.handoffs_completed, 0u);  // chunks actually migrated
  ExpectIdenticalShardedRuns(heap_run, pooled_run);

  ShardedSystemConfig pooled_parallel = pooled;
  pooled_parallel.worker_threads = 4;
  const ShardedRunResult parallel_run =
      RunShardedScenario(pooled_parallel, SqlbFactory());
  ExpectIdenticalShardedRuns(pooled_run, parallel_run);
}

/// A mediator crash frees the dead shard's member slots and restores
/// providers from snapshots on the adopting shards; the freelist recycling
/// must leave no arithmetic trace.
TEST(AgentPoolParityTest, FailoverIsBitIdenticalWithPoolOn) {
  SystemConfig base = SmallConfig(1.2, 47);
  base.shard_faults = FaultSchedule::KillAt(150.0, 1);

  ShardedSystemConfig heap;
  heap.base = base;
  heap.base.agent_pool.enabled = false;
  heap.router.num_shards = 4;
  heap.router.policy = RoutingPolicy::kLocality;
  heap.rerouting_enabled = false;
  heap.rebalance_enabled = true;
  heap.rebalance_interval = 40.0;

  ShardedSystemConfig pooled = heap;
  pooled.base.agent_pool.enabled = true;

  const ShardedRunResult heap_run = RunShardedScenario(heap, SqlbFactory());
  const ShardedRunResult pooled_run = RunShardedScenario(pooled, SqlbFactory());
  EXPECT_EQ(heap_run.shard_crashes, 1u);
  ExpectIdenticalShardedRuns(heap_run, pooled_run);

  ShardedSystemConfig pooled_parallel = pooled;
  pooled_parallel.worker_threads = 3;
  const ShardedRunResult parallel_run =
      RunShardedScenario(pooled_parallel, SqlbFactory());
  ExpectIdenticalShardedRuns(pooled_run, parallel_run);
}

/// Batched intake composes with the pool (burst-mode scoring reads provider
/// state through the same store columns).
TEST(AgentPoolParityTest, BatchedIntakeIsBitIdenticalWithPoolOn) {
  ShardedSystemConfig heap;
  heap.base = SmallConfig(1.0, 59);
  heap.base.agent_pool.enabled = false;
  heap.router.num_shards = 4;
  heap.router.policy = RoutingPolicy::kLocality;
  heap.batch_window = 0.5;

  ShardedSystemConfig pooled = heap;
  pooled.base.agent_pool.enabled = true;

  const ShardedRunResult heap_run = RunShardedScenario(heap, SqlbFactory());
  const ShardedRunResult pooled_run = RunShardedScenario(pooled, SqlbFactory());
  EXPECT_GT(heap_run.batch_flushes, 0u);
  ExpectIdenticalShardedRuns(heap_run, pooled_run);
}

/// The pooled mode must actually pool: with the pool on — the default —
/// the engine's arenas hold the queue/window chunks that the heap mode
/// kept in per-agent containers.
TEST(AgentPoolParityTest, PooledRunReservesArenaPages) {
  sqlb::Config config;
  config.mode = Mode::kMono;
  config.scenario() = SmallConfig(1.0, 61);
  ASSERT_TRUE(config.scenario().agent_pool.enabled);
  const ShardedRunResult result =
      Service::Create(config, SqlbFactory())->Run();
  ASSERT_GT(result.run.queries_completed, 0u);
  EXPECT_GT(result.arena_bytes_reserved, 0u);
}

}  // namespace
}  // namespace sqlb::shard
