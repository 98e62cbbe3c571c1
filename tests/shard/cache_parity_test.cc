#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/sqlb_method.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

/// \file
/// The characterization-cache bit-identity contract: a run with
/// SystemConfig::characterization_cache on is bit-for-bit the run with it
/// off — same counters, same response-time statistics, same series, same
/// ownership digests — across every intake and membership path the cache
/// interacts with: single-query Allocate, batched AllocateBatch,
/// re-routing, provider churn with rebalancing handoffs, and the
/// Section 6.3.2 departure rules. The cache may only change *when* provider
/// state is read, never what any read returns, and these tests are the
/// enforcement.

namespace sqlb::shard {
namespace {

using runtime::ChurnSchedule;
using runtime::RunResult;
using runtime::SystemConfig;

SystemConfig SmallConfig(double workload, std::uint64_t seed) {
  SystemConfig config;
  config.population.num_consumers = 20;
  config.population.num_providers = 40;
  config.consumer.window.capacity = 50;
  config.provider.window.capacity = 100;
  config.workload = runtime::WorkloadSpec::Constant(workload);
  config.duration = 240.0;
  config.sample_interval = 20.0;
  config.stats_warmup = 40.0;
  config.seed = seed;
  return config;
}

void ExpectIdenticalRuns(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_infeasible, b.queries_infeasible);
  EXPECT_EQ(a.provider_joins, b.provider_joins);
  EXPECT_EQ(a.response_time.count(), b.response_time.count());
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.response_time.variance(), b.response_time.variance());
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
  }
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.ring_epoch, b.ring_epoch);
  EXPECT_EQ(a.handoffs_completed, b.handoffs_completed);
  EXPECT_EQ(a.batch_flushes, b.batch_flushes);
  EXPECT_EQ(a.batched_queries, b.batched_queries);
  // The ownership sequence pins the re-partitioning protocol itself.
  EXPECT_EQ(a.ownership_digests, b.ownership_digests);
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

TEST(CacheParityTest, MonoRunIsBitIdenticalWithCacheOff) {
  SystemConfig cached = SmallConfig(0.9, 17);
  cached.departures = runtime::DepartureConfig::AllEnabled();
  cached.departures.grace_period = 60.0;
  cached.departures.check_interval = 30.0;
  SystemConfig uncached = cached;
  uncached.characterization_cache = false;

  const RunResult ra = RunMono(cached);
  const RunResult rb = RunMono(uncached);
  ASSERT_GT(ra.queries_completed, 0u);
  ExpectIdenticalRuns(ra, rb);
}

/// Randomized configuration sweep: each trial draws an interleaving of the
/// cache's interaction surfaces — batched vs inline intake, routing policy,
/// rerouting + saturation bounces, churn with rebalancing handoffs,
/// departure rules — and pins cache-on == cache-off bit-for-bit.
TEST(CacheParityTest, RandomizedScenariosAreBitIdenticalWithCacheOff) {
  Rng rng(0xcafe5eedULL);
  for (int trial = 0; trial < 6; ++trial) {
    const double workload = 0.7 + 0.1 * static_cast<double>(rng.NextBounded(5));
    SystemConfig base = SmallConfig(workload, 100 + trial);

    const bool with_departures = rng.NextBounded(2) == 0;
    if (with_departures) {
      base.departures = runtime::DepartureConfig::AllEnabled();
      base.departures.grace_period = 60.0;
      base.departures.check_interval = 30.0;
    }
    const bool with_churn = rng.NextBounded(2) == 0;
    if (with_churn) {
      base.provider_churn = ChurnSchedule::LeaveAndRejoin(
          base.duration / 3.0, 2.0 * base.duration / 3.0, /*first=*/0,
          /*count=*/base.population.num_providers / 4);
    }

    ShardedSystemConfig config;
    config.base = base;
    config.router.num_shards = 1 + rng.NextBounded(4) * 2;  // 1, 3, 5, 7
    config.router.policy = static_cast<RoutingPolicy>(rng.NextBounded(3));
    config.rerouting_enabled = rng.NextBounded(2) == 0;
    config.saturation_backlog_seconds =
        config.rerouting_enabled ? 5.0 * static_cast<double>(rng.NextBounded(3))
                                 : 0.0;
    config.batch_window = rng.NextBounded(2) == 0 ? 0.5 : 0.0;
    config.rebalance_enabled = with_churn;

    SCOPED_TRACE("trial " + std::to_string(trial) + " shards " +
                 std::to_string(config.router.num_shards) + " policy " +
                 RoutingPolicyName(config.router.policy) + " batch " +
                 std::to_string(config.batch_window) + " churn " +
                 std::to_string(with_churn) + " departures " +
                 std::to_string(with_departures));

    ShardedSystemConfig uncached = config;
    uncached.base.characterization_cache = false;

    const ShardedRunResult cached_run =
        RunShardedScenario(config, SqlbFactory());
    const ShardedRunResult uncached_run =
        RunShardedScenario(uncached, SqlbFactory());
    ASSERT_GT(cached_run.run.queries_completed, 0u);
    ExpectIdenticalShardedRuns(cached_run, uncached_run);
  }
}

/// Adaptive windows compose with the cache: cache-on == cache-off under the
/// per-shard controller, and the adaptive run actually batches.
TEST(CacheParityTest, AdaptiveBatchingIsBitIdenticalWithCacheOff) {
  SystemConfig base = SmallConfig(1.0, 51);
  ShardedSystemConfig config;
  config.base = base;
  config.router.num_shards = 4;
  config.router.policy = RoutingPolicy::kLeastLoaded;
  config.adaptive_batch.enabled = true;
  config.adaptive_batch.max_window = 1.5;

  ShardedSystemConfig uncached = config;
  uncached.base.characterization_cache = false;

  const ShardedRunResult cached_run = RunShardedScenario(config, SqlbFactory());
  const ShardedRunResult uncached_run =
      RunShardedScenario(uncached, SqlbFactory());
  EXPECT_GT(cached_run.batch_flushes, 0u);
  ExpectIdenticalShardedRuns(cached_run, uncached_run);
}

}  // namespace
}  // namespace sqlb::shard
