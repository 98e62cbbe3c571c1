#include "shard/sharded_mediation_system.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/sqlb_method.h"
#include "methods/capacity_based.h"
#include "runtime/scenario_engine.h"
#include "shard/shard_router.h"

namespace sqlb::shard {
namespace {

using runtime::RunResult;
using runtime::ScenarioEngine;
using runtime::SystemConfig;

/// A scaled-down Table 2 setup that runs in milliseconds.
SystemConfig SmallConfig(double workload, std::uint64_t seed = 42) {
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

ShardedSystemConfig Sharded(const SystemConfig& base, std::size_t shards,
                            RoutingPolicy policy = RoutingPolicy::kHash) {
  ShardedSystemConfig config;
  config.base = base;
  config.router.num_shards = shards;
  config.router.policy = policy;
  return config;
}

ShardedMediationSystem::MethodFactory SqlbFactory() {
  return [](std::uint32_t) { return std::make_unique<SqlbMethod>(); };
}

double FinalValue(const RunResult& result, const char* key) {
  const des::TimeSeries* series = result.series.Find(key);
  EXPECT_NE(series, nullptr) << key;
  return series->samples.back().second;
}

// ---------------------------------------------------------------------------
// M = 1: the paper's mono-mediator (sqlb::Service's Mode::kMono runs this
// exact configuration; tests/runtime/mono_mediator_test.cc covers it).
// ---------------------------------------------------------------------------

TEST(ShardedMediationTest, SingleShardNeverReroutes) {
  // With one shard every query's first choice is the only shard, so no
  // shard-tier machinery fires behind the mediator's back — not even once
  // the departure rules shrink the candidate set.
  SystemConfig base = SmallConfig(0.9, 7);
  base.departures = runtime::DepartureConfig::AllEnabled();
  base.departures.grace_period = 60.0;
  base.departures.check_interval = 60.0;

  const ShardedRunResult result =
      RunShardedScenario(Sharded(base, 1), SqlbFactory());

  EXPECT_EQ(result.reroutes, 0u);
  EXPECT_EQ(result.reroute_rescues, 0u);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_EQ(result.shards[0].routed, result.run.queries_issued);
  EXPECT_EQ(result.shards[0].remaining_providers,
            result.run.remaining_providers);
  EXPECT_EQ(result.run.remaining_providers +
                result.run.tally.providers_total(),
            result.run.initial_providers);
}

// ---------------------------------------------------------------------------
// Multi-shard behavior.
// ---------------------------------------------------------------------------

TEST(ShardedMediationTest, MultiShardRunServesTheWholeWorkload) {
  const ShardedRunResult result =
      RunShardedScenario(Sharded(SmallConfig(0.6), 4), SqlbFactory());

  EXPECT_GT(result.run.queries_issued, 500u);
  // Captive population, every shard holds providers: nothing is lost.
  EXPECT_EQ(result.run.queries_infeasible, 0u);
  EXPECT_EQ(result.run.queries_completed, result.run.queries_issued);

  // Per-shard accounting covers the whole population and workload.
  ASSERT_EQ(result.shards.size(), 4u);
  std::size_t providers = 0;
  std::uint64_t routed = 0, allocated = 0;
  for (const ShardStats& shard : result.shards) {
    EXPECT_GT(shard.initial_providers, 0u);
    providers += shard.initial_providers;
    routed += shard.routed;
    allocated += shard.allocated;
  }
  EXPECT_EQ(providers, 40u);
  EXPECT_EQ(routed, result.run.queries_issued);
  EXPECT_EQ(allocated, result.run.queries_completed);
}

TEST(ShardedMediationTest, AggregatedSeriesCoverAllShards) {
  const ShardedRunResult result =
      RunShardedScenario(Sharded(SmallConfig(0.6), 4), SqlbFactory());

  // The aggregate active-provider series counts every shard's members.
  EXPECT_DOUBLE_EQ(
      FinalValue(result.run, ScenarioEngine::kSeriesActiveProviders), 40.0);
  // Per-shard utilization series exist and sit near the configured load.
  for (std::size_t s = 0; s < 4; ++s) {
    const auto* series = result.run.series.Find(
        ShardedMediationSystem::kSeriesShardUtPrefix + std::to_string(s));
    ASSERT_NE(series, nullptr);
    EXPECT_GT(series->MeanOver(100.0, 300.0), 0.1);
    EXPECT_LT(series->MeanOver(100.0, 300.0), 2.0);
  }
}

TEST(ShardedMediationTest, GossipDeliversLoadReports) {
  ShardedSystemConfig config = Sharded(SmallConfig(0.6), 4);
  config.gossip_interval = 5.0;
  const ShardedRunResult result =
      RunShardedScenario(config, SqlbFactory());

  // 4 shards * (300 / 5) rounds, minus edge effects.
  EXPECT_GT(result.gossip_sent, 200u);
  EXPECT_EQ(result.gossip_delivered, result.gossip_sent);
}

TEST(ShardedMediationTest, LeastLoadedPolicyRunsOnGossipAndFallsBackWhenOff) {
  ShardedSystemConfig with_gossip =
      Sharded(SmallConfig(0.8), 4, RoutingPolicy::kLeastLoaded);
  const ShardedRunResult on = RunShardedScenario(with_gossip, SqlbFactory());
  // After the first gossip round the load view stays fresh: only the
  // arrivals before the first reports land take the fallback path.
  EXPECT_GT(on.run.queries_issued, 1000u);
  EXPECT_LT(on.stale_fallbacks, on.run.queries_issued / 10);
  EXPECT_EQ(on.run.queries_completed, on.run.queries_issued);

  ShardedSystemConfig no_gossip = with_gossip;
  no_gossip.gossip_enabled = false;
  const ShardedRunResult off = RunShardedScenario(no_gossip, SqlbFactory());
  // Without gossip every least-loaded decision times out its (absent) load
  // view and degrades to hash routing — the system still serves.
  EXPECT_EQ(off.stale_fallbacks, off.run.queries_issued);
  EXPECT_EQ(off.run.queries_completed, off.run.queries_issued);
  EXPECT_EQ(off.gossip_sent, 0u);
}

TEST(ShardedMediationTest, ReroutingRescuesQueriesFromEmptyShards) {
  // 3 providers on 8 shards: most shards hold no provider at all, so hash
  // routing keeps steering queries at empty shards.
  SystemConfig base = SmallConfig(0.3);
  base.population.num_providers = 3;
  base.population.num_consumers = 5;

  ShardedSystemConfig config = Sharded(base, 8);
  config.max_route_attempts = 8;
  const ShardedRunResult with = RunShardedScenario(config, SqlbFactory());

  EXPECT_GT(with.reroutes, 0u);
  EXPECT_GT(with.reroute_rescues, 0u);
  // Every query eventually found a provider-bearing shard.
  EXPECT_EQ(with.run.queries_infeasible, 0u);
  EXPECT_EQ(with.run.queries_completed, with.run.queries_issued);

  ShardedSystemConfig without = config;
  without.rerouting_enabled = false;
  const ShardedRunResult off = RunShardedScenario(without, SqlbFactory());
  // Without rebalance those same queries die at their empty home shard.
  EXPECT_GT(off.run.queries_infeasible, 0u);
}

TEST(ShardedMediationTest, SaturationBounceNeverDropsQueries) {
  // An aggressive saturation bound forces constant bouncing; the final
  // attempt must still mediate, so the workload is fully served.
  ShardedSystemConfig config = Sharded(SmallConfig(0.9), 4);
  config.saturation_backlog_seconds = 0.05;
  config.max_route_attempts = 3;
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  EXPECT_GT(result.reroutes, 0u);
  EXPECT_EQ(result.run.queries_infeasible, 0u);
  EXPECT_EQ(result.run.queries_completed, result.run.queries_issued);
}

TEST(ShardedMediationTest, RouteImbalanceStaysBoundedUnderHashPolicy) {
  const ShardedRunResult result =
      RunShardedScenario(Sharded(SmallConfig(0.6), 8), SqlbFactory());
  // 8-way hash spread over ~1400 queries: no shard should see more than
  // twice its fair share.
  EXPECT_LT(result.RouteImbalance(), 2.0);
  EXPECT_GE(result.RouteImbalance(), 1.0);
}

TEST(ShardedMediationTest, PerShardDepartureRulesFire) {
  // Heavy sustained overload with departures on: overutilized providers
  // leave their shard, and the per-shard remaining counts reflect it.
  SystemConfig base = SmallConfig(1.2, 11);
  base.departures.provider_overutilization = true;
  base.departures.grace_period = 60.0;
  base.departures.check_interval = 30.0;
  base.departures.overutilization_fraction = 1.1;

  const ShardedRunResult result =
      RunShardedScenario(Sharded(base, 4), SqlbFactory());

  EXPECT_GT(result.run.tally.providers_total(), 0u);
  std::size_t remaining = 0;
  for (const ShardStats& shard : result.shards) {
    EXPECT_LE(shard.remaining_providers, shard.initial_providers);
    remaining += shard.remaining_providers;
  }
  EXPECT_EQ(remaining, result.run.remaining_providers);
  EXPECT_EQ(result.run.initial_providers - remaining,
            result.run.tally.providers_total());
}

}  // namespace
}  // namespace sqlb::shard
