#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "core/sqlb_method.h"
#include "runtime/mediation_core.h"
#include "runtime/scenario_engine.h"
#include "shard/shard_router.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

/// \file
/// Pins the epoch-parallel execution and batched-intake contracts:
///
///  - a parallel sharded run (any worker count) is bit-identical to the
///    serial sharded run for a fixed seed — counters, response-time
///    moments, departures, and every collected series sample;
///  - MediationCore::AllocateBatch with a burst of one reproduces
///    Allocate bit-for-bit;
///  - serial and parallel batched runs agree with each other.

namespace sqlb::shard {
namespace {

using runtime::MediationCore;
using runtime::RunResult;
using runtime::SystemConfig;

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

/// A config the parallel mode accepts: consumer-affine routing, no
/// rerouting (the state-disjointness contract).
ShardedSystemConfig ParallelizableConfig(const SystemConfig& base,
                                         std::size_t shards) {
  ShardedSystemConfig config;
  config.base = base;
  config.router.num_shards = shards;
  config.router.policy = RoutingPolicy::kLocality;
  config.rerouting_enabled = false;
  return config;
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

/// Bitwise comparison of everything a run produces. EXPECT_EQ on doubles is
/// deliberate: the contract is bit-identity, not closeness.
void ExpectIdenticalRuns(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_infeasible, b.queries_infeasible);

  EXPECT_EQ(a.response_time.count(), b.response_time.count());
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.response_time.variance(), b.response_time.variance());
  EXPECT_EQ(a.response_time.min(), b.response_time.min());
  EXPECT_EQ(a.response_time.max(), b.response_time.max());
  EXPECT_EQ(a.response_time_all.count(), b.response_time_all.count());
  EXPECT_EQ(a.response_time_all.mean(), b.response_time_all.mean());
  EXPECT_EQ(a.response_time_all.sum(), b.response_time_all.sum());

  EXPECT_EQ(a.remaining_providers, b.remaining_providers);
  EXPECT_EQ(a.remaining_consumers, b.remaining_consumers);
  ASSERT_EQ(a.departures.size(), b.departures.size());
  for (std::size_t i = 0; i < a.departures.size(); ++i) {
    EXPECT_EQ(a.departures[i].time, b.departures[i].time) << i;
    EXPECT_EQ(a.departures[i].is_provider, b.departures[i].is_provider) << i;
    EXPECT_EQ(a.departures[i].participant_index,
              b.departures[i].participant_index)
        << i;
    EXPECT_EQ(static_cast<int>(a.departures[i].reason),
              static_cast<int>(b.departures[i].reason))
        << i;
  }

  // Every series `a` collected must exist in `b` with identical samples
  // (`b` may carry extra keys, such as per-shard shard.* series).
  const std::vector<std::string> names = a.series.Names();
  for (const std::string& name : names) {
    const des::TimeSeries* sa = a.series.Find(name);
    const des::TimeSeries* sb = b.series.Find(name);
    ASSERT_NE(sa, nullptr) << name;
    ASSERT_NE(sb, nullptr) << name;
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
  ASSERT_EQ(a.run.series.Names(), b.run.series.Names());
  ExpectIdenticalRuns(a.run, b.run);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].routed, b.shards[s].routed) << s;
    EXPECT_EQ(a.shards[s].allocated, b.shards[s].allocated) << s;
    EXPECT_EQ(a.shards[s].remaining_providers, b.shards[s].remaining_providers)
        << s;
  }
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.gossip_sent, b.gossip_sent);
  EXPECT_EQ(a.gossip_delivered, b.gossip_delivered);
  EXPECT_EQ(a.stale_fallbacks, b.stale_fallbacks);
}

// ---------------------------------------------------------------------------
// Parallel-vs-serial bit-identity, across shard and thread counts.
// ---------------------------------------------------------------------------

class ParallelParityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ParallelParityTest, ParallelRunIsBitIdenticalToSerial) {
  const std::size_t shards = std::get<0>(GetParam());
  const std::size_t threads = std::get<1>(GetParam());

  ShardedSystemConfig serial =
      ParallelizableConfig(SmallConfig(0.8), shards);
  const ShardedRunResult serial_result =
      RunShardedScenario(serial, SqlbFactory());

  ShardedSystemConfig parallel = serial;
  parallel.worker_threads = threads;
  const ShardedRunResult parallel_result =
      RunShardedScenario(parallel, SqlbFactory());

  ExpectIdenticalShardedRuns(serial_result, parallel_result);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndThreads, ParallelParityTest,
    ::testing::Values(
        std::make_tuple(std::size_t{1}, std::size_t{1}),
        std::make_tuple(std::size_t{1}, std::size_t{2}),
        std::make_tuple(std::size_t{4}, std::size_t{1}),
        std::make_tuple(std::size_t{4}, std::size_t{2}),
        std::make_tuple(std::size_t{4},
                        std::size_t{std::max(2u,
                                             std::thread::hardware_concurrency())}),
        std::make_tuple(std::size_t{8}, std::size_t{1}),
        std::make_tuple(std::size_t{8}, std::size_t{2}),
        std::make_tuple(std::size_t{8},
                        std::size_t{std::max(2u,
                                             std::thread::hardware_concurrency())})));

TEST(ParallelExecutionTest, ParityHoldsUnderDepartures) {
  SystemConfig base = SmallConfig(1.1, 7);
  base.departures = runtime::DepartureConfig::AllEnabled();
  base.departures.grace_period = 60.0;
  base.departures.check_interval = 30.0;

  ShardedSystemConfig serial = ParallelizableConfig(base, 4);
  const ShardedRunResult serial_result =
      RunShardedScenario(serial, SqlbFactory());
  // Departures must actually fire for this pin to mean anything.
  ASSERT_GT(serial_result.run.departures.size(), 0u);

  ShardedSystemConfig parallel = serial;
  parallel.worker_threads = 2;
  const ShardedRunResult parallel_result =
      RunShardedScenario(parallel, SqlbFactory());

  ExpectIdenticalShardedRuns(serial_result, parallel_result);
}

TEST(ParallelExecutionTest, ParallelRunsAreDeterministicAcrossRepeats) {
  const ShardedSystemConfig config = [&] {
    ShardedSystemConfig c = ParallelizableConfig(SmallConfig(0.9, 5), 8);
    c.worker_threads = std::max(2u, std::thread::hardware_concurrency());
    return c;
  }();
  const ShardedRunResult first = RunShardedScenario(config, SqlbFactory());
  const ShardedRunResult second = RunShardedScenario(config, SqlbFactory());
  ExpectIdenticalShardedRuns(first, second);
}

TEST(ParallelExecutionTest, M1ParallelStillMatchesMonoMediator) {
  const SystemConfig base = SmallConfig(0.7);
  const RunResult mono_result = RunMono(base);

  ShardedSystemConfig parallel = ParallelizableConfig(base, 1);
  parallel.worker_threads = 2;
  const ShardedRunResult sharded =
      RunShardedScenario(parallel, SqlbFactory());

  ExpectIdenticalRuns(mono_result, sharded.run);
}

TEST(ParallelExecutionDeathTest, LoadAwareRoutingIsRejected) {
  // Strict parity needs state-disjoint lanes; least-loaded routing spreads
  // one consumer across shards, so Run() refuses it.
  ShardedSystemConfig config;
  config.base = SmallConfig(0.8);
  config.router.num_shards = 4;
  config.router.policy = RoutingPolicy::kLeastLoaded;
  config.rerouting_enabled = false;
  config.worker_threads = 2;
  EXPECT_DEATH(RunShardedScenario(config, SqlbFactory()),
               "consumer-affine");
}

// ---------------------------------------------------------------------------
// Batched intake.
// ---------------------------------------------------------------------------

TEST(BatchedIntakeTest, SerialAndParallelBatchedRunsAgree) {
  SystemConfig base = SmallConfig(0.9, 3);
  ShardedSystemConfig serial = ParallelizableConfig(base, 4);
  serial.batch_window = 0.25;
  const ShardedRunResult serial_result =
      RunShardedScenario(serial, SqlbFactory());

  ShardedSystemConfig parallel = serial;
  parallel.worker_threads = 2;
  const ShardedRunResult parallel_result =
      RunShardedScenario(parallel, SqlbFactory());

  ExpectIdenticalShardedRuns(serial_result, parallel_result);
}

TEST(BatchedIntakeTest, BatchedRunServesTheWholeWorkload) {
  SystemConfig base = SmallConfig(0.8, 9);
  ShardedSystemConfig config = ParallelizableConfig(base, 4);
  config.batch_window = 0.5;
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  EXPECT_GT(result.run.queries_issued, 500u);
  EXPECT_EQ(result.run.queries_infeasible, 0u);
  EXPECT_EQ(result.run.queries_completed, result.run.queries_issued);

  // The coalescing delay is bounded by the batch window: mean response time
  // may grow by at most ~batch_window over the unbatched run.
  ShardedSystemConfig unbatched = config;
  unbatched.batch_window = 0.0;
  const ShardedRunResult baseline =
      RunShardedScenario(unbatched, SqlbFactory());
  EXPECT_EQ(baseline.run.queries_issued, result.run.queries_issued);
  EXPECT_LE(result.run.response_time_all.mean(),
            baseline.run.response_time_all.mean() + config.batch_window + 1.0);
}

TEST(BatchedIntakeTest, BatchedReroutingStillRescuesBouncedQueries) {
  // 3 providers on 8 shards: most shards are empty, so batched bursts
  // bounce and the serial walk must still rescue them.
  SystemConfig base = SmallConfig(0.3);
  base.population.num_providers = 3;
  base.population.num_consumers = 5;

  ShardedSystemConfig config;
  config.base = base;
  config.router.num_shards = 8;
  config.max_route_attempts = 8;
  config.batch_window = 0.5;
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  EXPECT_GT(result.reroutes, 0u);
  EXPECT_GT(result.reroute_rescues, 0u);
  EXPECT_EQ(result.run.queries_infeasible, 0u);
  EXPECT_EQ(result.run.queries_completed, result.run.queries_issued);
}

/// Twin single-core universes fed the same queries: one mediates per query
/// (Allocate), the other through one-query bursts (AllocateBatch). The
/// burst-of-one contract is bit-for-bit equality.
TEST(BatchedIntakeTest, BatchOfOneReproducesAllocateBitForBit) {
  SystemConfig config = SmallConfig(0.8);

  struct Universe {
    explicit Universe(const SystemConfig& config)
        : population(config.population, config.seed),
          reputation(config.population.num_providers, 0.0, 0.1),
          response_window(500) {
      for (const ProviderProfile& profile : population.providers()) {
        providers.emplace_back(profile, config.provider);
        members.push_back(profile.id.index());
      }
      for (std::size_t c = 0; c < population.num_consumers(); ++c) {
        consumers.emplace_back(ConsumerId(static_cast<std::uint32_t>(c)),
                               config.consumer);
      }
      MediationCore::Shared shared;
      shared.config = &config;
      shared.population = &population;
      shared.providers = &providers;
      shared.consumers = &consumers;
      shared.reputation = &reputation;
      shared.result = &result;
      shared.response_window = &response_window;
      core.emplace(shared, &method, members);
    }

    Population population;
    std::vector<runtime::ProviderAgent> providers;
    std::vector<runtime::ConsumerAgent> consumers;
    std::vector<std::uint32_t> members;
    runtime::ReputationRegistry reputation;
    RunResult result;
    WindowedMean response_window;
    SqlbMethod method;
    des::Simulator sim;
    std::optional<MediationCore> core;
  };

  Universe single(config);
  Universe batched(config);

  std::vector<MediationCore::Outcome> outcomes;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const SimTime t = 0.37 * static_cast<double>(i);
    Query query;
    query.id = i;
    query.consumer = ConsumerId(static_cast<std::uint32_t>(
        i % config.population.num_consumers));
    query.n = config.query_n;
    query.class_index = static_cast<std::uint32_t>(
        i % config.population.query_class_units.size());
    query.units = config.population.query_class_units[query.class_index];
    query.issue_time = t;

    single.sim.RunUntil(t);
    batched.sim.RunUntil(t);
    const MediationCore::Outcome a = single.core->Allocate(single.sim, query);
    batched.core->AllocateBatch(batched.sim, {query}, 0.0, &outcomes);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(static_cast<int>(a), static_cast<int>(outcomes[0])) << i;
  }
  single.sim.RunAll();
  batched.sim.RunAll();

  EXPECT_EQ(single.core->allocated_queries(), batched.core->allocated_queries());
  EXPECT_EQ(single.result.queries_completed, batched.result.queries_completed);
  EXPECT_EQ(single.result.response_time_all.count(),
            batched.result.response_time_all.count());
  EXPECT_EQ(single.result.response_time_all.mean(),
            batched.result.response_time_all.mean());
  EXPECT_EQ(single.result.response_time_all.variance(),
            batched.result.response_time_all.variance());
  EXPECT_EQ(single.result.response_time.mean(),
            batched.result.response_time.mean());

  // Agent state diverging would eventually skew allocations; pin it too.
  for (std::size_t p = 0; p < single.providers.size(); ++p) {
    EXPECT_EQ(single.providers[p].SatisfactionOnIntentions(),
              batched.providers[p].SatisfactionOnIntentions())
        << p;
    EXPECT_EQ(single.providers[p].SatisfactionOnPreferences(),
              batched.providers[p].SatisfactionOnPreferences())
        << p;
    EXPECT_EQ(single.providers[p].performed_count(),
              batched.providers[p].performed_count())
        << p;
  }
  for (std::size_t c = 0; c < single.consumers.size(); ++c) {
    EXPECT_EQ(single.consumers[c].Satisfaction(),
              batched.consumers[c].Satisfaction())
        << c;
    EXPECT_EQ(single.consumers[c].Adequation(),
              batched.consumers[c].Adequation())
        << c;
  }
}

TEST(BatchedIntakeTest, MultiQueryBurstSharesOneSnapshot) {
  // A burst against an idle shard: every query sees utilization-0 provider
  // state, so all of them must allocate, and the providers' proposal
  // windows must record one entry per burst query.
  SystemConfig config = SmallConfig(0.8);
  config.population.num_providers = 8;
  config.population.num_consumers = 4;

  struct Fixture {
    explicit Fixture(const SystemConfig& config)
        : population(config.population, config.seed),
          reputation(config.population.num_providers, 0.0, 0.1),
          response_window(500) {
      for (const ProviderProfile& profile : population.providers()) {
        providers.emplace_back(profile, config.provider);
        members.push_back(profile.id.index());
      }
      for (std::size_t c = 0; c < population.num_consumers(); ++c) {
        consumers.emplace_back(ConsumerId(static_cast<std::uint32_t>(c)),
                               config.consumer);
      }
      MediationCore::Shared shared;
      shared.config = &config;
      shared.population = &population;
      shared.providers = &providers;
      shared.consumers = &consumers;
      shared.reputation = &reputation;
      shared.result = &result;
      shared.response_window = &response_window;
      core.emplace(shared, &method, members);
    }
    Population population;
    std::vector<runtime::ProviderAgent> providers;
    std::vector<runtime::ConsumerAgent> consumers;
    std::vector<std::uint32_t> members;
    runtime::ReputationRegistry reputation;
    RunResult result;
    WindowedMean response_window;
    SqlbMethod method;
    des::Simulator sim;
    std::optional<MediationCore> core;
  };

  Fixture fx(config);
  std::vector<Query> burst;
  for (std::uint64_t i = 0; i < 5; ++i) {
    Query query;
    query.id = i;
    query.consumer = ConsumerId(static_cast<std::uint32_t>(i % 4));
    query.n = 1;
    query.class_index = 0;
    query.units = config.population.query_class_units[0];
    query.issue_time = 0.0;
    burst.push_back(query);
  }

  std::vector<MediationCore::Outcome> outcomes;
  fx.core->AllocateBatch(fx.sim, burst, 0.0, &outcomes);
  ASSERT_EQ(outcomes.size(), burst.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(static_cast<int>(outcomes[i]),
              static_cast<int>(MediationCore::Outcome::kAllocated))
        << i;
  }
  EXPECT_EQ(fx.core->allocated_queries(), burst.size());
  for (const auto& provider : fx.providers) {
    EXPECT_EQ(provider.window().proposed(), burst.size());
  }
  fx.sim.RunAll();
  EXPECT_EQ(fx.result.queries_completed, burst.size());
}

}  // namespace
}  // namespace sqlb::shard
