#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sqlb_method.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

/// \file
/// Pins the runtime re-partitioning contracts under provider churn:
///
///  - a strict-parity parallel run with a provider join/leave schedule (and
///    rebalancing on) is bit-identical to its serial twin at any thread
///    count, ownership sequence included;
///  - the strict-parity M = 1 shape with churn and rebalancing reproduces
///    Mode::kMono with the same schedule exactly;
///  - a provider leaving mid-window loses no completed-query counts: every
///    query it was serving still completes and is counted once;
///  - mass departure triggers ring rebalances and seal -> drain -> transfer
///    handoffs that conserve the workload accounting.

namespace sqlb::shard {
namespace {

using runtime::ChurnSchedule;
using runtime::DepartureReason;
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

/// One flap of churn: a quarter of the population leaves a third into the
/// run and rejoins at two thirds.
ChurnSchedule QuarterFlap(const SystemConfig& config) {
  const auto count =
      static_cast<std::uint32_t>(config.population.num_providers / 4);
  return ChurnSchedule::LeaveAndRejoin(config.duration / 3.0,
                                       2.0 * config.duration / 3.0,
                                       /*first=*/0, count);
}

/// Churn that provably forces re-partitioning: every initial member of
/// shard 0 (previewed off the same router geometry the system will build)
/// leaves a third into the run and rejoins at two thirds — by which time
/// the ring has moved, so the rejoiners land wherever the *current* epoch
/// puts them.
ChurnSchedule GutShardZero(const SystemConfig& base,
                           const RouterConfig& router) {
  return ShardChurnSchedule(router, /*shard=*/0,
                            base.population.num_providers,
                            /*leave_at=*/base.duration / 3.0,
                            /*rejoin_at=*/2.0 * base.duration / 3.0);
}

ShardedSystemConfig StrictChurnConfig(const SystemConfig& base,
                                      std::size_t shards) {
  ShardedSystemConfig config;
  config.base = base;
  config.router.num_shards = shards;
  config.router.policy = RoutingPolicy::kLocality;  // strict-parity shape
  config.rerouting_enabled = false;
  config.rebalance_enabled = true;
  config.rebalance_interval = 40.0;
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

/// Bitwise comparison (EXPECT_EQ on doubles is deliberate: the contract is
/// bit-identity, not closeness).
void ExpectIdenticalRuns(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_infeasible, b.queries_infeasible);
  EXPECT_EQ(a.provider_joins, b.provider_joins);

  EXPECT_EQ(a.response_time.count(), b.response_time.count());
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.response_time.variance(), b.response_time.variance());
  EXPECT_EQ(a.response_time_all.count(), b.response_time_all.count());
  EXPECT_EQ(a.response_time_all.sum(), b.response_time_all.sum());

  EXPECT_EQ(a.initial_providers, b.initial_providers);
  EXPECT_EQ(a.remaining_providers, b.remaining_providers);
  EXPECT_EQ(a.remaining_consumers, b.remaining_consumers);
  ASSERT_EQ(a.departures.size(), b.departures.size());
  for (std::size_t i = 0; i < a.departures.size(); ++i) {
    EXPECT_EQ(a.departures[i].time, b.departures[i].time) << i;
    EXPECT_EQ(a.departures[i].participant_index,
              b.departures[i].participant_index)
        << i;
    EXPECT_EQ(static_cast<int>(a.departures[i].reason),
              static_cast<int>(b.departures[i].reason))
        << i;
  }

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
    EXPECT_EQ(a.shards[s].joined, b.shards[s].joined) << s;
    EXPECT_EQ(a.shards[s].providers_in, b.shards[s].providers_in) << s;
    EXPECT_EQ(a.shards[s].providers_out, b.shards[s].providers_out) << s;
    EXPECT_EQ(a.shards[s].remaining_providers, b.shards[s].remaining_providers)
        << s;
  }
  EXPECT_EQ(a.ring_epoch, b.ring_epoch);
  EXPECT_EQ(a.ring_rebalances, b.ring_rebalances);
  EXPECT_EQ(a.handoffs_started, b.handoffs_started);
  EXPECT_EQ(a.handoffs_completed, b.handoffs_completed);
  EXPECT_EQ(a.handoffs_cancelled, b.handoffs_cancelled);
  // The ownership sequence is the re-partitioning determinism pin.
  EXPECT_EQ(a.ownership_digests, b.ownership_digests);
}

// ---------------------------------------------------------------------------
// Schedule semantics on the mono-mediator (shared engine path).
// ---------------------------------------------------------------------------

TEST(ChurnScheduleTest, HoldoutsAreProvidersWhoseFirstEventIsAJoin) {
  ChurnSchedule schedule;
  schedule.events.push_back({100.0, /*join=*/true, 3});   // held out
  schedule.events.push_back({50.0, /*join=*/false, 5});   // starts active
  schedule.events.push_back({120.0, /*join=*/true, 5});   // rejoin, not held
  const std::vector<std::uint32_t> holdouts = schedule.InitialHoldouts(10);
  EXPECT_EQ(holdouts, (std::vector<std::uint32_t>{3}));
}

TEST(ChurnScheduleTest, MonoSystemAppliesJoinsAndScheduledLeaves) {
  SystemConfig config = SmallConfig(0.8);
  // 4 late joiners, 4 scheduled leavers (disjoint ranges).
  config.provider_churn = ChurnSchedule::FlashJoin(100.0, /*first=*/0, 4);
  config.provider_churn.Append(
      ChurnSchedule::MassDeparture(150.0, /*first=*/10, 4));

  const RunResult result = RunMono(config);

  EXPECT_EQ(result.initial_providers, 36u);  // 40 minus 4 holdouts
  EXPECT_EQ(result.provider_joins, 4u);
  EXPECT_EQ(result.tally.ByReason(DepartureReason::kChurn), 4u);
  // Joiners replace leavers one for one.
  EXPECT_EQ(result.remaining_providers, 36u);
  EXPECT_EQ(result.queries_issued,
            result.queries_completed + result.queries_infeasible);
}

TEST(ChurnScheduleTest, SingleShardChurnReproducesMonoExactly) {
  SystemConfig base = SmallConfig(0.9, 11);
  base.provider_churn = QuarterFlap(base);

  const RunResult mono_result = RunMono(base);

  ShardedSystemConfig sharded = StrictChurnConfig(base, 1);
  const ShardedRunResult sharded_result =
      RunShardedScenario(sharded, SqlbFactory());

  ExpectIdenticalRuns(mono_result, sharded_result.run);
}

// ---------------------------------------------------------------------------
// Strict-parity parallel churn: bit-identical to the serial twin.
// ---------------------------------------------------------------------------

class ChurnParityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ChurnParityTest, ParallelChurnRunIsBitIdenticalToSerial) {
  const std::size_t shards = std::get<0>(GetParam());
  const std::size_t threads = std::get<1>(GetParam());

  SystemConfig base = SmallConfig(0.9, 13);
  ShardedSystemConfig serial = StrictChurnConfig(base, shards);
  serial.base.provider_churn = GutShardZero(base, serial.router);

  const ShardedRunResult serial_result =
      RunShardedScenario(serial, SqlbFactory());
  // Churn must actually bite — joins, scheduled leaves, ring reweights and
  // completed migrations all happen in the pinned run.
  ASSERT_GT(serial_result.run.provider_joins, 0u);
  ASSERT_GT(serial_result.run.tally.ByReason(DepartureReason::kChurn), 0u);
  ASSERT_GT(serial_result.ring_rebalances, 0u);
  ASSERT_GT(serial_result.handoffs_completed, 0u);

  ShardedSystemConfig parallel = serial;
  parallel.worker_threads = threads;
  const ShardedRunResult parallel_result =
      RunShardedScenario(parallel, SqlbFactory());

  ExpectIdenticalShardedRuns(serial_result, parallel_result);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndThreads, ChurnParityTest,
    ::testing::Values(
        std::make_tuple(std::size_t{4}, std::size_t{1}),
        std::make_tuple(std::size_t{4}, std::size_t{2}),
        std::make_tuple(std::size_t{8}, std::size_t{2}),
        std::make_tuple(std::size_t{8},
                        std::size_t{std::max(
                            2u, std::thread::hardware_concurrency())})));

TEST(ChurnParityTest, ChurnPlusDepartureRulesStayBitIdentical) {
  SystemConfig base = SmallConfig(1.1, 7);
  base.departures = runtime::DepartureConfig::AllEnabled();
  base.departures.grace_period = 60.0;
  base.departures.check_interval = 30.0;
  base.provider_churn = QuarterFlap(base);

  ShardedSystemConfig serial = StrictChurnConfig(base, 4);
  const ShardedRunResult serial_result =
      RunShardedScenario(serial, SqlbFactory());
  ASSERT_GT(serial_result.run.departures.size(), 0u);

  ShardedSystemConfig parallel = serial;
  parallel.worker_threads = 2;
  const ShardedRunResult parallel_result =
      RunShardedScenario(parallel, SqlbFactory());

  ExpectIdenticalShardedRuns(serial_result, parallel_result);
}

// ---------------------------------------------------------------------------
// Conservation: leaves lose no completed work; handoffs lose no accounting.
// ---------------------------------------------------------------------------

TEST(ChurnConservationTest, LeaveMidWindowLosesNoCompletedQueryCounts) {
  // Saturating load so the leavers hold queued work when the leave fires.
  SystemConfig base = SmallConfig(1.2, 17);
  base.provider_churn =
      ChurnSchedule::MassDeparture(base.duration / 2.0, /*first=*/0, 10);

  ShardedSystemConfig config = StrictChurnConfig(base, 4);
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  EXPECT_EQ(result.run.tally.ByReason(DepartureReason::kChurn), 10u);
  // Every issued query is accounted exactly once — the leavers' in-flight
  // queue drains to completion instead of vanishing with them.
  EXPECT_EQ(result.run.queries_issued,
            result.run.queries_completed + result.run.queries_infeasible);
  // And every allocation some shard made completed.
  std::uint64_t allocated = 0;
  for (const ShardStats& s : result.shards) allocated += s.allocated;
  EXPECT_EQ(allocated, result.run.queries_completed);
  EXPECT_EQ(result.run.remaining_providers, 30u);
}

TEST(ChurnConservationTest, MassDepartureTriggersRebalanceAndHandoffs) {
  SystemConfig base = SmallConfig(0.9, 23);

  // Depart every initial member of shard 0, scheduled off the same router
  // geometry the system will build (same shard count, vnodes, seed).
  ShardedSystemConfig config = StrictChurnConfig(base, 4);
  const ChurnSchedule schedule = ShardChurnSchedule(
      config.router, /*shard=*/0, base.population.num_providers,
      /*leave_at=*/base.duration / 3.0);
  ASSERT_GT(schedule.events.size(), 0u);
  config.base.provider_churn = schedule;

  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  // The gutted shard forces the ring past the imbalance threshold: the
  // partition reweights and providers migrate into shard 0.
  EXPECT_GT(result.ring_rebalances, 0u);
  EXPECT_GT(result.ring_epoch, 0u);
  EXPECT_GT(result.handoffs_started, 0u);
  EXPECT_GT(result.handoffs_completed, 0u);
  EXPECT_GT(result.shards[0].providers_in, 0u);
  // Every seal either transferred, was cancelled, or is still draining at
  // the horizon — none double-resolve.
  EXPECT_GE(result.handoffs_started,
            result.handoffs_completed + result.handoffs_cancelled);
  // One digest per rebalance tick; reweights are a subset of ticks.
  EXPECT_GE(result.ownership_digests.size(), result.ring_rebalances);

  // Accounting survives the migrations.
  EXPECT_EQ(result.run.queries_issued,
            result.run.queries_completed + result.run.queries_infeasible);
  std::uint64_t allocated = 0;
  for (const ShardStats& s : result.shards) allocated += s.allocated;
  EXPECT_EQ(allocated, result.run.queries_completed);
}

TEST(ChurnConservationTest, FlappingScheduleKeepsCountersConserved) {
  SystemConfig base = SmallConfig(1.0, 29);
  // Two flaps of the same provider block: leave, rejoin, leave, rejoin.
  base.provider_churn = ChurnSchedule::LeaveAndRejoin(60.0, 120.0, 0, 8);
  base.provider_churn.Append(
      ChurnSchedule::LeaveAndRejoin(180.0, 240.0, 0, 8));

  ShardedSystemConfig config = StrictChurnConfig(base, 4);
  config.rebalance_interval = 25.0;
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  EXPECT_EQ(result.run.provider_joins, 16u);
  EXPECT_EQ(result.run.tally.ByReason(DepartureReason::kChurn), 16u);
  EXPECT_EQ(result.run.remaining_providers, 40u);
  EXPECT_EQ(result.run.queries_issued,
            result.run.queries_completed + result.run.queries_infeasible);
}

}  // namespace
}  // namespace sqlb::shard
