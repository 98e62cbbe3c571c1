#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/sqlb_method.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

/// \file
/// Pins the mediator crash / failover / recovery contracts
/// (runtime/faults.h, the failover protocol in
/// shard/sharded_mediation_system.cc):
///
///  - the zero-lost-completions accounting identity — completed +
///    infeasible + declared-reissued == issued, exactly — holds under
///    single kills, kill-everything schedules, random chaos schedules,
///    batched intake, and message loss;
///  - a strict-parity parallel run with a kill schedule is bit-identical
///    to its serial twin at any thread count, failover counters included;
///  - kills interleaved with churn-driven handoffs (a crash mid-drain)
///    cancel the affected handoffs and conserve the accounting;
///  - the gossip protocol stays safe under injected message loss: dropped
///    ring announcements are re-sent until acknowledged, and the run's
///    invariants are unchanged;
///  - the strict-parity M = 1 shape under kills reproduces Mode::kMono's
///    crash-and-restart bit-for-bit.

namespace sqlb::shard {
namespace {

using runtime::ChurnSchedule;
using runtime::FaultSchedule;
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

ShardedSystemConfig StrictFaultConfig(const SystemConfig& base,
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

/// The tentpole invariant: every issued query is accounted exactly once —
/// completed, infeasible, or declared re-issued — under any kill schedule.
void ExpectZeroLostCompletions(const RunResult& run) {
  EXPECT_EQ(run.queries_issued, run.queries_completed +
                                    run.queries_infeasible +
                                    run.queries_reissued);
}

/// Bitwise comparison (EXPECT_EQ on doubles is deliberate: the contract is
/// bit-identity, not closeness).
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

  EXPECT_EQ(a.initial_providers, b.initial_providers);
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
  EXPECT_EQ(a.ownership_digests, b.ownership_digests);
  // The failover protocol itself must replay identically: same crashes,
  // same adoptions, same re-issues, same suppressed completions.
  EXPECT_EQ(a.shard_crashes, b.shard_crashes);
  EXPECT_EQ(a.reissued_queries, b.reissued_queries);
  EXPECT_EQ(a.restored_providers, b.restored_providers);
  EXPECT_EQ(a.orphaned_providers, b.orphaned_providers);
  EXPECT_EQ(a.failover_drain_ticks, b.failover_drain_ticks);
  EXPECT_EQ(a.dropped_completions, b.dropped_completions);
  EXPECT_EQ(a.snapshots_taken, b.snapshots_taken);
}

// ---------------------------------------------------------------------------
// FaultSchedule semantics (pure data).
// ---------------------------------------------------------------------------

TEST(FaultScheduleTest, KillAtBuildsOneEvent) {
  const FaultSchedule schedule = FaultSchedule::KillAt(150.0, 2);
  ASSERT_EQ(schedule.events.size(), 1u);
  EXPECT_EQ(schedule.events[0].time, 150.0);
  EXPECT_EQ(schedule.events[0].shard, 2u);
  EXPECT_FALSE(schedule.empty());
}

TEST(FaultScheduleTest, RandomKillsAreDeterministicAndInRange) {
  const FaultSchedule a =
      FaultSchedule::RandomKills(50.0, 250.0, /*kills_per_1000s=*/40.0,
                                 /*num_shards=*/8, /*seed=*/7);
  const FaultSchedule b =
      FaultSchedule::RandomKills(50.0, 250.0, 40.0, 8, 7);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_GT(a.events.size(), 0u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time) << i;
    EXPECT_EQ(a.events[i].shard, b.events[i].shard) << i;
    EXPECT_GE(a.events[i].time, 50.0) << i;
    EXPECT_LE(a.events[i].time, 250.0) << i;
    EXPECT_LT(a.events[i].shard, 8u) << i;
    if (i > 0) {
      EXPECT_GE(a.events[i].time, a.events[i - 1].time) << i;
    }
  }
  // A different seed moves the kill times.
  const FaultSchedule c =
      FaultSchedule::RandomKills(50.0, 250.0, 40.0, 8, 8);
  bool any_different = c.events.size() != a.events.size();
  for (std::size_t i = 0; !any_different && i < a.events.size(); ++i) {
    any_different = a.events[i].time != c.events[i].time ||
                    a.events[i].shard != c.events[i].shard;
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultScheduleTest, AppendConcatenatesAndKeepsReceiverCadence) {
  FaultSchedule a = FaultSchedule::KillAt(100.0, 0);
  a.snapshot_interval = 25.0;
  a.drain_retry_interval = 2.0;
  FaultSchedule b = FaultSchedule::KillAt(200.0, 1);
  b.snapshot_interval = 99.0;
  a.Append(b);
  ASSERT_EQ(a.events.size(), 2u);
  EXPECT_EQ(a.events[1].time, 200.0);
  EXPECT_EQ(a.events[1].shard, 1u);
  EXPECT_EQ(a.snapshot_interval, 25.0);
  EXPECT_EQ(a.drain_retry_interval, 2.0);
}

// ---------------------------------------------------------------------------
// Zero-lost-completions accounting under kill schedules.
// ---------------------------------------------------------------------------

TEST(FailoverAccountingTest, SingleKillConservesAccounting) {
  // Saturating load so the killed shard holds in-flight work mid-run.
  SystemConfig base = SmallConfig(1.2, 17);
  base.shard_faults = FaultSchedule::KillAt(150.0, 1);

  ShardedSystemConfig config = StrictFaultConfig(base, 4);
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  EXPECT_EQ(result.shard_crashes, 1u);
  // The crash caught live work: decisions were lost and re-issued, and the
  // dead incarnation's completions were suppressed, not double-counted.
  EXPECT_GT(result.reissued_queries, 0u);
  EXPECT_EQ(result.reissued_queries, result.run.queries_reissued);
  EXPECT_GT(result.dropped_completions, 0u);
  ExpectZeroLostCompletions(result.run);
  // Snapshots were taken on cadence, and the dead shard's members all
  // found a new home: restored from the last snapshot or re-admitted
  // fresh — providers are participants, not mediator state.
  EXPECT_GT(result.snapshots_taken, 0u);
  EXPECT_GT(result.restored_providers + result.orphaned_providers, 0u);
  EXPECT_EQ(result.run.remaining_providers, 40u);
  // Dispatches on the dead incarnation completed nowhere.
  std::uint64_t allocated = 0;
  for (const ShardStats& s : result.shards) allocated += s.allocated;
  EXPECT_GE(allocated, result.run.queries_completed);
}

TEST(FailoverAccountingTest, KillEveryShardFallsBackToRestart) {
  SystemConfig base = SmallConfig(1.0, 19);
  base.shard_faults = FaultSchedule::KillAt(100.0, 0);
  base.shard_faults.Append(FaultSchedule::KillAt(130.0, 1))
      .Append(FaultSchedule::KillAt(160.0, 2))
      .Append(FaultSchedule::KillAt(190.0, 3));

  ShardedSystemConfig config = StrictFaultConfig(base, 4);
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  // Three failovers, then the last live shard restarts in place instead of
  // being killed outright — the tier can never extinguish itself.
  EXPECT_EQ(result.shard_crashes, 4u);
  ExpectZeroLostCompletions(result.run);
  EXPECT_GT(result.run.queries_completed, 0u);
  EXPECT_EQ(result.run.remaining_providers, 40u);
}

TEST(FailoverAccountingTest, RepeatKillOfDeadShardIsNoOp) {
  SystemConfig base = SmallConfig(1.0, 23);
  base.shard_faults = FaultSchedule::KillAt(100.0, 2);
  base.shard_faults.Append(FaultSchedule::KillAt(140.0, 2));  // already dead

  ShardedSystemConfig config = StrictFaultConfig(base, 4);
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  EXPECT_EQ(result.shard_crashes, 1u);
  ExpectZeroLostCompletions(result.run);
}

TEST(FailoverAccountingTest, RandomChaosScheduleKeepsInvariant) {
  SystemConfig base = SmallConfig(1.1, 29);
  base.shard_faults = FaultSchedule::RandomKills(
      50.0, 250.0, /*kills_per_1000s=*/20.0, /*num_shards=*/8, /*seed=*/3);
  ASSERT_GT(base.shard_faults.events.size(), 0u);

  ShardedSystemConfig config = StrictFaultConfig(base, 8);
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  EXPECT_GE(result.shard_crashes, 1u);
  ExpectZeroLostCompletions(result.run);
  // Late kills can leave providers still draining their dead lane's queue
  // at the horizon; those wait in the adoption queue and are simply not
  // members of any core when the run ends — never lost, never duplicated.
  EXPECT_LE(result.run.remaining_providers, 40u);
  EXPECT_GT(result.run.remaining_providers, 0u);
}

TEST(FailoverAccountingTest, BatchedIntakeReissuesBufferedQueries) {
  // A wide coalescing window keeps queries sitting in the intake buffer,
  // so a kill catches routed-but-unmediated work too.
  SystemConfig base = SmallConfig(1.2, 31);
  base.shard_faults = FaultSchedule::KillAt(150.0, 0);
  base.shard_faults.Append(FaultSchedule::KillAt(200.0, 2));

  ShardedSystemConfig config = StrictFaultConfig(base, 4);
  config.batch_window = 2.0;
  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  ExpectZeroLostCompletions(result.run);
  EXPECT_GT(result.reissued_queries, 0u);
  // Both loss modes are distinguished in the per-reason counters, and the
  // split sums to the total.
  const std::uint64_t in_flight =
      result.run.metrics.CounterValue("failover.reissued.in_flight");
  const std::uint64_t intake =
      result.run.metrics.CounterValue("failover.reissued.intake");
  EXPECT_EQ(in_flight + intake, result.reissued_queries);
  EXPECT_GT(intake, 0u);
  // The availability penalty is charged: every re-issue recorded its
  // crash-to-reissue delay. The delay histogram is a hot histogram, which
  // an observability-off build strips.
  const obs::Histogram* delay =
      result.run.metrics.FindHistogram(obs::kMetricReissueDelay);
#if defined(SQLB_DISABLE_OBSERVABILITY)
  EXPECT_EQ(delay, nullptr);
#else
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count(), result.reissued_queries);
  EXPECT_GT(delay->max(), 0.0);
#endif
}

// ---------------------------------------------------------------------------
// Strict-parity failover: bit-identical to the serial twin.
// ---------------------------------------------------------------------------

class FailoverParityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(FailoverParityTest, ParallelKillScheduleIsBitIdenticalToSerial) {
  const std::size_t shards = std::get<0>(GetParam());
  const std::size_t threads = std::get<1>(GetParam());

  SystemConfig base = SmallConfig(1.1, 13);
  base.shard_faults = FaultSchedule::KillAt(110.0, 1);
  base.shard_faults.Append(
      FaultSchedule::KillAt(190.0, shards == 4 ? 3 : 6));

  ShardedSystemConfig serial = StrictFaultConfig(base, shards);
  const ShardedRunResult serial_result =
      RunShardedScenario(serial, SqlbFactory());
  // The kills must actually bite in the pinned run.
  ASSERT_EQ(serial_result.shard_crashes, 2u);
  ASSERT_GT(serial_result.reissued_queries, 0u);
  ASSERT_GT(serial_result.restored_providers + serial_result.orphaned_providers,
            0u);
  ExpectZeroLostCompletions(serial_result.run);

  ShardedSystemConfig parallel = serial;
  parallel.worker_threads = threads;
  const ShardedRunResult parallel_result =
      RunShardedScenario(parallel, SqlbFactory());

  ExpectIdenticalShardedRuns(serial_result, parallel_result);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndThreads, FailoverParityTest,
    ::testing::Values(
        std::make_tuple(std::size_t{4}, std::size_t{1}),
        std::make_tuple(std::size_t{4}, std::size_t{2}),
        std::make_tuple(std::size_t{8}, std::size_t{1}),
        std::make_tuple(std::size_t{8}, std::size_t{2}),
        std::make_tuple(std::size_t{8},
                        std::size_t{std::max(
                            2u, std::thread::hardware_concurrency())})));

// ---------------------------------------------------------------------------
// Faults interleaved with churn: a crash mid-handoff.
// ---------------------------------------------------------------------------

TEST(FailoverChurnTest, KillDuringChurnDrivenHandoffsConservesAccounting) {
  SystemConfig base = SmallConfig(1.0, 37);
  // Gut shard 0's membership to force rebalancing handoffs, then kill a
  // shard while the ring is still re-converging (the first rebalance tick
  // after the mass leave is at t = 120; the kill lands right after it).
  base.provider_churn = ShardChurnSchedule(
      StrictFaultConfig(base, 4).router, /*shard=*/0,
      base.population.num_providers, /*leave_at=*/base.duration / 3.0,
      /*rejoin_at=*/2.0 * base.duration / 3.0);
  ASSERT_GT(base.provider_churn.events.size(), 0u);
  base.shard_faults = FaultSchedule::KillAt(125.0, 1);
  base.shard_faults.Append(FaultSchedule::KillAt(245.0, 2));

  ShardedSystemConfig serial = StrictFaultConfig(base, 4);
  const ShardedRunResult serial_result =
      RunShardedScenario(serial, SqlbFactory());

  EXPECT_EQ(serial_result.shard_crashes, 2u);
  ExpectZeroLostCompletions(serial_result.run);
  ASSERT_GT(serial_result.run.provider_joins, 0u);
  // Handoff accounting still closes: every seal transferred, cancelled, or
  // still draining at the horizon.
  EXPECT_GE(serial_result.handoffs_started,
            serial_result.handoffs_completed +
                serial_result.handoffs_cancelled);

  // And the interleaving replays bit-identically in parallel.
  ShardedSystemConfig parallel = serial;
  parallel.worker_threads = 2;
  const ShardedRunResult parallel_result =
      RunShardedScenario(parallel, SqlbFactory());
  ExpectIdenticalShardedRuns(serial_result, parallel_result);
}

// ---------------------------------------------------------------------------
// Message loss: the gossip protocol is safe under injected drops/delays.
// ---------------------------------------------------------------------------

TEST(NetworkFaultTest, GossipSurvivesInjectedLossAndDelay) {
  SystemConfig base = SmallConfig(1.0, 41);
  base.shard_faults = FaultSchedule::KillAt(150.0, 1);

  ShardedSystemConfig config = StrictFaultConfig(base, 4);
  config.network_faults.drop_probability = 0.3;
  config.network_faults.delay_probability = 0.3;
  config.network_faults.extra_delay_min = 0.01;
  config.network_faults.extra_delay_max = 0.05;
  config.network_faults.seed = 99;

  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  // The faults actually fired and were accounted.
  EXPECT_GT(result.net_injected_drops, 0u);
  EXPECT_GT(result.net_injected_delays, 0u);
  EXPECT_GE(result.net_dropped, result.net_injected_drops);
  EXPECT_EQ(result.net_sent,
            result.net_delivered + result.net_dropped);
  // Nothing the scenario accounts for was lost to the lossy network: load
  // reports age into the staleness fallback and ring announcements are
  // re-sent until acknowledged.
  ExpectZeroLostCompletions(result.run);
  EXPECT_EQ(result.shard_crashes, 1u);
  EXPECT_EQ(result.run.remaining_providers, 40u);
}

TEST(NetworkFaultTest, DroppedRingAnnouncementsAreRetried) {
  SystemConfig base = SmallConfig(1.0, 43);
  // Several epoch bumps (kills + churn-driven rebalances) under heavy
  // loss: some RingUpdate announcements must die and be re-sent.
  base.provider_churn = ChurnSchedule::LeaveAndRejoin(60.0, 180.0, 0, 10);
  base.shard_faults = FaultSchedule::KillAt(120.0, 2);

  ShardedSystemConfig config = StrictFaultConfig(base, 4);
  config.network_faults.drop_probability = 0.5;
  config.network_faults.seed = 7;

  const ShardedRunResult result = RunShardedScenario(config, SqlbFactory());

  EXPECT_GT(result.net_injected_drops, 0u);
  EXPECT_GT(result.gossip_ring_retries, 0u);
  ExpectZeroLostCompletions(result.run);
}

TEST(NetworkFaultTest, ZeroPolicyIsBitIdenticalToNoPolicy) {
  SystemConfig base = SmallConfig(1.0, 47);
  base.shard_faults = FaultSchedule::KillAt(150.0, 1);

  ShardedSystemConfig baseline = StrictFaultConfig(base, 4);
  const ShardedRunResult a = RunShardedScenario(baseline, SqlbFactory());

  ShardedSystemConfig zeroed = StrictFaultConfig(base, 4);
  zeroed.network_faults = msg::FaultPolicy{};  // all-zero probabilities
  const ShardedRunResult b = RunShardedScenario(zeroed, SqlbFactory());

  ExpectIdenticalShardedRuns(a, b);
  EXPECT_EQ(a.net_injected_drops, 0u);
  EXPECT_EQ(a.net_injected_delays, 0u);
}

// ---------------------------------------------------------------------------
// Mode::kMono crash-and-restart == the strict-parity M = 1 shape
// (consumer-affine routing, no rerouting, rebalancing on) under the same
// kill schedule.
// ---------------------------------------------------------------------------

TEST(MonoFailoverTest, MonoRestartMatchesSingleShardExactly) {
  SystemConfig base = SmallConfig(1.1, 53);
  base.shard_faults = FaultSchedule::KillAt(120.0, 0);
  base.shard_faults.Append(FaultSchedule::KillAt(220.0, 0));

  const RunResult mono_result = RunMono(base);

  ExpectZeroLostCompletions(mono_result);
  EXPECT_GT(mono_result.queries_reissued, 0u);
  EXPECT_EQ(mono_result.metrics.CounterValue(obs::kMetricShardCrashes), 2u);
  EXPECT_GT(mono_result.metrics.CounterValue(obs::kMetricSnapshots), 0u);

  ShardedSystemConfig sharded = StrictFaultConfig(base, 1);
  const ShardedRunResult sharded_result =
      RunShardedScenario(sharded, SqlbFactory());

  ExpectIdenticalRuns(mono_result, sharded_result.run);
  // The failover accounting is part of the parity surface too.
  for (const char* name :
       {obs::kMetricShardCrashes, obs::kMetricReissuedQueries,
        obs::kMetricRestoredProviders, obs::kMetricOrphanedProviders,
        obs::kMetricDroppedCompletions, obs::kMetricSnapshots}) {
    EXPECT_EQ(mono_result.metrics.CounterValue(name),
              sharded_result.run.metrics.CounterValue(name))
        << name;
  }
}

TEST(MonoFailoverTest, CrashPenaltyShowsUpInResponseTime) {
  SystemConfig calm = SmallConfig(1.1, 59);
  SystemConfig faulted = calm;
  faulted.shard_faults = FaultSchedule::KillAt(120.0, 0);
  faulted.shard_faults.snapshot_interval = 100.0;  // coarse: big loss window

  const RunResult calm_result = RunMono(calm);
  const RunResult faulted_result = RunMono(faulted);

  ExpectZeroLostCompletions(faulted_result);
  ASSERT_GT(faulted_result.queries_reissued, 0u);
  // Re-issued queries keep their original issue times, so the crash is an
  // availability penalty the response-time statistics must show.
  EXPECT_GT(faulted_result.response_time_all.max(),
            calm_result.response_time_all.max());
}

}  // namespace
}  // namespace sqlb::shard
