#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/sqlb_method.h"
#include "runtime/serving_mediator.h"

/// \file
/// The replay oracle of the wall-clock serving tier
/// (runtime/serving_mediator.h): a multi-threaded serving run records every
/// served query, burst and allocation decision; replaying the recorded
/// bursts through the DES with an identically-built system must reproduce
/// the decision log bit-for-bit, and the conservation identity
/// completed + infeasible == issued must hold on both sides. Wall-clock
/// timing varies run to run — the pins here are exactly the invariants that
/// must NOT vary with it.

namespace sqlb::runtime {
namespace {

SystemConfig SmallScenario() {
  SystemConfig config;
  config.population.num_consumers = 12;
  config.population.num_providers = 24;
  config.seed = 7;
  config.record_series = false;
  return config;
}

ServingMediator::MethodFactory SqlbFactory() {
  return [](std::uint32_t) { return std::make_unique<SqlbMethod>(); };
}

/// Runs `producers` threads x `per_producer` submissions against a serving
/// mediator and returns (report, trace) after a full drain.
struct ServedRun {
  ServingReport report;
  ServingTrace trace;
};

ServedRun Serve(const SystemConfig& scenario, const ServingConfig& serving,
                std::uint32_t producers, std::uint64_t per_producer,
                bool closed_loop = false) {
  ServingMediator mediator(scenario, serving, SqlbFactory());
  std::vector<ServingProducer*> handles;
  for (std::uint32_t p = 0; p < producers; ++p) {
    handles.push_back(mediator.RegisterProducer());
  }
  mediator.Start();
  std::vector<std::thread> threads;
  const std::uint32_t consumers =
      static_cast<std::uint32_t>(scenario.population.num_consumers);
  const std::uint32_t classes = static_cast<std::uint32_t>(
      scenario.population.query_class_units.size());
  for (std::uint32_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      ServingProducer* producer = handles[p];
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        const std::uint32_t consumer =
            static_cast<std::uint32_t>((p + producers * i) % consumers);
        while (!mediator.Submit(producer, consumer,
                                static_cast<std::uint32_t>(i % classes))) {
          std::this_thread::yield();
        }
        if (closed_loop) producer->AwaitMediated(producer->submitted());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  mediator.Drain();
  ServedRun run;
  run.report = mediator.Stop();
  run.trace = mediator.trace();
  return run;
}

TEST(ServingReplayTest, ReplayReproducesEveryDecisionBitForBit) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 2;
  serving.time_scale = 200.0;  // plenty of simulated capacity per wall second
  const ServedRun served = Serve(scenario, serving, /*producers=*/4,
                                 /*per_producer=*/500);

  ASSERT_EQ(served.report.served, 4u * 500u);
  ASSERT_EQ(served.trace.queries.size(), served.report.served);
  ASSERT_EQ(served.trace.decisions.size(), served.report.served);

  const ServingReplayResult replay = ReplayServingTrace(
      scenario, serving, SqlbFactory(), served.trace);
  std::string diff;
  EXPECT_TRUE(served.trace.decisions.IdenticalTo(replay.decisions, &diff))
      << diff;
  // The replay issues exactly the recorded queries, so the headline
  // counters must agree too.
  EXPECT_EQ(replay.run.queries_issued, served.report.run.queries_issued);
  EXPECT_EQ(replay.run.queries_infeasible,
            served.report.run.queries_infeasible);
}

TEST(ServingReplayTest, ConservationHoldsOnBothSidesOfTheOracle) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 4;
  serving.time_scale = 100.0;
  serving.max_burst = 8;
  const ServedRun served = Serve(scenario, serving, /*producers=*/3,
                                 /*per_producer=*/400);

  const RunResult& live = served.report.run;
  EXPECT_EQ(live.queries_completed + live.queries_infeasible,
            live.queries_issued);
  EXPECT_EQ(live.queries_issued, served.report.served);

  const ServingReplayResult replay = ReplayServingTrace(
      scenario, serving, SqlbFactory(), served.trace);
  EXPECT_EQ(replay.run.queries_completed + replay.run.queries_infeasible,
            replay.run.queries_issued);
  EXPECT_EQ(replay.run.queries_completed, live.queries_completed);
}

TEST(ServingReplayTest, ClosedLoopProducersSeeEveryQueryMediated) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.time_scale = 200.0;
  const ServedRun served = Serve(scenario, serving, /*producers=*/2,
                                 /*per_producer=*/100, /*closed_loop=*/true);
  EXPECT_EQ(served.report.served, 200u);
  EXPECT_EQ(served.report.shed, 0u);
  // Closed-loop: each producer has at most one query outstanding, so a
  // burst carries at most one query per producer.
  EXPECT_GE(served.report.bursts, 100u);
  EXPECT_LE(served.report.bursts, 200u);
  // The merged wall-latency histogram saw exactly one sample per query.
  EXPECT_EQ(served.report.intake_wall.count(), 200u);
}

TEST(ServingReplayTest, BoundedIntakeShedsInsteadOfGrowingWithoutLimit) {
  SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.max_queued_per_shard = 64;
  serving.shards = 1;

  ServingMediator mediator(scenario, serving, SqlbFactory());
  ServingProducer* producer = mediator.RegisterProducer();
  // Flood before Start: nothing drains, so the bounded queue must fill and
  // then shed deterministically.
  for (int i = 0; i < 5000; ++i) {
    mediator.Submit(producer, /*consumer_index=*/0, /*class_index=*/0);
  }
  EXPECT_GT(producer->shed(), 0u);
  // The per-shard reservation counter enforces the bound exactly — not
  // rounded up to the queue's chunk granularity.
  EXPECT_EQ(producer->submitted(), serving.max_queued_per_shard);
  mediator.Start();
  mediator.Drain();  // everything accepted must still be served
  const ServingReport report = mediator.Stop();
  EXPECT_EQ(report.submitted + report.shed, 5000u);
  EXPECT_EQ(report.served, report.submitted);
}

TEST(ServingReplayTest, ServingMetricsCarryTheIntakeHistogram) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.time_scale = 200.0;
  const ServedRun served = Serve(scenario, serving, /*producers=*/2,
                                 /*per_producer=*/150);
  const obs::Histogram* merged = served.report.run.metrics.FindHistogram(
      obs::kMetricServingIntakeWall);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), served.report.served);
  // Merged quantiles equal the report's histogram (same fold).
  EXPECT_DOUBLE_EQ(merged->Quantile(0.99),
                   served.report.intake_wall.Quantile(0.99));
}

/// Checks the structural invariants of a merged multi-group trace: bursts
/// come in group order (a burst's group is shard / (shards /
/// mediator_threads)) with flush times that never decrease within a group,
/// they cover the query stream contiguously, every query has one decision,
/// and query ids are globally unique with their burst's group residue.
void CheckGroupBursts(const ServingTrace& trace, std::size_t mediator_threads,
                      std::size_t shards) {
  const std::size_t shards_per_group = shards / mediator_threads;
  std::size_t query_cursor = 0;
  std::size_t group = 0;
  SimTime last_flush = 0.0;
  std::set<std::size_t> groups_seen;
  std::set<QueryId> seen_ids;
  for (const ServingBurst& burst : trace.bursts) {
    ASSERT_LT(burst.shard, shards);
    const std::size_t burst_group = burst.shard / shards_per_group;
    ASSERT_GE(burst_group, group) << "bursts out of group order";
    if (burst_group != group) last_flush = 0.0;
    group = burst_group;
    groups_seen.insert(group);
    EXPECT_GE(burst.flush_time, last_flush);
    last_flush = burst.flush_time;
    ASSERT_EQ(burst.first, query_cursor);
    ASSERT_LE(burst.first + burst.count, trace.queries.size());
    query_cursor += burst.count;
    for (std::size_t q = burst.first; q < burst.first + burst.count; ++q) {
      EXPECT_EQ(trace.queries[q].id % mediator_threads, group);
      EXPECT_TRUE(seen_ids.insert(trace.queries[q].id).second)
          << "duplicate query id " << trace.queries[q].id;
    }
  }
  EXPECT_EQ(groups_seen.size(), mediator_threads);
  EXPECT_EQ(query_cursor, trace.queries.size());
  EXPECT_EQ(trace.decisions.size(), trace.queries.size());
}

TEST(ServingReplayTest, MultiGroupRunReplaysEveryGroupBitForBit) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 4;
  serving.mediator_threads = 2;
  serving.time_scale = 100.0;
  const ServedRun served = Serve(scenario, serving, /*producers=*/4,
                                 /*per_producer=*/300);

  ASSERT_EQ(served.report.served, 4u * 300u);
  CheckGroupBursts(served.trace, serving.mediator_threads, serving.shards);

  const RunResult& live = served.report.run;
  EXPECT_EQ(live.queries_completed + live.queries_infeasible,
            live.queries_issued);

  const ServingReplayResult replay = ReplayServingTrace(
      scenario, serving, SqlbFactory(), served.trace);
  std::string diff;
  EXPECT_TRUE(served.trace.decisions.IdenticalTo(replay.decisions, &diff))
      << diff;
  EXPECT_EQ(replay.run.queries_completed + replay.run.queries_infeasible,
            replay.run.queries_issued);
  EXPECT_EQ(replay.run.queries_completed, live.queries_completed);

  // A trace only needs flush times that never decrease within a group: the
  // bursts in wall order (a stable sort keeps each group's order) replay to
  // the identical log. One closed-loop producer cycling through the
  // consumers (shards 0,1,2,3,...) makes the two groups take turns, so the
  // wall order is sure to interleave them. At this time scale a query's
  // service (at most 150 units at 100/7 units/s, 10.5 sim s) takes at most
  // ~10 us of wall time, so completions fire between the bursts and the
  // replay must fire them at the recorded flush times too.
  ServingConfig fast_clock = serving;
  fast_clock.time_scale = 1e6;
  const ServedRun alternating = Serve(scenario, fast_clock, /*producers=*/1,
                                      /*per_producer=*/200,
                                      /*closed_loop=*/true);
  ASSERT_FALSE(alternating.trace.bursts.empty());
  ASSERT_GT(alternating.trace.bursts.back().flush_time -
                alternating.trace.bursts.front().flush_time,
            30.0)
      << "the run must outlast several service times";
  ServingTrace interleaved = alternating.trace;
  std::stable_sort(interleaved.bursts.begin(), interleaved.bursts.end(),
                   [](const ServingBurst& a, const ServingBurst& b) {
                     return a.flush_time < b.flush_time;
                   });
  const std::size_t shards_per_group =
      serving.shards / serving.mediator_threads;
  std::size_t group_changes = 0;
  for (std::size_t b = 1; b < interleaved.bursts.size(); ++b) {
    if (interleaved.bursts[b].shard / shards_per_group !=
        interleaved.bursts[b - 1].shard / shards_per_group) {
      ++group_changes;
    }
  }
  ASSERT_GT(group_changes, 1u) << "the groups' bursts did not interleave";
  const ServingReplayResult resorted = ReplayServingTrace(
      scenario, fast_clock, SqlbFactory(), interleaved);
  EXPECT_TRUE(
      alternating.trace.decisions.IdenticalTo(resorted.decisions, &diff))
      << diff;
}

TEST(ServingReplayTest, OneThreadPerShardReplaysExactly) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 4;
  serving.mediator_threads = 4;
  serving.time_scale = 100.0;
  serving.max_burst = 8;
  const ServedRun served = Serve(scenario, serving, /*producers=*/3,
                                 /*per_producer=*/200);

  ASSERT_EQ(served.report.served, 3u * 200u);
  CheckGroupBursts(served.trace, serving.mediator_threads, serving.shards);
  const ServingReplayResult replay = ReplayServingTrace(
      scenario, serving, SqlbFactory(), served.trace);
  std::string diff;
  EXPECT_TRUE(served.trace.decisions.IdenticalTo(replay.decisions, &diff))
      << diff;
}

TEST(ServingReplayTest, SingleThreadTraceHasOneGroupAndDenseSequentialIds) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 2;
  serving.time_scale = 200.0;
  const ServedRun served = Serve(scenario, serving, /*producers=*/2,
                                 /*per_producer=*/200);

  // mediator_threads defaults to 1: every burst belongs to the one group,
  // and the id sequence is the single-thread tier's plain 0,1,2,...
  // (sorted, since flush order across shards interleaves).
  CheckGroupBursts(served.trace, 1, serving.shards);
  std::vector<QueryId> ids;
  for (const Query& query : served.trace.queries) ids.push_back(query.id);
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 400u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<QueryId>(i));
  }
}

TEST(ServingReplayTest, SubmitManyDrivenRunReplaysExactly) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 4;
  serving.mediator_threads = 2;
  serving.time_scale = 100.0;
  constexpr std::uint32_t kProducers = 3;
  constexpr std::size_t kPerProducer = 600;

  ServingMediator mediator(scenario, serving, SqlbFactory());
  std::vector<ServingProducer*> handles;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    handles.push_back(mediator.RegisterProducer());
  }
  mediator.Start();
  std::vector<std::thread> threads;
  const std::uint32_t consumers =
      static_cast<std::uint32_t>(scenario.population.num_consumers);
  const std::uint32_t classes = static_cast<std::uint32_t>(
      scenario.population.query_class_units.size());
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      std::vector<ServingRequest> requests(kPerProducer);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].consumer =
            static_cast<std::uint32_t>((p + kProducers * i) % consumers);
        requests[i].class_index = static_cast<std::uint32_t>(i % classes);
      }
      // Accepted prefix contract: retry the unaccepted suffix only.
      std::size_t done = 0;
      while (done < requests.size()) {
        const std::size_t got = mediator.SubmitMany(
            handles[p], requests.data() + done, requests.size() - done);
        done += got;
        if (got == 0) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  mediator.Drain();
  const ServingReport report = mediator.Stop();

  EXPECT_EQ(report.submitted, kProducers * kPerProducer);
  EXPECT_EQ(report.served, report.submitted);
  EXPECT_EQ(report.run.queries_completed + report.run.queries_infeasible,
            report.run.queries_issued);
  CheckGroupBursts(mediator.trace(), serving.mediator_threads,
                   serving.shards);
  const ServingReplayResult replay =
      ReplayServingTrace(scenario, serving, SqlbFactory(), mediator.trace());
  std::string diff;
  EXPECT_TRUE(
      mediator.trace().decisions.IdenticalTo(replay.decisions, &diff))
      << diff;
}

TEST(ServingReplayTest, AdaptiveBatchingStillReplaysExactly) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 2;
  serving.time_scale = 50.0;
  serving.adaptive_batch.enabled = true;
  serving.adaptive_batch.min_window = 0.0;
  serving.adaptive_batch.max_window = 0.05;
  const ServedRun served = Serve(scenario, serving, /*producers=*/4,
                                 /*per_producer=*/250);
  ASSERT_EQ(served.report.served, 1000u);
  const ServingReplayResult replay = ReplayServingTrace(
      scenario, serving, SqlbFactory(), served.trace);
  std::string diff;
  EXPECT_TRUE(served.trace.decisions.IdenticalTo(replay.decisions, &diff))
      << diff;
}

TEST(ServingReplayDeathTest, BurstsOutsideTheRecordedRunAreRefused) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 4;
  serving.mediator_threads = 2;
  ServingTrace trace;
  trace.queries.resize(1);
  trace.bursts.push_back(ServingBurst{4, 0.0, 0, 1});
  EXPECT_DEATH(ReplayServingTrace(scenario, serving, SqlbFactory(), trace),
               "unknown shard 4 of 4");
  trace.bursts[0] = ServingBurst{0, 0.0, 0, 2};
  EXPECT_DEATH(ReplayServingTrace(scenario, serving, SqlbFactory(), trace),
               "burst range out of trace bounds");
}

}  // namespace
}  // namespace sqlb::runtime
