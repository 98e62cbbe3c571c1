// The benchmark's own tests: the method decorator is transparent, and the
// due-time join reconstructs decision latencies from a recorded trace.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "due_join.h"
#include "timed_method.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(TimedMethodTest, DesPaperOutputsAreBitIdenticalWithTheDecorator) {
  const sqlb::Config config = MakeConfig(Workload::kDesPaper, 11);
  MethodHub hub;
  const DesOutputs plain = RunSimulation(config, hub.Factory(false));
  ASSERT_EQ(hub.size(), 0u);
  const DesOutputs timed = RunSimulation(config, hub.Factory(true));
  EXPECT_EQ(plain, timed) << plain.ToString() << " vs " << timed.ToString();
  EXPECT_GT(plain.issued, 0u);
  EXPECT_GT(plain.allocsat, 0.0);

  // The decorator saw every decided query, each over the whole population.
  const ScoreStats score = hub.Total(0, hub.size());
  EXPECT_EQ(score.queries, plain.issued - plain.infeasible);
  EXPECT_GT(score.seconds, 0.0);
  EXPECT_EQ(score.CandidatesP50(), 400.0);
}

sqlb::Query TraceQuery(sqlb::QueryId id, std::uint32_t consumer,
                       std::uint32_t class_index, double issue_time) {
  sqlb::Query query;
  query.id = id;
  query.consumer = sqlb::ConsumerId(consumer);
  query.class_index = class_index;
  query.issue_time = issue_time;
  return query;
}

PresentedRequest Request(std::uint32_t consumer, std::uint32_t class_index,
                         double due, double submit_return,
                         bool accepted = true) {
  PresentedRequest request;
  request.consumer = consumer;
  request.class_index = class_index;
  request.due = due;
  request.submit_return = submit_return;
  request.accepted = accepted;
  return request;
}

// Two shards, time_scale 10: consumer 0 on shard 0, consumer 1 on shard 1.
// Shard 1's burst is flushed before shard 0's second burst, so the trace
// order (by burst) differs from the presentation order.
TEST(DueJoinTest, ReconstructsLatenciesFromAHandBuiltTrace) {
  const double kScale = 10.0;
  std::vector<PresentedRequest> requests = {
      Request(0, 0, 1.000, 1.001),
      Request(1, 1, 1.010, 1.012),
      Request(0, 1, 1.020, 1.022),
      Request(1, 0, 1.030, 1.031, /*accepted=*/false),
  };
  sqlb::runtime::ServingTrace trace;
  trace.queries = {
      TraceQuery(0, 0, 0, 10.00),  // request 0
      TraceQuery(1, 1, 1, 10.10),  // request 1
      TraceQuery(2, 0, 1, 10.20),  // request 2
  };
  trace.bursts = {
      {/*shard=*/0, /*flush_time=*/10.05, /*first=*/0, /*count=*/1},
      {/*shard=*/1, /*flush_time=*/10.12, /*first=*/1, /*count=*/1},
      {/*shard=*/0, /*flush_time=*/10.50, /*first=*/2, /*count=*/1},
  };
  std::vector<double> latency;
  std::string error;
  ASSERT_TRUE(JoinDueTimes(requests, trace, kScale, &latency, &error))
      << error;
  ASSERT_EQ(latency.size(), requests.size());
  EXPECT_NEAR(latency[0], 0.001 + 0.05 / kScale, 1e-12);
  EXPECT_NEAR(latency[1], 0.002 + 0.02 / kScale, 1e-12);
  EXPECT_NEAR(latency[2], 0.002 + 0.30 / kScale, 1e-12);
  EXPECT_EQ(latency[3], 0.0);  // refused: never reached the trace
}

TEST(DueJoinTest, RejectsATraceThatDoesNotMatchTheRequests) {
  std::vector<PresentedRequest> requests = {Request(0, 0, 1.0, 1.0)};
  sqlb::runtime::ServingTrace trace;
  trace.queries = {TraceQuery(0, 0, 1, 1.0)};
  trace.bursts = {{0, 1.0, 0, 1}};
  std::vector<double> latency;
  std::string error;
  EXPECT_FALSE(JoinDueTimes(requests, trace, 1.0, &latency, &error));
  EXPECT_NE(error.find("class"), std::string::npos) << error;

  trace.queries = {TraceQuery(0, 0, 0, 1.0), TraceQuery(1, 0, 0, 1.0)};
  trace.bursts = {{0, 1.0, 0, 2}};
  EXPECT_FALSE(JoinDueTimes(requests, trace, 1.0, &latency, &error));
}

}  // namespace
}  // namespace perfbench
