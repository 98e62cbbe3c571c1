#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/sqlb_method.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/shard_router.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

/// \file
/// The flight-recorder determinism contract, end to end:
///
///  - under strict parity the full span stream (sorted by start/lane/seq)
///    is bit-identical between the serial run and every parallel run of the
///    same config, across shard counts M in {1, 4, 8} and worker threads in
///    {1, 2, hardware_concurrency} — with sampling at 1 (every query) and
///    zero ring overflow;
///  - the merged metrics snapshot is bit-identical too (same fold, same
///    JSON byte stream);
///  - observability is pure observation: turning tracing and histograms on
///    or off never changes what the simulation itself computes.

namespace sqlb::shard {
namespace {

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

/// Strict-parity parallel config with full-rate tracing: consumer-affine
/// routing, no rerouting, every query sampled.
ShardedSystemConfig TracedConfig(const SystemConfig& base,
                                 std::size_t shards) {
  ShardedSystemConfig config;
  config.base = base;
  config.base.observability.trace = true;
  config.base.observability.trace_sample_every = 1;
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

void ExpectIdenticalSpanStreams(const std::vector<obs::TraceSpan>& a,
                                const std::vector<obs::TraceSpan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << i;
    EXPECT_EQ(a[i].end, b[i].end) << i;
    EXPECT_EQ(a[i].ref, b[i].ref) << i;
    EXPECT_EQ(a[i].detail, b[i].detail) << i;
    EXPECT_EQ(a[i].lane, b[i].lane) << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << i;
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind)) << i;
    // One index is enough to localize a mismatch.
    if (::testing::Test::HasFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Strict parity: the traced parallel run reproduces the traced serial run's
// span stream and metrics snapshot bit for bit.
// ---------------------------------------------------------------------------

class TraceParityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(TraceParityTest, SpanStreamAndMetricsAreBitIdenticalToSerial) {
  const std::size_t shards = std::get<0>(GetParam());
  const std::size_t threads = std::get<1>(GetParam());

  ShardedSystemConfig serial = TracedConfig(SmallConfig(0.8), shards);
  const ShardedRunResult serial_result =
      RunShardedScenario(serial, SqlbFactory());

  ShardedSystemConfig parallel = serial;
  parallel.worker_threads = threads;
  const ShardedRunResult parallel_result =
      RunShardedScenario(parallel, SqlbFactory());

  // The contract only promises bit-identity when nothing overflowed; with
  // barrier drains and the default ring this must be zero, not merely equal.
  EXPECT_EQ(serial_result.run.trace_spans_dropped, 0u);
  EXPECT_EQ(parallel_result.run.trace_spans_dropped, 0u);
  // Sampling at 1 with a served workload must actually produce spans.
  ASSERT_GT(serial_result.run.trace_spans.size(), 0u);

  ExpectIdenticalSpanStreams(serial_result.run.trace_spans,
                             parallel_result.run.trace_spans);
  EXPECT_EQ(serial_result.run.metrics.ToJson(),
            parallel_result.run.metrics.ToJson());
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndThreads, TraceParityTest,
    ::testing::Values(
        std::make_tuple(std::size_t{1}, std::size_t{1}),
        std::make_tuple(std::size_t{1}, std::size_t{2}),
        std::make_tuple(std::size_t{1},
                        std::size_t{std::max(2u,
                                             std::thread::hardware_concurrency())}),
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

TEST(TraceDeterminismTest, RepeatedTracedRunsProduceTheSameStream) {
  ShardedSystemConfig config = TracedConfig(SmallConfig(0.9, 5), 4);
  config.worker_threads = std::max(2u, std::thread::hardware_concurrency());
  const ShardedRunResult first = RunShardedScenario(config, SqlbFactory());
  const ShardedRunResult second = RunShardedScenario(config, SqlbFactory());
  ASSERT_GT(first.run.trace_spans.size(), 0u);
  ExpectIdenticalSpanStreams(first.run.trace_spans, second.run.trace_spans);
  EXPECT_EQ(first.run.metrics.ToJson(), second.run.metrics.ToJson());
}

TEST(TraceDeterminismTest, SortedStreamIsATotalOrder) {
  const ShardedRunResult result =
      RunShardedScenario(TracedConfig(SmallConfig(0.8), 4), SqlbFactory());
  const auto& spans = result.run.trace_spans;
  ASSERT_GT(spans.size(), 1u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const auto key = [](const obs::TraceSpan& s) {
      return std::make_tuple(s.start, s.lane, s.seq);
    };
    EXPECT_LT(key(spans[i - 1]), key(spans[i])) << i;
    if (HasFailure()) break;
  }
}

TEST(TraceDeterminismTest, SamplingThinsTheStreamDeterministically) {
  // sample_every=16 must keep exactly the spans whose query id is a
  // multiple of 16 — a strict subset of the full-rate run's query spans —
  // while non-query spans (gossip, handoff) are unaffected by sampling.
  ShardedSystemConfig full = TracedConfig(SmallConfig(0.8), 4);
  const ShardedRunResult full_result =
      RunShardedScenario(full, SqlbFactory());

  ShardedSystemConfig sampled = full;
  sampled.base.observability.trace_sample_every = 16;
  const ShardedRunResult sampled_result =
      RunShardedScenario(sampled, SqlbFactory());

  ASSERT_GT(sampled_result.run.trace_spans.size(), 0u);
  EXPECT_LT(sampled_result.run.trace_spans.size(),
            full_result.run.trace_spans.size());
  for (const obs::TraceSpan& span : sampled_result.run.trace_spans) {
    if (span.kind == obs::SpanKind::kGossip ||
        span.kind == obs::SpanKind::kHandoff) {
      continue;
    }
    EXPECT_EQ(span.ref % 16, 0u) << obs::SpanKindName(span.kind);
    if (HasFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Pure observation: toggling observability never changes the simulation.
// ---------------------------------------------------------------------------

void ExpectSameSimulation(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_infeasible, b.queries_infeasible);
  EXPECT_EQ(a.response_time.count(), b.response_time.count());
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.response_time.variance(), b.response_time.variance());
  EXPECT_EQ(a.response_time_all.sum(), b.response_time_all.sum());
  EXPECT_EQ(a.remaining_providers, b.remaining_providers);
  EXPECT_EQ(a.remaining_consumers, b.remaining_consumers);
}

TEST(ObservabilityTransparencyTest, TracingNeverPerturbsTheShardedRun) {
  ShardedSystemConfig off = TracedConfig(SmallConfig(0.8), 4);
  off.base.observability.trace = false;
  off.base.observability.metrics = false;
  const ShardedRunResult off_result = RunShardedScenario(off, SqlbFactory());

  ShardedSystemConfig on = TracedConfig(SmallConfig(0.8), 4);
  const ShardedRunResult on_result = RunShardedScenario(on, SqlbFactory());

  ExpectSameSimulation(off_result.run, on_result.run);
  EXPECT_EQ(off_result.reroutes, on_result.reroutes);
  EXPECT_EQ(off_result.gossip_sent, on_result.gossip_sent);
  // And the gating actually gates: no spans, no hot histograms when off.
  EXPECT_TRUE(off_result.run.trace_spans.empty());
  EXPECT_EQ(off_result.run.ResponseTimeQuantile(0.5), 0.0);
  EXPECT_GT(on_result.run.ResponseTimeQuantile(0.5), 0.0);
}

TEST(ObservabilityTransparencyTest, TracingNeverPerturbsTheMonoMediator) {
  SystemConfig base = SmallConfig(0.7);
  const RunResult off_result = RunMono(base);

  SystemConfig traced = base;
  traced.observability.trace = true;
  traced.observability.trace_sample_every = 1;
  const RunResult on_result = RunMono(traced);

  ExpectSameSimulation(off_result, on_result);
  ASSERT_GT(on_result.trace_spans.size(), 0u);
  EXPECT_EQ(on_result.trace_spans_dropped, 0u);
}

TEST(ObservabilityTransparencyTest,
     MonoAndM1ShardedTracedRunsAgreeOnQuerySpans) {
  // The strict-parity M=1 shape (consumer-affine routing, no rerouting)
  // must tell the same per-query story Mode::kMono's hash-routed shard
  // tells: same span multiset for the mediation-core kinds.
  SystemConfig base = SmallConfig(0.7);
  base.observability.trace = true;
  base.observability.trace_sample_every = 1;
  const RunResult mono_result = RunMono(base);

  ShardedSystemConfig sharded = TracedConfig(SmallConfig(0.7), 1);
  const ShardedRunResult sharded_result =
      RunShardedScenario(sharded, SqlbFactory());

  auto count_kind = [](const std::vector<obs::TraceSpan>& spans,
                       obs::SpanKind kind) {
    return std::count_if(spans.begin(), spans.end(),
                         [kind](const obs::TraceSpan& s) {
                           return s.kind == kind;
                         });
  };
  for (obs::SpanKind kind :
       {obs::SpanKind::kGather, obs::SpanKind::kScore,
        obs::SpanKind::kAllocate, obs::SpanKind::kExecute,
        obs::SpanKind::kComplete}) {
    EXPECT_EQ(count_kind(mono_result.trace_spans, kind),
              count_kind(sharded_result.run.trace_spans, kind))
        << obs::SpanKindName(kind);
  }
}

}  // namespace
}  // namespace sqlb::shard
