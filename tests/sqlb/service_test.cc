#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sqlb_method.h"
#include "runtime/departures.h"
#include "runtime/faults.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

/// \file
/// The sqlb::Service facade (src/sqlb/service.h): the unified
/// Config::Validate() path — actionable errors instead of scattered
/// asserts, including every schedule index and parallel shape the DES
/// driver would abort on — and facade/driver parity: running a scenario
/// through the facade must be bit-identical to constructing the driver
/// directly, and Mode::kMono must read nothing of `Config::sharded` but its
/// `base`.

namespace sqlb {
namespace {

runtime::SystemConfig SmallScenario() {
  runtime::SystemConfig config;
  config.population.num_consumers = 10;
  config.population.num_providers = 20;
  config.duration = 200.0;
  config.stats_warmup = 20.0;
  config.seed = 11;
  return config;
}

Service::MethodFactory SqlbFactory() {
  return [](std::uint32_t) { return std::make_unique<SqlbMethod>(); };
}

// --- Config::Validate -------------------------------------------------------

TEST(ServiceConfigTest, DefaultConfigIsValid) {
  Config config;
  config.scenario() = SmallScenario();
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ServiceConfigTest, RejectsNonPositiveDuration) {
  Config config;
  config.scenario() = SmallScenario();
  config.scenario().duration = 0.0;
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duration"), std::string::npos);
}

TEST(ServiceConfigTest, RejectsAdaptiveBatchingWithZeroWindowBounds) {
  Config config;
  config.mode = Mode::kSharded;
  config.scenario() = SmallScenario();
  config.sharded.adaptive_batch.enabled = true;
  config.sharded.adaptive_batch.max_window = 0.0;
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The message must say which knob and what to do about it.
  EXPECT_NE(status.message().find("max_window"), std::string::npos);
}

TEST(ServiceConfigTest, RejectsInvertedAdaptiveWindowBounds) {
  Config config;
  config.mode = Mode::kServing;
  config.scenario() = SmallScenario();
  config.serving.adaptive_batch.enabled = true;
  config.serving.adaptive_batch.min_window = 1.0;
  config.serving.adaptive_batch.max_window = 0.5;
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("min_window"), std::string::npos);
}

TEST(ServiceConfigTest, RejectsServingWithDepartures) {
  Config config;
  config.mode = Mode::kServing;
  config.scenario() = SmallScenario();
  config.scenario().departures = runtime::DepartureConfig::AllEnabled();
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("departure"), std::string::npos);
}

TEST(ServiceConfigTest, RejectsServingWithScriptedChurn) {
  Config config;
  config.mode = Mode::kServing;
  config.scenario() = SmallScenario();
  runtime::ProviderChurnEvent event;
  event.time = 10.0;
  config.scenario().provider_churn.events.push_back(event);
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceConfigTest, RejectsServingWithNonPositiveTimeScale) {
  Config config;
  config.mode = Mode::kServing;
  config.scenario() = SmallScenario();
  config.serving.time_scale = 0.0;
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("time_scale"), std::string::npos);
}

TEST(ServiceConfigTest, RejectsChurnWithNonPositiveRetryInterval) {
  Config config;
  config.scenario() = SmallScenario();
  runtime::ProviderChurnEvent event;
  event.time = 10.0;
  config.scenario().provider_churn.events.push_back(event);
  config.scenario().churn_retry_interval = 0.0;
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("churn_retry_interval"), std::string::npos);
}

// The DES driver aborts on a kill naming a shard it does not run and on a
// churn event naming a provider outside the population; Validate() must
// catch both first, so Create() can report them through its Status.

TEST(ServiceConfigTest, RejectsFaultOnUnknownShardUnderSharded) {
  Config config;
  config.mode = Mode::kSharded;
  config.scenario() = SmallScenario();
  config.sharded.router.num_shards = 4;
  config.scenario().shard_faults = runtime::FaultSchedule::KillAt(10.0, 7);
  Status status;
  EXPECT_EQ(Service::Create(config, SqlbFactory(), &status), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("shard_faults"), std::string::npos);

  config.scenario().shard_faults = runtime::FaultSchedule::KillAt(10.0, 3);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ServiceConfigTest, RejectsFaultOnNonzeroShardUnderMono) {
  Config config;
  config.mode = Mode::kMono;
  config.scenario() = SmallScenario();
  config.scenario().shard_faults = runtime::FaultSchedule::KillAt(10.0, 1);
  Status status;
  EXPECT_EQ(Service::Create(config, SqlbFactory(), &status), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("shard_faults"), std::string::npos);

  config.scenario().shard_faults = runtime::FaultSchedule::KillAt(10.0, 0);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ServiceConfigTest, RejectsChurnOnUnknownProvider) {
  // 20 providers: a flash join of providers 18..22 runs off the end.
  for (Mode mode : {Mode::kMono, Mode::kSharded}) {
    Config config;
    config.mode = mode;
    config.scenario() = SmallScenario();
    config.scenario().provider_churn =
        runtime::ChurnSchedule::FlashJoin(10.0, /*first=*/18, /*count=*/5);
    Status status;
    EXPECT_EQ(Service::Create(config, SqlbFactory(), &status), nullptr);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("provider_churn"), std::string::npos);
  }
}

TEST(ServiceConfigTest, RejectsChurnBeforeTimeZero) {
  Config config;
  config.scenario() = SmallScenario();
  runtime::ProviderChurnEvent event;
  event.time = -1.0;
  config.scenario().provider_churn.events.push_back(event);
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("provider_churn"), std::string::npos);
}

// A parallel run the parity rule (shard/parity.h) refuses must fail
// Validate(), not abort in Run(): one case per refused shape.

Config ParallelConfig() {
  Config config;
  config.mode = Mode::kSharded;
  config.scenario() = SmallScenario();
  config.sharded.router.num_shards = 4;
  config.sharded.worker_threads = 2;
  return config;
}

TEST(ServiceConfigTest, RejectsParallelRunWithRerouting) {
  const Config config = ParallelConfig();  // rerouting on by default
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rerouting"), std::string::npos);

  Config single = config;  // a single shard has nowhere to re-route to
  single.sharded.router.num_shards = 1;
  EXPECT_TRUE(single.Validate().ok());
}

TEST(ServiceConfigTest, RejectsParallelRunWithReputationFeedback) {
  Config config = ParallelConfig();
  config.sharded.router.policy = shard::RoutingPolicy::kLocality;
  config.sharded.rerouting_enabled = false;
  config.scenario().reputation_feedback = true;
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("reputation_feedback"), std::string::npos);
}

TEST(ServiceConfigTest, RejectsStrictParallelRunWithLoadAwareRouting) {
  Config config = ParallelConfig();
  config.sharded.router.policy = shard::RoutingPolicy::kLeastLoaded;
  config.sharded.rerouting_enabled = false;
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("kLocality"), std::string::npos);

  config.sharded.worker_threads = 0;  // serial runs admit every shape
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ServiceConfigTest, CreateSurfacesValidationErrorsThroughStatus) {
  Config config;
  config.scenario() = SmallScenario();
  config.scenario().query_n = 0;
  Status status;
  std::unique_ptr<Service> service =
      Service::Create(config, SqlbFactory(), &status);
  EXPECT_EQ(service, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("query_n"), std::string::npos);
}

// --- Facade parity ----------------------------------------------------------

TEST(ServiceParityTest, MonoRunMatchesStrictSingleShardRun) {
  // Mode::kMono (one hash-routed shard, rerouting and gossip on) against
  // the strict-parity single-shard shape with routing, rerouting and gossip
  // changed: at M = 1 none of them may change a result.
  Config mono;
  mono.mode = Mode::kMono;
  mono.scenario() = SmallScenario();
  const shard::ShardedRunResult a = Service::Create(mono, SqlbFactory())->Run();

  Config single;
  single.mode = Mode::kSharded;
  single.scenario() = SmallScenario();
  single.sharded.router.policy = shard::RoutingPolicy::kLocality;
  single.sharded.rerouting_enabled = false;
  single.sharded.gossip_enabled = false;
  const shard::ShardedRunResult b =
      Service::Create(single, SqlbFactory())->Run();

  EXPECT_EQ(a.run.queries_issued, b.run.queries_issued);
  EXPECT_EQ(a.run.queries_completed, b.run.queries_completed);
  EXPECT_EQ(a.run.queries_infeasible, b.run.queries_infeasible);
  EXPECT_EQ(a.run.response_time.mean(), b.run.response_time.mean());
  EXPECT_EQ(a.run.response_time.variance(), b.run.response_time.variance());
  EXPECT_EQ(a.run.method_name, b.run.method_name);
  ASSERT_EQ(a.shards.size(), 1u);
  ASSERT_EQ(b.shards.size(), 1u);
  EXPECT_EQ(a.shards[0].routed, a.run.queries_issued);
  EXPECT_EQ(a.shards[0].routed, b.shards[0].routed);
  EXPECT_EQ(a.shards[0].allocated, b.shards[0].allocated);
  EXPECT_EQ(a.reroutes, 0u);
  EXPECT_GT(a.gossip_load_messages, 0u);
  EXPECT_EQ(b.gossip_load_messages, 0u);
}

TEST(ServiceParityTest, MonoIgnoresEveryShardedFieldButBase) {
  Config plain;
  plain.mode = Mode::kMono;
  plain.scenario() = SmallScenario();

  // Every other ShardedSystemConfig field away from its default, several
  // to values kSharded itself would refuse (zero shards and route
  // attempts, a parallel run with rerouting on, a zero adaptive window).
  Config scrambled = plain;
  shard::ShardedSystemConfig& s = scrambled.sharded;
  s.router.num_shards = 0;
  s.router.policy = shard::RoutingPolicy::kLeastLoaded;
  s.router.virtual_nodes = 3;
  s.router.seed = 7;
  s.gossip_enabled = false;
  s.gossip_interval = 0.0;
  s.gossip_latency = msg::LatencyModel{1.0, 1.0};
  s.gossip_topology = shard::GossipTopologyKind::kHierarchical;
  s.gossip_fanout = 2;
  s.network_faults.drop_probability = 0.5;
  s.rerouting_enabled = true;
  s.saturation_backlog_seconds = 1.0;
  s.max_route_attempts = 0;
  s.worker_threads = 2;
  s.topology_aware_workers = true;
  s.batch_window = 0.5;
  s.adaptive_batch.enabled = true;
  s.adaptive_batch.max_window = 0.0;
  s.rebalance_enabled = true;
  s.rebalance_interval = 0.0;
  ASSERT_TRUE(scrambled.Validate().ok());

  const shard::ShardedRunResult a =
      Service::Create(plain, SqlbFactory())->Run();
  const shard::ShardedRunResult b =
      Service::Create(scrambled, SqlbFactory())->Run();

  EXPECT_EQ(a.run.queries_issued, b.run.queries_issued);
  EXPECT_EQ(a.run.queries_completed, b.run.queries_completed);
  EXPECT_EQ(a.run.queries_infeasible, b.run.queries_infeasible);
  EXPECT_EQ(a.run.response_time.mean(), b.run.response_time.mean());
  EXPECT_EQ(a.run.response_time.variance(), b.run.response_time.variance());
  ASSERT_EQ(a.run.series.Names(), b.run.series.Names());
  for (const std::string& name : a.run.series.Names()) {
    EXPECT_EQ(a.run.series.Find(name)->samples,
              b.run.series.Find(name)->samples)
        << name;
  }
  // Both ran the defaults: one shard, serial, unbatched, direct gossip.
  for (const shard::ShardedRunResult* r : {&a, &b}) {
    ASSERT_EQ(r->shards.size(), 1u);
    EXPECT_EQ(r->batch_flushes, 0u);
    EXPECT_EQ(r->ring_epoch, 0u);
    EXPECT_EQ(r->net_injected_drops, 0u);
    EXPECT_EQ(r->gossip_relay_forwards, 0u);
  }
  EXPECT_EQ(a.gossip_load_messages, b.gossip_load_messages);
  EXPECT_GT(b.gossip_load_messages, 0u);
}

TEST(ServiceParityTest, ShardedRunMatchesDirectDriverBitForBit) {
  shard::ShardedSystemConfig sharded;
  sharded.base = SmallScenario();
  sharded.router.num_shards = 4;
  const shard::ShardedRunResult direct =
      shard::RunShardedScenario(sharded, SqlbFactory());

  Config config;
  config.mode = Mode::kSharded;
  config.sharded = sharded;
  const shard::ShardedRunResult facade =
      Service::Create(config, SqlbFactory())->Run();

  EXPECT_EQ(facade.run.queries_issued, direct.run.queries_issued);
  EXPECT_EQ(facade.run.queries_completed, direct.run.queries_completed);
  EXPECT_EQ(facade.run.response_time.mean(),
            direct.run.response_time.mean());
  ASSERT_EQ(facade.shards.size(), direct.shards.size());
  for (std::size_t s = 0; s < facade.shards.size(); ++s) {
    EXPECT_EQ(facade.shards[s].routed, direct.shards[s].routed);
    EXPECT_EQ(facade.shards[s].allocated, direct.shards[s].allocated);
  }
}

TEST(ServiceParityTest, ServingLifecycleWorksThroughTheFacade) {
  Config config;
  config.mode = Mode::kServing;
  config.scenario() = SmallScenario();
  config.serving.time_scale = 200.0;
  std::unique_ptr<Service> service = Service::Create(config, SqlbFactory());

  runtime::ServingProducer* producer = service->RegisterProducer();
  service->Start();
  const std::vector<runtime::ServingRequest> requests(50);
  const std::size_t accepted =
      service->SubmitMany(producer, requests.data(), requests.size());
  EXPECT_EQ(accepted, 50u);
  service->Drain();
  const runtime::ServingReport report = service->Stop();
  EXPECT_EQ(report.served, 50u);
  EXPECT_EQ(report.run.queries_completed + report.run.queries_infeasible,
            report.run.queries_issued);

  // The facade replay drives the same oracle as ReplayServingTrace.
  const runtime::ServingReplayResult replay = service->Replay();
  std::string diff;
  EXPECT_TRUE(service->trace().decisions.IdenticalTo(replay.decisions, &diff))
      << diff;
}

// A mono or sharded service has no serving tier behind it: submitting to
// one must fail loudly, never dereference the absent intake.
TEST(ServiceModeDeathTest, SubmitPathsAreServingModeOnly) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (Mode mode : {Mode::kMono, Mode::kSharded}) {
    Config config;
    config.mode = mode;
    config.scenario() = SmallScenario();
    std::unique_ptr<Service> service = Service::Create(config, SqlbFactory());
    ASSERT_NE(service, nullptr);
    const runtime::ServingRequest request;
    EXPECT_DEATH(service->Submit(nullptr, 0, 0), "Submit is serving-mode only");
    EXPECT_DEATH(service->SubmitMany(nullptr, &request, 1),
                 "SubmitMany is serving-mode only");
  }
}

}  // namespace
}  // namespace sqlb
