#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sqlb_method.h"
#include "runtime/mediation_system.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

/// \file
/// The sqlb::Service facade (src/sqlb/service.h): the unified
/// Config::Validate() path — actionable errors instead of scattered
/// asserts — and facade/driver parity: running a scenario through the
/// facade must be bit-identical to constructing the driver directly.

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

TEST(ServiceParityTest, MonoRunMatchesDirectDriverBitForBit) {
  const runtime::SystemConfig scenario = SmallScenario();
  SqlbMethod method;
  const runtime::RunResult direct = runtime::RunScenario(scenario, &method);

  Config config;
  config.mode = Mode::kMono;
  config.scenario() = scenario;
  const shard::ShardedRunResult facade =
      Service::Create(config, SqlbFactory())->Run();

  EXPECT_EQ(facade.run.queries_issued, direct.queries_issued);
  EXPECT_EQ(facade.run.queries_completed, direct.queries_completed);
  EXPECT_EQ(facade.run.queries_infeasible, direct.queries_infeasible);
  EXPECT_EQ(facade.run.response_time.mean(), direct.response_time.mean());
  EXPECT_EQ(facade.run.method_name, direct.method_name);
  // The synthetic shard entry mirrors the mono run.
  ASSERT_EQ(facade.shards.size(), 1u);
  EXPECT_EQ(facade.shards[0].routed, direct.queries_issued);
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
  const std::size_t accepted =
      service->SubmitBatch(producer, /*consumer_index=*/0,
                           /*class_index=*/0, /*count=*/50);
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
    EXPECT_DEATH(service->SubmitBatch(nullptr, 0, 0, 1),
                 "SubmitBatch is serving-mode only");
  }
}

}  // namespace
}  // namespace sqlb
