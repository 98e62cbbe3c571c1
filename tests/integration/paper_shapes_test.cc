// Integration tests pinning the *qualitative* findings of Section 6 on a
// reduced configuration: who wins, in which metric, and in which regime.
// Absolute values differ from the paper (different substrate, smaller
// population); the orderings must not.

#include <gtest/gtest.h>

#include <cmath>

#include "experiments/experiments.h"
#include "runtime/scenario_engine.h"

namespace sqlb {
namespace {

using experiments::MethodKind;
using runtime::ScenarioEngine;

/// Reduced Table 2 with the paper's provider-to-traffic sparsity.
runtime::SystemConfig ShapeConfig(std::uint64_t seed) {
  runtime::SystemConfig config;
  config.population.num_consumers = 50;
  config.population.num_providers = 100;
  config.provider.window.capacity = 150;
  config.consumer.window.capacity = 100;
  config.workload = runtime::WorkloadSpec::Constant(0.7);
  config.duration = 1000.0;
  config.stats_warmup = 200.0;
  config.seed = seed;
  return config;
}

double SeriesMean(const runtime::RunResult& result, const char* key) {
  return result.series.Find(key)->MeanOver(200.0, 1000.0);
}

class PaperShapesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const runtime::SystemConfig config = ShapeConfig(1234);
    sqlb_ = new runtime::RunResult(experiments::RunMethod(MethodKind::kSqlb, config));
    mariposa_ = new runtime::RunResult(experiments::RunMethod(MethodKind::kMariposa, config));
    capacity_ =
        new runtime::RunResult(experiments::RunMethod(MethodKind::kCapacityBased, config));
  }
  static void TearDownTestSuite() {
    delete sqlb_;
    delete mariposa_;
    delete capacity_;
    sqlb_ = mariposa_ = capacity_ = nullptr;
  }

  static runtime::RunResult* sqlb_;
  static runtime::RunResult* mariposa_;
  static runtime::RunResult* capacity_;
};

runtime::RunResult* PaperShapesTest::sqlb_ = nullptr;
runtime::RunResult* PaperShapesTest::mariposa_ = nullptr;
runtime::RunResult* PaperShapesTest::capacity_ = nullptr;

TEST_F(PaperShapesTest, ProviderIntentionSatisfactionOrdering) {
  // Figure 4(a): SQLB satisfies providers' intentions best.
  const double sqlb =
      SeriesMean(*sqlb_, ScenarioEngine::kSeriesProvSatIntMean);
  const double capacity =
      SeriesMean(*capacity_, ScenarioEngine::kSeriesProvSatIntMean);
  EXPECT_GT(sqlb, capacity + 0.03);
}

TEST_F(PaperShapesTest, PreferenceSatisfactionSqlbMatchesMariposa) {
  // Figure 4(b): on raw preferences SQLB ~ Mariposa-like, both above
  // Capacity based.
  const double sqlb =
      SeriesMean(*sqlb_, ScenarioEngine::kSeriesProvSatPrefMean);
  const double mariposa =
      SeriesMean(*mariposa_, ScenarioEngine::kSeriesProvSatPrefMean);
  const double capacity =
      SeriesMean(*capacity_, ScenarioEngine::kSeriesProvSatPrefMean);
  EXPECT_GT(sqlb, capacity + 0.03);
  EXPECT_GT(mariposa, capacity + 0.03);
  EXPECT_NEAR(sqlb, mariposa, 0.15);
}

TEST_F(PaperShapesTest, OnlySqlbSatisfiesConsumers) {
  // Figure 4(e): mu(das, C) > 1 only under SQLB.
  const double sqlb =
      SeriesMean(*sqlb_, ScenarioEngine::kSeriesConsAllocSatMean);
  const double mariposa =
      SeriesMean(*mariposa_, ScenarioEngine::kSeriesConsAllocSatMean);
  const double capacity =
      SeriesMean(*capacity_, ScenarioEngine::kSeriesConsAllocSatMean);
  EXPECT_GT(sqlb, 1.1);
  EXPECT_NEAR(mariposa, 1.0, 0.1);
  EXPECT_NEAR(capacity, 1.0, 0.1);
}

TEST_F(PaperShapesTest, CapacityBasedBalancesBest) {
  // Figures 4(g)-(h): Capacity based has the fairest utilization by a
  // clear margin. (SQLB and Mariposa-like trade places along the ramp in
  // the paper too — SQLB is the least fair under 40% load and catches up
  // as the workload grows — so no strict ordering is asserted between
  // them at a single workload.)
  const double sqlb = SeriesMean(*sqlb_, ScenarioEngine::kSeriesUtFair);
  const double mariposa =
      SeriesMean(*mariposa_, ScenarioEngine::kSeriesUtFair);
  const double capacity =
      SeriesMean(*capacity_, ScenarioEngine::kSeriesUtFair);
  EXPECT_GT(capacity, sqlb + 0.05);
  EXPECT_GT(capacity, mariposa + 0.05);
}

TEST_F(PaperShapesTest, ResponseTimeOrderingAndFactors) {
  // Figure 4(i): Capacity based fastest; SQLB a small factor above;
  // Mariposa-like the slowest by a clear margin.
  const double sqlb = sqlb_->response_time.mean();
  const double mariposa = mariposa_->response_time.mean();
  const double capacity = capacity_->response_time.mean();
  EXPECT_LT(capacity, sqlb);
  EXPECT_LT(sqlb, mariposa);
  EXPECT_LT(sqlb / capacity, 3.0);   // paper: ~1.4
  EXPECT_GT(mariposa / capacity, 1.8);  // paper: ~3
}

TEST(PaperShapesAutonomyTest, SqlbRetainsParticipants) {
  // Figures 5(c) and 6 at one workload: SQLB loses the fewest providers
  // and no consumers; the baselines lose far more providers and some
  // consumers.
  runtime::SystemConfig config = ShapeConfig(99);
  config.workload = runtime::WorkloadSpec::Constant(0.8);
  config.duration = 1500.0;
  config.departures = runtime::DepartureConfig::AllEnabled();
  config.departures.grace_period = 400.0;
  config.departures.check_interval = 300.0;

  const runtime::RunResult sqlb = experiments::RunMethod(MethodKind::kSqlb, config);
  const runtime::RunResult mariposa = experiments::RunMethod(MethodKind::kMariposa, config);
  const runtime::RunResult capacity =
      experiments::RunMethod(MethodKind::kCapacityBased, config);

  EXPECT_EQ(sqlb.ConsumerDeparturePercent(), 0.0);
  EXPECT_LT(sqlb.ProviderDeparturePercent() + 10.0,
            capacity.ProviderDeparturePercent());
  EXPECT_LT(sqlb.ProviderDeparturePercent() + 10.0,
            mariposa.ProviderDeparturePercent());
  // Capacity based loses providers primarily by dissatisfaction first
  // (Table 3's signature).
  EXPECT_GT(capacity.tally.ByReason(
                runtime::DepartureReason::kDissatisfaction),
            0u);
  // The Mariposa-like method loses providers by overutilization.
  EXPECT_GT(mariposa.tally.ByReason(
                runtime::DepartureReason::kOverutilization),
            0u);
}

}  // namespace
}  // namespace sqlb
