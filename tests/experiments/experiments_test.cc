#include "experiments/experiments.h"

#include <gtest/gtest.h>

#include "runtime/scenario_engine.h"

namespace sqlb::experiments {
namespace {

/// Tiny configuration so harness tests run in tens of milliseconds.
runtime::SystemConfig TinyConfig() {
  runtime::SystemConfig config = PaperConfig(/*seed=*/42);
  config.population.num_consumers = 10;
  config.population.num_providers = 20;
  config.consumer.window.capacity = 20;
  config.provider.window.capacity = 40;
  config.duration = 120.0;
  config.sample_interval = 10.0;
  config.stats_warmup = 20.0;
  return config;
}

TEST(MethodFactoryTest, EveryKindInstantiatesWithItsName) {
  const MethodKind kinds[] = {
      MethodKind::kSqlb,          MethodKind::kCapacityBased,
      MethodKind::kCapacityMaxAvailable, MethodKind::kMariposa,
      MethodKind::kRandom,        MethodKind::kRoundRobin,
      MethodKind::kKnBest,        MethodKind::kSqlbEconomic,
  };
  for (MethodKind kind : kinds) {
    auto method = MakeMethod(kind, 1);
    ASSERT_NE(method, nullptr);
    EXPECT_EQ(method->name(), MethodName(kind));
  }
}

TEST(MethodFactoryTest, PaperTrioOrder) {
  const auto trio = PaperTrio();
  ASSERT_EQ(trio.size(), 3u);
  EXPECT_EQ(trio[0], MethodKind::kSqlb);
  EXPECT_EQ(trio[1], MethodKind::kMariposa);
  EXPECT_EQ(trio[2], MethodKind::kCapacityBased);
}

TEST(PaperConfigTest, MirrorsTable2) {
  const runtime::SystemConfig config = PaperConfig(7);
  EXPECT_EQ(config.population.num_consumers, 200u);
  EXPECT_EQ(config.population.num_providers, 400u);
  EXPECT_EQ(config.consumer.window.capacity, 200u);
  EXPECT_EQ(config.provider.window.capacity, 500u);
  EXPECT_DOUBLE_EQ(config.consumer.window.prior, 0.5);
  EXPECT_DOUBLE_EQ(config.duration, 10000.0);
  EXPECT_EQ(config.query_n, 1u);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.workload.kind, runtime::WorkloadSpec::Kind::kRamp);
}

TEST(FastModeTest, ShrinksPopulationAndDuration) {
  runtime::SystemConfig config = PaperConfig(7);
  ApplyFastMode(config);
  EXPECT_EQ(config.population.num_consumers, 50u);
  EXPECT_EQ(config.population.num_providers, 100u);
  EXPECT_DOUBLE_EQ(config.duration, 2500.0);
}

TEST(QualityRampTest, OneResultPerMethodWithSeries) {
  const auto results =
      RunQualityRamp(TinyConfig(), {MethodKind::kSqlb,
                                    MethodKind::kCapacityBased});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].method, MethodKind::kSqlb);
  EXPECT_GT(results[0].run.queries_issued, 0u);
  EXPECT_FALSE(results[0].run.series.empty());
  EXPECT_NE(results[0].run.series.Find(
                runtime::ScenarioEngine::kSeriesProvSatIntMean),
            nullptr);
}

TEST(WorkloadSweepTest, PointsMatchRequestedGrid) {
  SweepOptions options;
  options.workloads = {0.4, 0.8};
  options.duration = 120.0;
  options.warmup = 20.0;
  options.repetitions = 1;
  options.seed = 3;
  const auto sweeps =
      RunWorkloadSweep(TinyConfig(), options, {MethodKind::kSqlb});
  ASSERT_EQ(sweeps.size(), 1u);
  ASSERT_EQ(sweeps[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(sweeps[0].points[0].workload_fraction, 0.4);
  EXPECT_DOUBLE_EQ(sweeps[0].points[1].workload_fraction, 0.8);
  // More workload, more queries.
  EXPECT_GT(sweeps[0].points[1].queries_issued,
            sweeps[0].points[0].queries_issued);
  EXPECT_GT(sweeps[0].points[0].mean_response_time, 0.0);
}

TEST(WorkloadSweepTest, RepetitionsAverage) {
  SweepOptions options;
  options.workloads = {0.6};
  options.duration = 120.0;
  options.warmup = 20.0;
  options.repetitions = 3;
  options.seed = 3;
  const auto sweeps =
      RunWorkloadSweep(TinyConfig(), options, {MethodKind::kSqlb});
  // Averaged issue counts over 3 repetitions are not a multiple of one
  // run; just assert sane bounds.
  EXPECT_GT(sweeps[0].points[0].queries_issued, 0u);
  EXPECT_GT(sweeps[0].points[0].mean_provider_satisfaction, 0.0);
  EXPECT_LE(sweeps[0].points[0].mean_provider_satisfaction, 1.0);
}

TEST(DepartureBreakdownTest, PercentagesAreConsistent) {
  BreakdownOptions options;
  options.workload = 0.8;
  options.duration = 300.0;
  options.grace_period = 60.0;
  options.check_interval = 60.0;
  options.repetitions = 1;
  options.seed = 3;
  const auto breakdowns = RunDepartureBreakdown(
      TinyConfig(), options, {MethodKind::kCapacityBased});
  ASSERT_EQ(breakdowns.size(), 1u);
  const DepartureBreakdown& b = breakdowns[0];
  for (int r = 0; r < 3; ++r) {
    for (int d = 0; d < 3; ++d) {
      double sum = 0.0;
      for (int l = 0; l < 3; ++l) sum += b.percent[r][d][l];
      // Every dimension decomposes the same per-reason total.
      EXPECT_NEAR(sum, b.total[r], 1e-9);
    }
    EXPECT_GE(b.total[r], 0.0);
    EXPECT_LE(b.total[r], 100.0);
  }
}

}  // namespace
}  // namespace sqlb::experiments
