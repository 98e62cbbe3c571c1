#include "experiments/experiments.h"

#include "common/status.h"
#include "core/sqlb_method.h"
#include "methods/capacity_based.h"
#include "methods/kn_best.h"
#include "methods/mariposa.h"
#include "methods/simple_methods.h"
#include "methods/sqlb_economic.h"
#include "runtime/scenario_engine.h"
#include "sqlb/service.h"

namespace sqlb::experiments {

std::string MethodName(MethodKind kind) {
  switch (kind) {
    case MethodKind::kSqlb:
      return "SQLB";
    case MethodKind::kCapacityBased:
      return "CapacityBased";
    case MethodKind::kCapacityMaxAvailable:
      return "CapacityBased(max-available)";
    case MethodKind::kMariposa:
      return "Mariposa-like";
    case MethodKind::kRandom:
      return "Random";
    case MethodKind::kRoundRobin:
      return "RoundRobin";
    case MethodKind::kKnBest:
      return "KnBest";
    case MethodKind::kSqlbEconomic:
      return "SQLB-Economic";
  }
  return "?";
}

std::unique_ptr<AllocationMethod> MakeMethod(MethodKind kind,
                                             std::uint64_t seed) {
  switch (kind) {
    case MethodKind::kSqlb:
      return std::make_unique<SqlbMethod>();
    case MethodKind::kCapacityBased:
      return std::make_unique<CapacityBasedMethod>(
          CapacityRanking::kLeastUtilized);
    case MethodKind::kCapacityMaxAvailable:
      return std::make_unique<CapacityBasedMethod>(
          CapacityRanking::kMaxAvailableCapacity);
    case MethodKind::kMariposa:
      return std::make_unique<MariposaMethod>();
    case MethodKind::kRandom:
      return std::make_unique<RandomMethod>(seed ^ 0xbadc0ffeULL);
    case MethodKind::kRoundRobin:
      return std::make_unique<RoundRobinMethod>();
    case MethodKind::kKnBest:
      return std::make_unique<KnBestMethod>();
    case MethodKind::kSqlbEconomic:
      return std::make_unique<SqlbEconomicMethod>();
  }
  SQLB_CHECK(false, "unknown method kind");
  return nullptr;
}

runtime::RunResult RunMethod(MethodKind kind,
                             const runtime::SystemConfig& config) {
  Config mono;
  mono.mode = Mode::kMono;
  mono.scenario() = config;
  const std::uint64_t seed = config.seed;
  return Service::Create(mono,
                         [kind, seed](std::uint32_t) {
                           return MakeMethod(kind, seed);
                         })
      ->Run()
      .run;
}

std::vector<MethodKind> PaperTrio() {
  return {MethodKind::kSqlb, MethodKind::kMariposa,
          MethodKind::kCapacityBased};
}

runtime::SystemConfig PaperConfig(std::uint64_t seed) {
  runtime::SystemConfig config;  // struct defaults already mirror Table 2
  config.seed = seed;
  config.duration = 10000.0;
  config.workload = runtime::WorkloadSpec::Ramp(0.3, 1.0);
  return config;
}

void ApplyFastMode(runtime::SystemConfig& config) {
  config.population.num_consumers /= 4;
  config.population.num_providers /= 4;
  config.duration /= 4;
  config.sample_interval /= 2;
}

std::vector<QualityRampResult> RunQualityRamp(
    const runtime::SystemConfig& base,
    const std::vector<MethodKind>& methods) {
  std::vector<QualityRampResult> results;
  results.reserve(methods.size());
  for (MethodKind kind : methods) {
    results.push_back(QualityRampResult{kind, RunMethod(kind, base)});
  }
  return results;
}

std::vector<SweepResult> RunWorkloadSweep(
    const runtime::SystemConfig& base, const SweepOptions& options,
    const std::vector<MethodKind>& methods) {
  SQLB_CHECK(options.repetitions >= 1, "need at least one repetition");
  std::vector<SweepResult> results;
  results.reserve(methods.size());

  for (MethodKind kind : methods) {
    SweepResult sweep;
    sweep.method = kind;
    for (double workload : options.workloads) {
      SweepPoint point;
      point.workload_fraction = workload;
      for (std::size_t rep = 0; rep < options.repetitions; ++rep) {
        runtime::SystemConfig config = base;
        config.workload = runtime::WorkloadSpec::Constant(workload);
        config.duration = options.duration;
        config.stats_warmup = options.warmup;
        config.departures = options.departures;
        config.seed = options.seed + 7919 * rep;

        runtime::RunResult run = RunMethod(kind, config);

        point.mean_response_time += run.response_time.mean();
        point.rt_p50 += run.ResponseTimeQuantile(0.5);
        point.rt_p99 += run.ResponseTimeQuantile(0.99);
        point.rt_p999 += run.ResponseTimeQuantile(0.999);
        point.provider_departure_percent += run.ProviderDeparturePercent();
        point.consumer_departure_percent += run.ConsumerDeparturePercent();
        point.queries_issued += run.queries_issued;
        point.queries_completed += run.queries_completed;
        if (const auto* s = run.series.Find(
                runtime::ScenarioEngine::kSeriesProvSatIntMean)) {
          point.mean_provider_satisfaction +=
              s->MeanOver(options.warmup, config.duration);
        }
        if (const auto* s = run.series.Find(
                runtime::ScenarioEngine::kSeriesConsAllocSatMean)) {
          point.mean_consumer_allocsat +=
              s->MeanOver(options.warmup, config.duration);
        }
      }
      const double reps = static_cast<double>(options.repetitions);
      point.mean_response_time /= reps;
      point.rt_p50 /= reps;
      point.rt_p99 /= reps;
      point.rt_p999 /= reps;
      point.provider_departure_percent /= reps;
      point.consumer_departure_percent /= reps;
      point.mean_provider_satisfaction /= reps;
      point.mean_consumer_allocsat /= reps;
      sweep.points.push_back(point);
    }
    results.push_back(std::move(sweep));
  }
  return results;
}

std::vector<DepartureBreakdown> RunDepartureBreakdown(
    const runtime::SystemConfig& base, const BreakdownOptions& options,
    const std::vector<MethodKind>& methods) {
  SQLB_CHECK(options.repetitions >= 1, "need at least one repetition");
  std::vector<DepartureBreakdown> results;
  results.reserve(methods.size());

  for (MethodKind kind : methods) {
    DepartureBreakdown breakdown;
    breakdown.method = kind;
    for (std::size_t rep = 0; rep < options.repetitions; ++rep) {
      runtime::SystemConfig config = base;
      config.workload = runtime::WorkloadSpec::Constant(options.workload);
      config.duration = options.duration;
      config.departures = runtime::DepartureConfig::AllEnabled();
      config.departures.grace_period = options.grace_period;
      config.departures.check_interval = options.check_interval;
      config.seed = options.seed + 104729 * rep;

      runtime::RunResult run = RunMethod(kind, config);

      const double scale =
          100.0 / static_cast<double>(run.initial_providers);
      for (std::size_t r = 0; r < runtime::kNumDepartureReasons; ++r) {
        const auto reason = static_cast<runtime::DepartureReason>(r);
        breakdown.total[r] +=
            scale * static_cast<double>(run.tally.ByReason(reason));
        for (std::size_t level = 0; level < 3; ++level) {
          const auto lvl = static_cast<Level>(level);
          breakdown.percent[r][0][level] +=
              scale *
              static_cast<double>(run.tally.ByReasonInterest(reason, lvl));
          breakdown.percent[r][1][level] +=
              scale *
              static_cast<double>(run.tally.ByReasonAdaptation(reason, lvl));
          breakdown.percent[r][2][level] +=
              scale *
              static_cast<double>(run.tally.ByReasonCapacity(reason, lvl));
        }
      }
      breakdown.consumer_departure_percent +=
          run.ConsumerDeparturePercent();
    }
    const double reps = static_cast<double>(options.repetitions);
    for (std::size_t r = 0; r < runtime::kNumDepartureReasons; ++r) {
      breakdown.total[r] /= reps;
      for (std::size_t d = 0; d < 3; ++d) {
        for (std::size_t l = 0; l < 3; ++l) {
          breakdown.percent[r][d][l] /= reps;
        }
      }
    }
    breakdown.consumer_departure_percent /= reps;
    results.push_back(breakdown);
  }
  return results;
}

}  // namespace sqlb::experiments
