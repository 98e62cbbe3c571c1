// Quickstart: the smallest end-to-end SQLB system.
//
// Builds a Table-2-style population (scaled down), runs the mediation
// system for five simulated minutes with the SQLB allocation method, and
// prints the satisfaction/fairness metrics the framework is about.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "core/sqlb_method.h"
#include "experiments/experiments.h"
#include "model/metrics.h"
#include "runtime/scenario_engine.h"
#include "sqlb/service.h"

int main() {
  using namespace sqlb;

  // 1. Configure the system through the unified facade. The scenario knobs
  //    (sqlb::Config::scenario()) mirror the paper's Table 2; here we
  //    shrink the population so the example runs in milliseconds.
  Config service_config;
  service_config.mode = Mode::kMono;
  runtime::SystemConfig& config = service_config.scenario();
  config.population.num_consumers = 20;
  config.population.num_providers = 40;
  config.workload = runtime::WorkloadSpec::Constant(0.6);  // 60% load
  config.duration = 300.0;                                 // simulated s
  config.stats_warmup = 50.0;  // ignore the cold start in the RT stats
  config.seed = 7;

  // 2. Pick an allocation method. SqlbMethod is the paper's contribution;
  //    methods/*.h has the baselines (CapacityBased, Mariposa-like, ...).
  //    The factory makes one instance per shard (mono uses exactly one).
  std::unique_ptr<Service> service = Service::Create(
      service_config,
      [](std::uint32_t) { return std::make_unique<SqlbMethod>(); });

  // 3. Run. The system simulates Poisson query arrivals, Algorithm 1
  //    mediation, FIFO service at providers, and collects metrics.
  runtime::RunResult result = service->Run().run;

  // 4. Inspect the outcome.
  std::printf("method            : %s\n", result.method_name.c_str());
  std::printf("queries issued    : %llu\n",
              static_cast<unsigned long long>(result.queries_issued));
  std::printf("queries completed : %llu\n",
              static_cast<unsigned long long>(result.queries_completed));
  std::printf("mean response time: %.2f s\n", result.response_time.mean());

  // The Section 4 metrics over the collected series: the final consumer
  // allocation satisfaction should sit above 1 (SQLB works *for* the
  // consumers), and utilization should hover near the 0.6 workload.
  const auto* allocsat = result.series.Find(
      runtime::ScenarioEngine::kSeriesConsAllocSatMean);
  const auto* utilization =
      result.series.Find(runtime::ScenarioEngine::kSeriesUtMean);
  std::printf("consumer allocation satisfaction (final): %.3f\n",
              allocsat->samples.back().second);
  std::printf("provider utilization mean (final)       : %.3f\n",
              utilization->samples.back().second);

  // 5. The same metrics are available as plain functions (Eqs. 3-5):
  const std::vector<double> example{0.2, 1.0, 0.6};
  std::printf("\nSection 4 metrics on {0.2, 1.0, 0.6}: mean %.2f, "
              "fairness %.2f, min-max %.2f\n",
              Mean(example), JainFairness(example),
              MinMaxRatio(example, 0.1));
  return 0;
}
