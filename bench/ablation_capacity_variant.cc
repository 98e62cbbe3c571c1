// Ablation: the two readings of "highest available capacity (i.e. the
// least utilized)" (Section 6.2.1) differ under heterogeneous capacity:
//
//   - least-utilized (our default): equalizes Ut across providers; every
//     provider gets work proportional to its capacity.
//   - max-available-capacity: greedy on absolute spare rate; faster
//     responses, but low-capacity providers are never the maximum and
//     starve at moderate load.

#include "bench_common.h"
#include "methods/capacity_based.h"
#include "runtime/scenario_engine.h"

namespace sqlb {
namespace {

using runtime::ScenarioEngine;

void Main() {
  bench::PrintHeader("Ablation: Capacity based variant",
                     "least-utilized vs max-available-capacity");

  runtime::SystemConfig base;
  base.population.num_consumers = 50;
  base.population.num_providers = 100;
  base.provider.window.capacity = 150;
  base.consumer.window.capacity = 100;
  base.workload = runtime::WorkloadSpec::Constant(0.6);
  base.duration = FastBenchMode() ? 600.0 : 1500.0;
  base.stats_warmup = base.duration * 0.2;
  base.seed = BenchSeed(42);

  TablePrinter table({"variant", "mean RT(s)", "ut mean", "ut fairness",
                      "starvation exits(%)"});
  for (CapacityRanking ranking : {CapacityRanking::kLeastUtilized,
                                  CapacityRanking::kMaxAvailableCapacity}) {
    runtime::SystemConfig config = base;
    config.departures = runtime::DepartureConfig::AllEnabled();
    config.departures.grace_period = base.duration * 0.25;
    config.departures.check_interval = 300.0;

    runtime::RunResult result = bench::RunMonoService(config, [ranking](std::uint32_t) {
      return std::make_unique<CapacityBasedMethod>(ranking);
    });
    const double ut = result.series.Find(ScenarioEngine::kSeriesUtMean)
                          ->MeanOver(config.stats_warmup, config.duration);
    const double fairness =
        result.series.Find(ScenarioEngine::kSeriesUtFair)
            ->MeanOver(config.stats_warmup, config.duration);
    const double starved =
        100.0 *
        static_cast<double>(result.tally.ByReason(
            runtime::DepartureReason::kStarvation)) /
        static_cast<double>(result.initial_providers);
    table.AddRow({result.method_name,
                  FormatNumber(result.response_time.mean(), 3),
                  FormatNumber(ut, 3), FormatNumber(fairness, 3),
                  FormatNumber(starved, 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace sqlb

int main() {
  sqlb::Main();
  return 0;
}
