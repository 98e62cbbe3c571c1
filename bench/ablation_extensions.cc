// Extensions scoreboard: the companion-work KnBest hybrid ([17]) and the
// paper's stated future work, SQLB-Economic ("computing bids w.r.t.
// intentions", Section 7), against SQLB, the baselines and the two control
// methods (Random, RoundRobin).
//
// Expected: the controls are neutral to everyone (allocsat ~ 1) and blind
// to capacity; KnBest trades a little satisfaction for smoother QLB;
// SQLB-Economic keeps SQLB's satisfaction while shaving response time via
// the price discount on loaded providers.

#include "bench_common.h"
#include "runtime/scenario_engine.h"

namespace sqlb {
namespace {

using runtime::ScenarioEngine;

void Main() {
  bench::PrintHeader("Extensions", "full method scoreboard at 70% load");

  runtime::SystemConfig config;
  config.population.num_consumers = 50;
  config.population.num_providers = 100;
  config.provider.window.capacity = 150;
  config.consumer.window.capacity = 100;
  config.workload = runtime::WorkloadSpec::Constant(0.7);
  config.duration = FastBenchMode() ? 600.0 : 1500.0;
  config.stats_warmup = config.duration * 0.2;
  config.seed = BenchSeed(42);

  const experiments::MethodKind methods[] = {
      experiments::MethodKind::kSqlb,
      experiments::MethodKind::kSqlbEconomic,
      experiments::MethodKind::kKnBest,
      experiments::MethodKind::kCapacityBased,
      experiments::MethodKind::kMariposa,
      experiments::MethodKind::kRandom,
      experiments::MethodKind::kRoundRobin,
  };

  TablePrinter table({"method", "mean RT(s)", "cons. allocsat",
                      "prov. allocsat", "ut fairness"});
  CsvWriter csv({"method", "mean_rt", "consumer_allocsat",
                 "provider_allocsat", "ut_fairness"});
  for (experiments::MethodKind kind : methods) {
    runtime::RunResult result = experiments::RunMethod(kind, config);
    const double cons =
        result.series.Find(ScenarioEngine::kSeriesConsAllocSatMean)
            ->MeanOver(config.stats_warmup, config.duration);
    const double prov =
        result.series.Find(ScenarioEngine::kSeriesProvAllocSatPrefMean)
            ->MeanOver(config.stats_warmup, config.duration);
    const double fairness =
        result.series.Find(ScenarioEngine::kSeriesUtFair)
            ->MeanOver(config.stats_warmup, config.duration);
    table.AddRow({experiments::MethodName(kind),
                  FormatNumber(result.response_time.mean(), 3),
                  FormatNumber(cons, 3), FormatNumber(prov, 3),
                  FormatNumber(fairness, 3)});
    csv.BeginRow();
    csv.AddCell(experiments::MethodName(kind));
    csv.AddCell(result.response_time.mean());
    csv.AddCell(cons);
    csv.AddCell(prov);
    csv.AddCell(fairness);
  }
  std::printf("%s\n", table.ToString().c_str());
  auto path =
      EnsureOutputPath(ResultsDirectory(), "ablation_extensions.csv");
  if (path.ok()) (void)csv.WriteFile(path.value());
}

}  // namespace
}  // namespace sqlb

int main() {
  sqlb::Main();
  return 0;
}
