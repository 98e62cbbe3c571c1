// Ablation: sensitivity of the characterization model to the window size k
// (the paper fixes k = 200 for consumers / 500 for providers and notes
// k "may be different for each participant depending on its storage
// capacity, or strategy", Section 3).
//
// Expected: small k makes satisfaction noisy (departure decisions become
// trigger-happy); very large k makes it sluggish (stale opinions — the
// adaptive omega reacts late). The paper's choice sits in the flat middle.

#include "bench_common.h"
#include "core/sqlb_method.h"
#include "runtime/scenario_engine.h"

namespace sqlb {
namespace {

using runtime::ScenarioEngine;

void Main() {
  bench::PrintHeader("Ablation: window size k",
                     "provider window in {50, 150, 500, 2000}");

  runtime::SystemConfig base;
  base.population.num_consumers = 50;
  base.population.num_providers = 100;
  base.consumer.window.capacity = 100;
  base.workload = runtime::WorkloadSpec::Constant(0.8);
  base.duration = FastBenchMode() ? 600.0 : 1500.0;
  base.stats_warmup = base.duration * 0.2;
  base.seed = BenchSeed(42);

  TablePrinter table({"provider k", "prov. sat (pref)", "prov. allocsat",
                      "prov. exits(%)", "mean RT(s)"});
  for (std::size_t k : {50u, 150u, 500u, 2000u}) {
    runtime::SystemConfig config = base;
    config.provider.window.capacity = k;
    config.departures = runtime::DepartureConfig::AllEnabled();
    config.departures.grace_period = base.duration * 0.25;
    config.departures.check_interval = 300.0;

    runtime::RunResult result = bench::RunMonoService(
        config, [](std::uint32_t) { return std::make_unique<SqlbMethod>(); });
    const double sat =
        result.series.Find(ScenarioEngine::kSeriesProvSatPrefMean)
            ->MeanOver(config.stats_warmup, config.duration);
    const double allocsat =
        result.series.Find(ScenarioEngine::kSeriesProvAllocSatPrefMean)
            ->MeanOver(config.stats_warmup, config.duration);
    table.AddRow({std::to_string(k), FormatNumber(sat, 3),
                  FormatNumber(allocsat, 3),
                  FormatNumber(result.ProviderDeparturePercent(), 3),
                  FormatNumber(result.response_time.mean(), 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace sqlb

int main() {
  sqlb::Main();
  return 0;
}
