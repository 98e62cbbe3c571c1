// Ablation: Definition 8's satisfaction-driven preference/utilization
// self-balance vs its two degenerate corners (Section 5.2).
//
// Expected: preference-only providers chase interesting queries into
// overload (response times and overutilization exits rise); utilization-
// only providers behave like a plain load signal (preferences — and hence
// provider satisfaction — suffer); the self-balancing Definition 8 holds
// both ends.

#include "bench_common.h"
#include "core/sqlb_method.h"
#include "runtime/scenario_engine.h"

namespace sqlb {
namespace {

using runtime::ScenarioEngine;

void Main() {
  bench::PrintHeader("Ablation: provider intention",
                     "Definition 8 vs preference-only vs utilization-only");

  runtime::SystemConfig base;
  base.population.num_consumers = 50;
  base.population.num_providers = 100;
  base.provider.window.capacity = 150;
  base.consumer.window.capacity = 100;
  base.workload = runtime::WorkloadSpec::Constant(0.8);
  base.duration = FastBenchMode() ? 600.0 : 1500.0;
  base.stats_warmup = base.duration * 0.2;
  base.seed = BenchSeed(42);

  struct Variant {
    const char* label;
    ProviderIntentionMode mode;
  };
  const Variant variants[] = {
      {"self-balancing (Def. 8)", ProviderIntentionMode::kSelfBalancing},
      {"preference-only", ProviderIntentionMode::kPreferenceOnly},
      {"utilization-only", ProviderIntentionMode::kUtilizationOnly},
  };

  TablePrinter table({"provider intention", "prov. sat (pref)",
                      "mean RT(s)", "ut fairness", "prov. exits(%)"});
  for (const Variant& variant : variants) {
    runtime::SystemConfig config = base;
    config.provider.intention.mode = variant.mode;
    config.departures = runtime::DepartureConfig::AllEnabled();
    config.departures.grace_period = base.duration * 0.25;
    config.departures.check_interval = 300.0;

    runtime::RunResult result = bench::RunMonoService(
        config, [](std::uint32_t) { return std::make_unique<SqlbMethod>(); });
    const double sat =
        result.series.Find(ScenarioEngine::kSeriesProvSatPrefMean)
            ->MeanOver(config.stats_warmup, config.duration);
    const double fairness =
        result.series.Find(ScenarioEngine::kSeriesUtFair)
            ->MeanOver(config.stats_warmup, config.duration);
    table.AddRow({variant.label, FormatNumber(sat, 3),
                  FormatNumber(result.response_time.mean(), 3),
                  FormatNumber(fairness, 3),
                  FormatNumber(result.ProviderDeparturePercent(), 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace sqlb

int main() {
  sqlb::Main();
  return 0;
}
