// Ablation: is Eq. 6's satisfaction-adaptive omega needed, or would a
// fixed balance do? (Section 5.3 notes omega can be pinned for cooperative
// settings, e.g. omega = 0 when only result quality matters.)
//
// Expected: omega = 0 maximizes consumer allocation satisfaction but
// ignores providers (their allocation satisfaction and retention suffer);
// omega = 1 mirrors that; fixed 0.5 is a reasonable static compromise; the
// adaptive omega matches the best of both sides without hand-tuning and
// keeps departures lowest.

#include <optional>

#include "bench_common.h"
#include "core/sqlb_method.h"
#include "runtime/scenario_engine.h"

namespace sqlb {
namespace {

using runtime::ScenarioEngine;

struct Variant {
  const char* label;
  std::optional<double> fixed_omega;
};

void Main() {
  bench::PrintHeader("Ablation: omega",
                     "adaptive Eq. 6 vs fixed omega in {0, 0.5, 1}");

  runtime::SystemConfig config;
  config.population.num_consumers = 50;
  config.population.num_providers = 100;
  config.provider.window.capacity = 150;
  config.consumer.window.capacity = 100;
  config.workload = runtime::WorkloadSpec::Constant(0.8);
  config.duration = FastBenchMode() ? 600.0 : 1500.0;
  config.stats_warmup = config.duration * 0.2;
  config.seed = BenchSeed(42);

  const Variant variants[] = {
      {"adaptive (Eq. 6)", std::nullopt},
      {"fixed 0 (consumer only)", 0.0},
      {"fixed 0.5", 0.5},
      {"fixed 1 (provider only)", 1.0},
  };

  TablePrinter table({"omega", "cons. allocsat", "prov. allocsat",
                      "mean RT(s)", "prov. exits(%)", "cons. exits(%)"});
  CsvWriter csv({"omega", "consumer_allocsat", "provider_allocsat",
                 "mean_rt", "provider_exits", "consumer_exits"});
  for (const Variant& variant : variants) {
    runtime::SystemConfig run_config = config;
    run_config.departures = runtime::DepartureConfig::AllEnabled();
    run_config.departures.grace_period = config.duration * 0.25;
    run_config.departures.check_interval = 300.0;

    SqlbOptions options;
    options.fixed_omega = variant.fixed_omega;
    runtime::RunResult result =
        bench::RunMonoService(run_config, [options](std::uint32_t) {
          return std::make_unique<SqlbMethod>(options);
        });

    const double cons =
        result.series.Find(ScenarioEngine::kSeriesConsAllocSatMean)
            ->MeanOver(run_config.stats_warmup, run_config.duration);
    const double prov =
        result.series.Find(ScenarioEngine::kSeriesProvAllocSatPrefMean)
            ->MeanOver(run_config.stats_warmup, run_config.duration);
    table.AddRow({variant.label, FormatNumber(cons, 3),
                  FormatNumber(prov, 3),
                  FormatNumber(result.response_time.mean(), 3),
                  FormatNumber(result.ProviderDeparturePercent(), 3),
                  FormatNumber(result.ConsumerDeparturePercent(), 3)});
    csv.BeginRow();
    csv.AddCell(std::string(variant.label));
    csv.AddCell(cons);
    csv.AddCell(prov);
    csv.AddCell(result.response_time.mean());
    csv.AddCell(result.ProviderDeparturePercent());
    csv.AddCell(result.ConsumerDeparturePercent());
  }
  std::printf("%s\n", table.ToString().c_str());
  auto path = EnsureOutputPath(ResultsDirectory(), "ablation_omega.csv");
  if (path.ok()) (void)csv.WriteFile(path.value());
}

}  // namespace
}  // namespace sqlb

int main() {
  sqlb::Main();
  return 0;
}
