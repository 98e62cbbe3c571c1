// Ablation: multi-result queries. The model defines q.n (the number of
// providers a consumer wants, Section 2) and Eq. 2 deliberately divides by
// q.n so that receiving fewer results than desired costs satisfaction, but
// the paper's evaluation pins q.n = 1. This sweep exercises the dimension:
// each query is performed by q.n providers, so the effective load is
// q.n * workload.
//
// Expected: consumer satisfaction rises with q.n (more of the preferred
// providers answer each query) until the load multiplication bites —
// response time grows superlinearly once q.n * workload approaches system
// capacity.

#include "bench_common.h"
#include "core/sqlb_method.h"
#include "runtime/scenario_engine.h"

namespace sqlb {
namespace {

using runtime::ScenarioEngine;

void Main() {
  bench::PrintHeader("Ablation: q.n",
                     "multi-result queries under SQLB (Eq. 2 semantics)");

  runtime::SystemConfig base;
  base.population.num_consumers = 50;
  base.population.num_providers = 100;
  base.provider.window.capacity = 150;
  base.consumer.window.capacity = 100;
  // Keep q.n * workload below capacity for the largest q.n tested.
  base.workload = runtime::WorkloadSpec::Constant(0.2);
  base.duration = FastBenchMode() ? 600.0 : 1500.0;
  base.stats_warmup = base.duration * 0.2;
  base.seed = BenchSeed(42);

  TablePrinter table({"q.n", "effective load", "cons. sat", "cons. allocsat",
                      "mean RT(s)"});
  for (std::uint32_t n : {1u, 2u, 3u, 4u}) {
    runtime::SystemConfig config = base;
    config.query_n = n;

    runtime::RunResult result = bench::RunMonoService(
        config, [](std::uint32_t) { return std::make_unique<SqlbMethod>(); });
    const double sat =
        result.series.Find(ScenarioEngine::kSeriesConsSatMean)
            ->MeanOver(config.stats_warmup, config.duration);
    const double allocsat =
        result.series.Find(ScenarioEngine::kSeriesConsAllocSatMean)
            ->MeanOver(config.stats_warmup, config.duration);
    table.AddRow({std::to_string(n),
                  FormatNumber(0.2 * static_cast<double>(n)),
                  FormatNumber(sat, 3), FormatNumber(allocsat, 3),
                  FormatNumber(result.response_time.mean(), 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("(response time counts a query complete when the *last* of "
              "its q.n providers answers,\nso it grows with q.n even "
              "before the load multiplication saturates anything.)\n\n");
}

}  // namespace
}  // namespace sqlb

int main() {
  sqlb::Main();
  return 0;
}
