// Ablation: Definition 7's upsilon — how much consumers trust their own
// preferences vs the providers' reputation (Section 5.1). The simulation
// setup pins upsilon = 1 (preference-only); this sweep turns on the
// reputation substrate (EWMA over delivery feedback) and walks upsilon
// from 0 (reputation only) to 1.
//
// Expected: reputation-heavy consumers (small upsilon) converge towards
// fast, reliable providers — response time improves — at the cost of
// preference alignment (consumer satisfaction on raw preferences drops).

#include "bench_common.h"
#include "core/sqlb_method.h"
#include "runtime/scenario_engine.h"

namespace sqlb {
namespace {

using runtime::ScenarioEngine;

void Main() {
  bench::PrintHeader("Ablation: upsilon (preference vs reputation)",
                     "Definition 7 with live reputation feedback");

  runtime::SystemConfig base;
  base.population.num_consumers = 50;
  base.population.num_providers = 100;
  base.provider.window.capacity = 150;
  base.consumer.window.capacity = 100;
  base.workload = runtime::WorkloadSpec::Constant(0.7);
  base.duration = FastBenchMode() ? 600.0 : 1500.0;
  base.stats_warmup = base.duration * 0.2;
  base.seed = BenchSeed(42);
  base.reputation_feedback = true;

  TablePrinter table({"upsilon", "mean RT(s)", "cons. sat", "cons. allocsat"});
  for (double upsilon : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    runtime::SystemConfig config = base;
    config.consumer.intention.mode = ConsumerIntentionMode::kFormula;
    config.consumer.intention.upsilon = upsilon;

    runtime::RunResult result = bench::RunMonoService(
        config, [](std::uint32_t) { return std::make_unique<SqlbMethod>(); });
    const double sat =
        result.series.Find(ScenarioEngine::kSeriesConsSatMean)
            ->MeanOver(config.stats_warmup, config.duration);
    const double allocsat =
        result.series.Find(ScenarioEngine::kSeriesConsAllocSatMean)
            ->MeanOver(config.stats_warmup, config.duration);
    table.AddRow({FormatNumber(upsilon),
                  FormatNumber(result.response_time.mean(), 3),
                  FormatNumber(sat, 3), FormatNumber(allocsat, 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("(upsilon = 1 with kFormula still applies Definition 7's "
              "negative branch to negative\npreferences; the paper's "
              "simulation uses the kPreferenceOnly short-circuit "
              "instead.)\n\n");
}

}  // namespace
}  // namespace sqlb

int main() {
  sqlb::Main();
  return 0;
}
