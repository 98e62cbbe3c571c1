// Reproduces Figures 4(a)-(h): the quality metrics of the three allocation
// methods with captive participants, workload ramping from 30% to 100% of
// the total system capacity over the run (Section 6.3.1).
//
// Paper shapes to look for:
//   (a) provider satisfaction on intentions: SQLB on top, decreasing with
//       load; both baselines flat and low.
//   (b) provider satisfaction on preferences: SQLB ~ Mariposa-like, both
//       above Capacity based.
//   (c) provider allocation satisfaction (preferences): Capacity based
//       punishes providers (< 1); SQLB and Mariposa-like >= 1.
//   (d) provider satisfaction fairness: all three comparable.
//   (e) consumer allocation satisfaction: only SQLB > 1, baselines ~ 1.
//   (f) consumer satisfaction fairness: high and flat for all.
//   (g) utilization mean: Capacity based tracks the workload; Mariposa-like
//       overshoots (overutilization).
//   (h) utilization fairness: Capacity based ~ 1; SQLB catches up as the
//       workload grows (its adaptivity); Mariposa-like stays unfair.

#include "bench_common.h"
#include "runtime/scenario_engine.h"

namespace sqlb {
namespace {

using runtime::ScenarioEngine;

void Main() {
  bench::PrintHeader("Figure 4(a)-(h)",
                     "quality metrics, captive participants, ramp 30->100%");

  runtime::SystemConfig base = experiments::PaperConfig(BenchSeed(42));
  if (FastBenchMode()) experiments::ApplyFastMode(base);

  const auto runs =
      experiments::RunQualityRamp(base, experiments::PaperTrio());

  const std::size_t stride =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   base.duration / base.sample_interval / 20));

  bench::PrintSeriesTable(
      "Figure 4(a): provider satisfaction mean, on intentions  mu(ds,P)",
      ScenarioEngine::kSeriesProvSatIntMean, runs, stride);
  bench::PrintSeriesTable(
      "Figure 4(b): provider satisfaction mean, on preferences",
      ScenarioEngine::kSeriesProvSatPrefMean, runs, stride);
  bench::PrintSeriesTable(
      "Figure 4(c): provider allocation-satisfaction mean, on preferences "
      "mu(das,P)",
      ScenarioEngine::kSeriesProvAllocSatPrefMean, runs, stride);
  bench::PrintSeriesTable(
      "Figure 4(d): provider satisfaction fairness  f(ds,P)",
      ScenarioEngine::kSeriesProvSatIntFair, runs, stride);
  bench::PrintSeriesTable(
      "Figure 4(e): consumer allocation-satisfaction mean  mu(das,C)",
      ScenarioEngine::kSeriesConsAllocSatMean, runs, stride);
  bench::PrintSeriesTable(
      "Figure 4(f): consumer satisfaction fairness  f(ds,C)",
      ScenarioEngine::kSeriesConsSatFair, runs, stride);
  bench::PrintSeriesTable(
      "Figure 4(g): utilization mean  mu(Ut,P)",
      ScenarioEngine::kSeriesUtMean, runs, stride);
  bench::PrintSeriesTable(
      "Figure 4(h): utilization fairness  f(Ut,P)",
      ScenarioEngine::kSeriesUtFair, runs, stride);

  bench::WriteRunCsvs("fig4_quality", runs);

  std::printf("run summary:\n");
  TablePrinter summary(
      {"method", "queries", "completed", "mean RT(s)", "p@end"});
  for (const auto& run : runs) {
    summary.AddRow({experiments::MethodName(run.method),
                    std::to_string(run.run.queries_issued),
                    std::to_string(run.run.queries_completed),
                    FormatNumber(run.run.response_time.mean(), 4),
                    std::to_string(run.run.remaining_providers)});
  }
  std::printf("%s\n", summary.ToString().c_str());
}

}  // namespace
}  // namespace sqlb

int main() {
  sqlb::Main();
  return 0;
}
