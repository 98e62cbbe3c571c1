#ifndef SQLB_EXPERIMENTS_EXPERIMENTS_H_
#define SQLB_EXPERIMENTS_EXPERIMENTS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "runtime/scenario.h"

/// \file
/// The experiment harness behind every figure and table of Section 6 (see
/// DESIGN.md's per-experiment index):
///
///  - PaperConfig(): the Table 2 simulation setup.
///  - RunQualityRamp(): one captive run per method with the 30% -> 100%
///    workload ramp (Figures 4(a)-(h)).
///  - RunWorkloadSweep(): steady-state runs over a workload grid, captive or
///    autonomous (Figures 4(i), 5(a)-(c), 6), averaged over repetitions.
///  - RunDepartureBreakdown(): the Table 3 accounting at one workload.

namespace sqlb::experiments {

/// The allocation methods the harness can instantiate.
enum class MethodKind {
  kSqlb,
  kCapacityBased,          // least-utilized (the paper's reading)
  kCapacityMaxAvailable,   // ablation variant
  kMariposa,
  kRandom,
  kRoundRobin,
  kKnBest,
  kSqlbEconomic,
};

/// Stable display name ("SQLB", "CapacityBased", "Mariposa-like", ...).
std::string MethodName(MethodKind kind);

/// Fresh method instance (methods are stateful: one per run).
std::unique_ptr<AllocationMethod> MakeMethod(MethodKind kind,
                                             std::uint64_t seed);

/// The one run-setup every harness loop and example driver shares: builds a
/// fresh method for `kind` (seeded from the config) and drives one full
/// scenario through sqlb::Service in Mode::kMono. Replaces the copy-pasted
/// make-method-then-run boilerplate that used to live in each caller.
runtime::RunResult RunMethod(MethodKind kind,
                             const runtime::SystemConfig& config);

/// The three methods the paper evaluates, in its plotting order.
std::vector<MethodKind> PaperTrio();

/// Table 2 defaults: 200 consumers, 400 providers, k = 200/500, prior 0.5,
/// q.n = 1, upsilon = 1 (preference-only intentions), 10,000-second runs.
runtime::SystemConfig PaperConfig(std::uint64_t seed);

/// Scales a config down for quick runs (SQLB_FAST=1): quarter population,
/// shorter duration. Shapes survive; absolute values shift.
void ApplyFastMode(runtime::SystemConfig& config);

// ---------------------------------------------------------------------------
// Quality ramp (Figures 4(a)-(h))
// ---------------------------------------------------------------------------

struct QualityRampResult {
  MethodKind method;
  runtime::RunResult run;
};

/// Runs each method once, captive participants, workload ramping
/// 0.3 -> 1.0 over config.duration. The returned RunResult series carry the
/// ScenarioEngine::kSeries* keys.
std::vector<QualityRampResult> RunQualityRamp(
    const runtime::SystemConfig& base, const std::vector<MethodKind>& methods);

// ---------------------------------------------------------------------------
// Workload sweeps (Figures 4(i), 5(a)-(c), 6)
// ---------------------------------------------------------------------------

struct SweepPoint {
  double workload_fraction = 0.0;
  double mean_response_time = 0.0;       // post-warmup completions
  /// Response-time tail, from the run's merged latency histogram (log-scale
  /// buckets, ~11% relative resolution). Repetition-averaged like the mean.
  double rt_p50 = 0.0;
  double rt_p99 = 0.0;
  double rt_p999 = 0.0;
  double provider_departure_percent = 0.0;
  double consumer_departure_percent = 0.0;
  double mean_provider_satisfaction = 0.0;  // intention channel, final value
  double mean_consumer_allocsat = 0.0;
  std::uint64_t queries_issued = 0;
  std::uint64_t queries_completed = 0;
};

struct SweepResult {
  MethodKind method;
  std::vector<SweepPoint> points;  // one per workload, repetition-averaged
};

struct SweepOptions {
  /// Workload fractions to visit (paper: up to 100% of system capacity).
  std::vector<double> workloads{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  /// Steady-state run length and measurement warmup per point.
  SimTime duration = 3000.0;
  SimTime warmup = 500.0;
  /// Departure regime (defaults: captive).
  runtime::DepartureConfig departures;
  /// Repetitions per (method, workload) cell; seeds vary per repetition.
  std::size_t repetitions = 1;
  std::uint64_t seed = 42;
};

std::vector<SweepResult> RunWorkloadSweep(
    const runtime::SystemConfig& base, const SweepOptions& options,
    const std::vector<MethodKind>& methods);

// ---------------------------------------------------------------------------
// Departure breakdown (Table 3)
// ---------------------------------------------------------------------------

struct DepartureBreakdown {
  MethodKind method;
  /// percent[reason][dimension][level]: percentage of the initial provider
  /// population, where dimension 0 = consumer-interest class,
  /// 1 = adaptation class, 2 = capacity class (Table 3's three row groups).
  double percent[runtime::kNumDepartureReasons][3][3] = {};
  /// Total percentage per reason.
  double total[runtime::kNumDepartureReasons] = {};
  double consumer_departure_percent = 0.0;
};

struct BreakdownOptions {
  double workload = 0.8;  // the paper reports Table 3 at 80%
  SimTime duration = 3000.0;
  /// Departure-check schedule (see DepartureConfig).
  SimTime grace_period = 600.0;
  SimTime check_interval = 300.0;
  std::size_t repetitions = 1;
  std::uint64_t seed = 42;
};

std::vector<DepartureBreakdown> RunDepartureBreakdown(
    const runtime::SystemConfig& base, const BreakdownOptions& options,
    const std::vector<MethodKind>& methods);

}  // namespace sqlb::experiments

#endif  // SQLB_EXPERIMENTS_EXPERIMENTS_H_
