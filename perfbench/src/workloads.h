#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sqlb/service.h"
#include "timed_method.h"

/// \file
/// The four benchmark workloads, each driven through the public
/// sqlb::Service facade, and the correctness checks every run makes.

namespace perfbench {

enum class Workload { kServeSteady, kServeFlood, kDesPaper, kDesChurn };

/// "serve-steady", "serve-flood", "des-paper", "des-churn".
const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* workload);

/// The Service configuration of `workload` for `seed`: everything the
/// program receives. The same seed always gives the same configuration.
sqlb::Config MakeConfig(Workload workload, std::uint64_t seed);

/// The deterministic outputs of a simulation run; identical across every
/// run of one build with one seed.
struct DesOutputs {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t reissued = 0;
  /// Mean post-warm-up response time, simulated seconds.
  double response_s = 0.0;
  /// Final mean consumer allocation satisfaction (cons.allocsat.mean).
  double allocsat = 0.0;

  bool operator==(const DesOutputs& other) const;
  /// Exact text form (hex floats), for the cross-run pin file.
  std::string ToString() const;
};

/// Runs one simulation-mode workload configuration to completion through
/// Service::Create + Run with `factory`'s methods.
DesOutputs RunSimulation(const sqlb::Config& config,
                         const sqlb::Service::MethodFactory& factory);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  Workload workload = Workload::kDesPaper;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_file;
  /// Directory of the simulation-output pins shared by every run of this
  /// build ("" = no cross-run pin).
  std::string pin_dir;
};

struct RunReport {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics untraced, per-layer metrics traced.
  std::vector<Metric> metrics;

  bool correct() const { return failures.empty(); }
  void Fail(const std::string& why) { failures.push_back(why); }
};

/// Measures the workload for `options.seconds`, with a burst of set-ups
/// after every repetition, checking the program's outputs on every
/// repetition.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
