// The repository benchmark's runner: runs one workload for one seed and
// prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. perfbench/run.py builds and invokes it:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--pin-dir <dir>]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{serve-steady|serve-flood|des-paper|des-churn} --seed N "
               "--seconds S --trace {0|1} [--trace-file PATH] "
               "[--pin-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!perfbench::ParseWorkload(value, &options.workload)) {
        return Usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else if (flag == "--pin-dir") {
      options.pin_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const perfbench::RunReport report = perfbench::RunWorkload(options);
  std::string metrics;
  for (const perfbench::Metric& metric : report.metrics) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", metric.name.c_str(),
                  metric.value, metric.unit.c_str());
    metrics += buffer;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              report.correct() ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
  std::fflush(stdout);
  return 0;
}
