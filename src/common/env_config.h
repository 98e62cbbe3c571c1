#ifndef SQLB_COMMON_ENV_CONFIG_H_
#define SQLB_COMMON_ENV_CONFIG_H_

#include <cstdint>
#include <string>

/// \file
/// Environment-variable overrides for the bench harness. The paper's full
/// configuration (10 repetitions of 10,000-second simulations) is expensive;
/// these knobs let CI and quick local runs scale it down without code edits:
///
///   SQLB_REPEAT  — repetition count override (default: per-bench)
///   SQLB_FAST    — when set to 1/true, benches shrink durations/populations
///   SQLB_SEED    — base RNG seed override
///   SQLB_RESULTS — output directory for CSVs (default "results", or
///                  "results/fast" under SQLB_FAST)

namespace sqlb {

/// Returns the env var value, or `fallback` when unset/empty.
std::string GetEnvString(const char* name, const std::string& fallback);

/// Parses the env var as a non-negative integer; returns `fallback` when
/// unset or unparseable.
std::uint64_t GetEnvUint64(const char* name, std::uint64_t fallback);

/// Parses the env var as a double; returns `fallback` when unset/unparseable.
double GetEnvDouble(const char* name, double fallback);

/// True when the env var is "1", "true", "yes" or "on" (case-insensitive).
bool GetEnvBool(const char* name, bool fallback);

/// True when SQLB_FAST requests scaled-down benches.
bool FastBenchMode();

/// Repetition count for benches: SQLB_REPEAT override or `fallback`.
std::uint64_t BenchRepetitions(std::uint64_t fallback);

/// Base seed: SQLB_SEED override or `fallback`.
std::uint64_t BenchSeed(std::uint64_t fallback);

/// Results directory: SQLB_RESULTS override, else "results/fast" under
/// SQLB_FAST and "results" otherwise.
std::string ResultsDirectory();

}  // namespace sqlb

#endif  // SQLB_COMMON_ENV_CONFIG_H_
