#include "common/env_config.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace sqlb {
namespace {

const char* RawEnv(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

}  // namespace

std::string GetEnvString(const char* name, const std::string& fallback) {
  const char* v = RawEnv(name);
  return v != nullptr ? std::string(v) : fallback;
}

std::uint64_t GetEnvUint64(const char* name, std::uint64_t fallback) {
  const char* v = RawEnv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || (end != nullptr && *end != '\0')) return fallback;
  return static_cast<std::uint64_t>(parsed);
}

double GetEnvDouble(const char* name, double fallback) {
  const char* v = RawEnv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || (end != nullptr && *end != '\0')) return fallback;
  return parsed;
}

bool GetEnvBool(const char* name, bool fallback) {
  const char* v = RawEnv(name);
  if (v == nullptr) return fallback;
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  return fallback;
}

bool FastBenchMode() { return GetEnvBool("SQLB_FAST", false); }

std::uint64_t BenchRepetitions(std::uint64_t fallback) {
  return GetEnvUint64("SQLB_REPEAT", fallback);
}

std::uint64_t BenchSeed(std::uint64_t fallback) {
  return GetEnvUint64("SQLB_SEED", fallback);
}

std::string ResultsDirectory() {
  // Fast-mode drops go to a git-ignored subdirectory, so a scaled-down run
  // never overwrites the committed full-size results.
  return GetEnvString("SQLB_RESULTS",
                      FastBenchMode() ? "results/fast" : "results");
}

}  // namespace sqlb
