#include "runtime/scenario.h"

#include <algorithm>
#include <string>

#include "common/math_util.h"

namespace sqlb::runtime {

double WorkloadSpec::FractionAt(SimTime t, SimTime duration) const {
  switch (kind) {
    case Kind::kConstant:
      return fraction;
    case Kind::kRamp: {
      if (t <= 0.0) return ramp_start;
      if (t >= duration) return ramp_end;
      return Lerp(ramp_start, ramp_end, t / duration);
    }
  }
  return fraction;
}

double WorkloadSpec::MaxFraction() const {
  switch (kind) {
    case Kind::kConstant:
      return fraction;
    case Kind::kRamp:
      return std::max(ramp_start, ramp_end);
  }
  return fraction;
}

WorkloadSpec WorkloadSpec::Constant(double fraction) {
  WorkloadSpec spec;
  spec.kind = Kind::kConstant;
  spec.fraction = fraction;
  return spec;
}

WorkloadSpec WorkloadSpec::Ramp(double start, double end) {
  WorkloadSpec spec;
  spec.kind = Kind::kRamp;
  spec.ramp_start = start;
  spec.ramp_end = end;
  return spec;
}

Status ValidateSystemConfig(const SystemConfig& config) {
  if (config.duration <= 0.0) {
    return Status::InvalidArgument(
        "SystemConfig::duration must be positive (simulated seconds)");
  }
  if (config.query_n < 1) {
    return Status::InvalidArgument(
        "SystemConfig::query_n must be >= 1 (providers per query)");
  }
  for (const ShardFaultEvent& event : config.shard_faults.events) {
    if (event.time < 0.0) {
      return Status::InvalidArgument(
          "SystemConfig::shard_faults has an event scheduled before t = 0");
    }
  }
  if (!config.shard_faults.events.empty() &&
      (config.shard_faults.snapshot_interval <= 0.0 ||
       config.shard_faults.drain_retry_interval <= 0.0)) {
    return Status::InvalidArgument(
        "SystemConfig::shard_faults needs positive snapshot_interval and "
        "drain_retry_interval when fault events are scheduled");
  }
  for (const ProviderChurnEvent& event : config.provider_churn.events) {
    if (event.time < 0.0) {
      return Status::InvalidArgument(
          "SystemConfig::provider_churn has an event scheduled before t = 0");
    }
    if (event.provider_index >= config.population.num_providers) {
      return Status::InvalidArgument(
          "SystemConfig::provider_churn names provider " +
          std::to_string(event.provider_index) + ", but the population has " +
          std::to_string(config.population.num_providers) + " providers");
    }
  }
  if (!config.provider_churn.events.empty() &&
      config.churn_retry_interval <= 0.0) {
    return Status::InvalidArgument(
        "SystemConfig::churn_retry_interval must be positive when churn "
        "events are scheduled (a zero interval would retry a deferred "
        "rejoin at the same timestamp forever)");
  }
  return Status::OK();
}

double RunResult::ProviderDeparturePercent() const {
  if (initial_providers == 0) return 0.0;
  return 100.0 * static_cast<double>(tally.providers_total()) /
         static_cast<double>(initial_providers);
}

double RunResult::ConsumerDeparturePercent() const {
  if (initial_consumers == 0) return 0.0;
  return 100.0 * static_cast<double>(tally.consumers_total()) /
         static_cast<double>(initial_consumers);
}

double RunResult::ResponseTimeQuantile(double q) const {
  return metrics.HistogramQuantile(obs::kMetricResponseTime, q);
}

void MergeEffectLogs(std::vector<EffectLog>& logs, RunResult* result,
                     WindowedMean* response_window) {
  // K-way merge over the per-shard cursors: smallest time wins, ties go to
  // the lowest shard index; within a shard the append order stands. K is
  // the shard count (small), so a linear scan per pop beats a heap here.
  std::vector<std::size_t> cursor(logs.size(), 0);
  for (;;) {
    std::size_t best = logs.size();
    SimTime best_time = kSimTimeInfinity;
    for (std::size_t s = 0; s < logs.size(); ++s) {
      if (cursor[s] >= logs[s].entries().size()) continue;
      const SimTime t = logs[s].entries()[cursor[s]].time;
      if (t < best_time) {
        best_time = t;
        best = s;
      }
    }
    if (best == logs.size()) break;
    const EffectLog::Entry& entry = logs[best].entries()[cursor[best]++];
    switch (entry.kind) {
      case EffectLog::Kind::kCompletion:
        ++result->queries_completed;
        result->response_time_all.Add(entry.response_time);
        if (entry.post_warmup) result->response_time.Add(entry.response_time);
        if (response_window != nullptr) {
          response_window->Add(entry.response_time);
        }
        break;
      case EffectLog::Kind::kInfeasible:
        ++result->queries_infeasible;
        break;
    }
  }
  for (EffectLog& log : logs) log.Clear();
}

}  // namespace sqlb::runtime
