#ifndef SQLB_RUNTIME_SCENARIO_H_
#define SQLB_RUNTIME_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "des/time_series.h"
#include "mem/agent_arena.h"
#include "obs/observability.h"
#include "runtime/consumer_agent.h"
#include "runtime/departures.h"
#include "runtime/faults.h"
#include "runtime/provider_agent.h"
#include "workload/population.h"

/// \file
/// What a run needs and what a run produces, independent of who runs it:
/// the DES driver `shard::ShardedMediationSystem` (at any shard count, the
/// paper's mono-mediator being M = 1) and the serving tier's replay both
/// consume a SystemConfig and emit a RunResult, which is what lets every
/// experiment, bench and test compare runs on identical terms.

namespace sqlb::runtime {

/// Workload intensity over a run, as a fraction of total system capacity.
struct WorkloadSpec {
  enum class Kind { kConstant, kRamp };
  Kind kind = Kind::kConstant;
  /// Constant: the fixed fraction.
  double fraction = 0.8;
  /// Ramp: linear from ramp_start (t = 0) to ramp_end (t = duration). The
  /// paper's quality experiments use 0.3 -> 1.0 (Section 6.3.1).
  double ramp_start = 0.3;
  double ramp_end = 1.0;

  double FractionAt(SimTime t, SimTime duration) const;
  double MaxFraction() const;

  static WorkloadSpec Constant(double fraction);
  static WorkloadSpec Ramp(double start, double end);
};

/// Everything a run needs (Table 2 defaults).
struct SystemConfig {
  PopulationConfig population;
  WorkloadSpec workload = WorkloadSpec::Ramp(0.3, 1.0);
  /// Simulated run length in seconds (paper: 10,000).
  SimTime duration = 10000.0;
  /// Metric-probe sampling period.
  SimTime sample_interval = 50.0;
  /// Completions of queries issued before this time are excluded from the
  /// headline response-time statistic (steady-state measurement).
  SimTime stats_warmup = 500.0;
  /// q.n for every generated query (paper: 1).
  std::uint32_t query_n = 1;

  ConsumerAgentConfig consumer;
  ProviderAgentConfig provider;
  DepartureConfig departures;  // all disabled = captive participants

  /// Scheduled provider joins and leaves (runtime/departures.h), executed
  /// by the ScenarioEngine on top of whatever the departure rules do. Empty
  /// = the classic fixed population. Providers whose first event is a join
  /// start held out of the initial membership.
  ChurnSchedule provider_churn;
  /// Retry cadence for deferred churn joins: a scheduled rejoin whose
  /// provider still drains in-flight work from its previous membership is
  /// re-attempted this often until the drain completes (the membership
  /// analogue of the re-partitioning handoff's seal -> drain -> transfer
  /// rule; see ScenarioEngine::Driver::OnProviderChurn).
  SimTime churn_retry_interval = 5.0;

  /// Scheduled mediator-shard kills (runtime/faults.h), executed by the
  /// ScenarioEngine at kFailover barriers. Empty = immortal mediators.
  /// Non-empty schedules also arm the periodic snapshot task (cadence
  /// FaultSchedule::snapshot_interval) in drivers that support failover.
  FaultSchedule shard_faults;

  /// When true, consumers push completion feedback into the reputation
  /// registry (ignored by the paper's upsilon = 1 setup; used by the
  /// upsilon ablation and examples).
  bool reputation_feedback = false;

  std::uint64_t seed = 42;
  /// Collect time series (disable for micro-benchmarks).
  bool record_series = true;

  /// Event-driven provider characterization cache (runtime/mediation_core.h):
  /// Algorithm 1's gather step revalidates each member's candidate snapshot
  /// against the provider's event stamps instead of recomputing it per
  /// query. Results are bit-identical either way (the cache refreshes with
  /// the exact state transitions and decay predicates that change each
  /// field — pinned in tests/shard/cache_parity_test.cc); disable only to
  /// measure the cache itself (bench/micro_allocation.cc) or to run the
  /// parity twin.
  bool characterization_cache = true;

  /// Pooled agent storage (src/mem/), on by default: every provider
  /// agent's chunked state — service queue, utilization event log,
  /// characterization ring — materializes lazily from per-lane slab arenas
  /// of mapped pages instead of being heap-allocated eagerly at
  /// construction (agent_pool.enabled = false). The arithmetic path is
  /// identical in both modes, so results are bit-identical (pinned in
  /// tests/shard/agent_pool_parity_test.cc); the pool changes only
  /// residency — ~6x fewer bytes per provider at scale, NUMA-homed pages
  /// under topology-aware workers.
  mem::AgentPoolConfig agent_pool;

  /// Observability gates (src/obs/): hot-path latency histograms and the
  /// per-query trace recorder. Pure observation — toggling these never
  /// changes RNG draws, event schedules or any float the run computes, so
  /// results stay bit-identical across settings (pinned in
  /// tests/obs/trace_determinism_test.cc).
  obs::ObservabilityConfig observability;
};

/// The one validated entry point for a scenario config: every mode
/// (mono, sharded, serving) accepts a SystemConfig through this check, and
/// sqlb::Config::Validate() folds it into the facade-level validation.
/// Returns InvalidArgument with an actionable message instead of the
/// scattered per-driver asserts it replaced.
Status ValidateSystemConfig(const SystemConfig& config);

/// Everything a run produces.
struct RunResult {
  std::string method_name;
  SimTime duration = 0.0;

  // Counters.
  std::uint64_t queries_issued = 0;
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_infeasible = 0;  // no active provider remained
  /// Queries whose mediation died with a crashed shard and were issued
  /// again (each re-issue also increments queries_issued, so the failover
  /// accounting identity is exact:
  /// completed + infeasible + reissued == issued).
  std::uint64_t queries_reissued = 0;

  // Response time over completions of post-warmup queries, and over all.
  RunningStats response_time;
  RunningStats response_time_all;

  // Departures. Scheduled churn leaves are recorded here too, with reason
  // kChurn; scheduled joins only bump the counter below (`initial_providers`
  // excludes held-out joiners).
  std::vector<DepartureEvent> departures;
  DepartureTally tally;
  std::uint64_t provider_joins = 0;
  std::size_t initial_providers = 0;
  std::size_t initial_consumers = 0;
  std::size_t remaining_providers = 0;
  std::size_t remaining_consumers = 0;

  // Time series keyed as documented on ScenarioEngine::kSeries* constants.
  des::SeriesSet series;

  /// Run-level metrics snapshot (obs/): per-lane registries folded in fixed
  /// lane order at the end of the run. Counters here are the source of
  /// truth for the bench counters mirrored into ShardedRunResult.
  obs::MetricsRegistry metrics;
  /// Trace spans drained from the flight recorder, sorted by
  /// (start, lane, seq); empty unless SystemConfig::observability.trace.
  std::vector<obs::TraceSpan> trace_spans;
  /// Spans lost to per-lane ring overflow (0 = trace_spans is complete).
  std::uint64_t trace_spans_dropped = 0;

  /// Percentage (0-100) of providers that departed.
  double ProviderDeparturePercent() const;
  /// Percentage (0-100) of consumers that departed.
  double ConsumerDeparturePercent() const;
  /// q-quantile of the post-warmup response-time histogram
  /// ("rt.response_seconds"); 0 when histograms were disabled or nothing
  /// completed. Complements the exact mean in `response_time`.
  double ResponseTimeQuantile(double q) const;
};

/// Per-shard accumulator for the RunResult sinks a mediation pipeline
/// touches from inside an epoch-parallel lane (completion counters,
/// response-time statistics, the sliding response window, infeasibility
/// counts). Lanes append locally — no locks, no shared cache lines — and
/// MergeEffectLogs folds every lane's entries into the real sinks at epoch
/// barriers, ordered by (time, shard, seq), so the merged statistics are
/// bit-identical to a serial run that applied them inline (distinct
/// event times across shards assumed; ties are measure-zero under the
/// continuous arrival/service distributions).
///
/// Entries within one log are naturally time-ordered because a lane
/// executes its events in time order.
class EffectLog {
 public:
  enum class Kind : std::uint8_t {
    /// A query's last selected provider finished: completion counter,
    /// response-time stats, response window.
    kCompletion,
    /// A query ended unallocated (no candidates / method refused):
    /// infeasibility counter.
    kInfeasible,
  };

  struct Entry {
    SimTime time = 0.0;
    double response_time = 0.0;  // kCompletion only
    Kind kind = Kind::kCompletion;
    bool post_warmup = false;  // kCompletion: counts toward the headline stat
  };

  void RecordCompletion(SimTime time, double response_time, bool post_warmup) {
    entries_.push_back(Entry{time, response_time, Kind::kCompletion,
                             post_warmup});
  }
  void RecordInfeasible(SimTime time) {
    entries_.push_back(Entry{time, 0.0, Kind::kInfeasible, false});
  }

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

/// K-way merges the per-shard effect logs by (time, shard, seq) and applies
/// each entry to the shared sinks, then clears the logs. Runs on the
/// coordinating thread at epoch barriers, with every lane quiescent.
void MergeEffectLogs(std::vector<EffectLog>& logs, RunResult* result,
                     WindowedMean* response_window);

}  // namespace sqlb::runtime

#endif  // SQLB_RUNTIME_SCENARIO_H_
