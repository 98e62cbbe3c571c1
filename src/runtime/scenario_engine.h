#ifndef SQLB_RUNTIME_SCENARIO_ENGINE_H_
#define SQLB_RUNTIME_SCENARIO_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "des/simulator.h"
#include "des/time_series.h"
#include "model/query.h"
#include "obs/observability.h"
#include "runtime/agent_store.h"
#include "runtime/consumer_agent.h"
#include "runtime/mediation_core.h"
#include "runtime/provider_agent.h"
#include "runtime/scenario.h"
#include "workload/population.h"

/// \file
/// The one scenario loop every tier shares. A Section-6 run is always the
/// same loop — populate the participant agents, pump Poisson query arrivals,
/// sample the metric probes, apply the Section 6.3.2 departure rules, drain
/// in-flight service — and only the middle of it is a policy: the DES
/// driver (`shard::ShardedMediationSystem`: route, maybe batch, maybe
/// re-route, maybe run shard lanes on worker threads; the paper's
/// mono-mediator is its one-shard configuration). The serving tier and its
/// DES replay build their cores over the same engine state.
///
/// ScenarioEngine owns the invariant part: the population, the agent
/// vectors, every shared RNG stream (and its fork order, which is the
/// bit-identity contract between shard counts, thread counts and the
/// serving replay), the arrival pump, the metric probes, the consumer-side
/// departure rule and the RunResult sinks. The variable part is a
/// ScenarioEngine::Driver — mediation, routing, batching and the execution
/// substrate (serial kernel vs epoch-parallel lanes) are policies of the
/// driver, not copies of the loop, so a policy change cannot silently fork
/// the scenario semantics.

namespace sqlb::runtime {

/// What one scheduled churn event did when the driver was asked to apply it.
enum class ChurnOutcome {
  /// The membership change happened (join admitted / leave departed).
  kApplied,
  /// Nothing to do: a leave for a provider the departure rules already
  /// removed, or a join for one that is still a member.
  kNoOp,
  /// A join for a provider still draining in-flight work from its previous
  /// membership. Admitting it now could place it on a shard other than the
  /// one whose lane its service chain lives on — the exact cross-lane state
  /// sharing the strict-parity contract forbids (and the seal -> drain ->
  /// transfer handoff protocol exists to prevent). The engine re-fires the
  /// event every SystemConfig::churn_retry_interval until the drain
  /// completes (or a later scheduled leave annuls the join). Applies at
  /// every shard count, M = 1 included.
  kDeferred,
};

/// Owns one scenario's shared state and runs its event loop over a Driver.
class ScenarioEngine {
 public:
  /// The tier-specific half of a run. The engine draws each arriving query
  /// (and counts it issued) before handing it over; everything else the
  /// driver does — mediate, route, batch — happens through these hooks.
  class Driver {
   public:
    virtual ~Driver() = default;

    /// Mediates one drawn arrival. Called inside the arrival event, after
    /// the engine counted the query as issued.
    virtual void OnQueryArrival(des::Simulator& sim, const Query& query) = 0;

    /// The Section 6.3.2 provider-side rules over every mediation core the
    /// driver runs. `optimal_ut` is the nominal workload fraction at `now`.
    virtual void RunProviderDepartureChecks(SimTime now,
                                            double optimal_ut) = 0;

    /// One scheduled churn event (SystemConfig::provider_churn). The driver
    /// admits the provider to (or force-departs it from) whichever core
    /// should own it and reports what happened (ChurnOutcome): a no-op for
    /// redundant events, or a deferral for a join whose provider has not
    /// drained its previous life's queue yet — the engine retries those.
    /// Fired at an epoch barrier under parallel execution: membership
    /// changes only while the lanes are quiescent and merged.
    virtual ChurnOutcome OnProviderChurn(des::Simulator& sim,
                                         const ProviderChurnEvent& event) = 0;

    /// One scheduled shard kill (SystemConfig::shard_faults). Fired at a
    /// kFailover barrier under parallel execution: the lanes are quiescent
    /// and merged, so the crash is a clean cut — the driver crashes the
    /// named shard's core, re-partitions its providers to survivors via
    /// the versioned ring, restores them from the last snapshot, and
    /// re-issues the in-flight queries the crash lost (each re-issue also
    /// counts as issued, keeping completed + infeasible + reissued ==
    /// issued exact). Kills naming an already-dead shard are no-ops; the
    /// last live shard crashes and restarts in place from its snapshot.
    virtual void OnShardFault(des::Simulator& sim,
                              const ShardFaultEvent& event) = 0;

    /// Visits every still-active provider agent in the tier's metric
    /// sampling order (shard order, then each shard's active list).
    virtual void VisitActiveProviders(
        const std::function<void(ProviderAgent&)>& fn) = 0;
    virtual std::size_t ActiveProviderCount() const = 0;

    /// Appends tier-specific series samples after the shared keys (the
    /// sharded tier adds its shard.* load series here).
    virtual void ExtendMetricsSample(SimTime now, des::SeriesSet& series) = 0;

    /// Starts tier-specific periodic tasks (load-report gossip, failover
    /// snapshots). Called between the metric probe and the departure task,
    /// which fixes the coordinator event order.
    virtual void StartAuxiliaryTasks(des::Simulator& sim) = 0;

    /// True when the engine's periodic tasks (probe, departures) must be
    /// epoch barriers for RunUntilParallel (inert under serial execution).
    virtual bool TasksAreBarriers() const = 0;

    /// The run loop itself: the default drains the shared kernel serially
    /// (RunUntil to the horizon, then RunAll for in-flight service); the
    /// epoch-parallel driver overrides this with the lane-group loop.
    virtual void Execute(des::Simulator& sim, SimTime duration);
  };

  /// `shard_lanes` sizes the flight recorder: one lane per mediation core
  /// plus the coordinator lane.
  ScenarioEngine(const SystemConfig& config, std::size_t shard_lanes);
  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  /// Executes the full scenario over `driver` and returns the result.
  /// Call once.
  RunResult Run(Driver& driver);

  // --- Series keys (Figure 4's subplots map onto these) -------------------
  static constexpr const char* kSeriesProvSatIntMean = "prov.sat.int.mean";
  static constexpr const char* kSeriesProvSatPrefMean = "prov.sat.pref.mean";
  static constexpr const char* kSeriesProvAdqIntMean = "prov.adq.int.mean";
  static constexpr const char* kSeriesProvAdqPrefMean = "prov.adq.pref.mean";
  static constexpr const char* kSeriesProvAllocSatIntMean =
      "prov.allocsat.int.mean";
  static constexpr const char* kSeriesProvAllocSatPrefMean =
      "prov.allocsat.pref.mean";
  static constexpr const char* kSeriesProvSatIntFair = "prov.sat.int.fair";
  static constexpr const char* kSeriesProvSatPrefFair = "prov.sat.pref.fair";
  static constexpr const char* kSeriesUtMean = "prov.ut.mean";
  static constexpr const char* kSeriesUtFair = "prov.ut.fair";
  static constexpr const char* kSeriesConsSatMean = "cons.sat.mean";
  static constexpr const char* kSeriesConsAdqMean = "cons.adq.mean";
  static constexpr const char* kSeriesConsAllocSatMean = "cons.allocsat.mean";
  static constexpr const char* kSeriesConsSatFair = "cons.sat.fair";
  static constexpr const char* kSeriesResponseTime = "rt.window";
  static constexpr const char* kSeriesActiveProviders = "active.providers";
  static constexpr const char* kSeriesActiveConsumers = "active.consumers";
  static constexpr const char* kSeriesWorkloadFraction = "workload.fraction";

  // --- Shared state the drivers build their cores over --------------------

  const SystemConfig& config() const { return config_; }
  const Population& population() const { return population_; }
  des::Simulator& sim() { return sim_; }
  std::vector<ProviderAgent>& providers() { return providers_; }
  const std::vector<ProviderAgent>& providers() const { return providers_; }
  std::vector<ConsumerAgent>& consumers() { return consumers_; }
  const std::vector<ConsumerAgent>& consumers() const { return consumers_; }
  const std::vector<std::uint32_t>& active_consumers() const {
    return active_consumers_;
  }
  /// Provider indices held out of the initial membership because their
  /// first scheduled churn event is a join (ascending). Drivers must
  /// exclude these from every core's initial member list.
  const std::vector<std::uint32_t>& initial_holdouts() const {
    return initial_holdouts_;
  }
  /// `held_out()[i]` — membership-mask form of initial_holdouts().
  const std::vector<bool>& held_out() const { return held_out_; }
  ReputationRegistry& reputation() { return reputation_; }
  RunResult& result() { return result_; }
  WindowedMean& response_window() { return response_window_; }

  /// The run's flight recorder: `shard_lanes` shard lanes plus the
  /// coordinator lane.
  obs::FlightRecorder& recorder() { return *recorder_; }

  /// The shared-state block a MediationCore needs, pointing into this
  /// engine. Drivers set the per-core fields (`effects`, `trace`,
  /// `metrics`, `arena`) on top before constructing each core.
  MediationCore::Shared CoreSharedState();

  /// RunResult::method_name (the engine cannot know it: methods are built
  /// by the driver, per core). Call before Run().
  void SetMethodName(std::string name) { result_.method_name = std::move(name); }

  /// The SoA backing store of every provider agent (hot columns + the
  /// per-lane chunk arenas when SystemConfig::agent_pool is enabled). The
  /// sharded driver calls ConfigureArenas(M) from its constructor — before
  /// any core allocates pooled chunks — to home each lane's chunks on its
  /// own arena.
  AgentStore& agent_store() { return agent_store_; }
  const AgentStore& agent_store() const { return agent_store_; }

 private:
  void OnArrival(des::Simulator& sim, Driver& driver);
  void SampleMetrics(des::Simulator& sim, Driver& driver);
  void RunDepartureChecks(des::Simulator& sim, Driver& driver);
  /// Applies one churn event (original firing or deferred retry): counts
  /// applied joins, annuls a deferred join when its leave overtakes it, and
  /// re-schedules deferred joins every churn_retry_interval.
  void FireChurnEvent(des::Simulator& sim, Driver& driver,
                      const ProviderChurnEvent& event, bool barrier,
                      bool retry);
  double ArrivalRateAt(SimTime t) const;

  SystemConfig config_;
  Population population_;
  des::Simulator sim_;
  // The shared stream and its forks, in the fork order every tier
  // reproduces (11: query classes, 12: consumer picks, 13: arrivals at
  // Run) — the root of the serial == parallel and served == replayed
  // bit-identity guarantees.
  Rng rng_;
  Rng query_class_rng_;
  Rng consumer_pick_rng_;

  /// Declared before the agent vectors: providers are views over the store
  /// and return their pooled chunks to its arenas on destruction, so the
  /// store must outlive them (members destroy in reverse declaration
  /// order).
  AgentStore agent_store_;
  std::vector<ProviderAgent> providers_;
  std::vector<ConsumerAgent> consumers_;
  /// Indices of still-active consumers (swap-removed on departure); active
  /// provider lists live in the drivers' cores.
  std::vector<std::uint32_t> active_consumers_;
  std::vector<std::uint32_t> initial_holdouts_;
  std::vector<bool> held_out_;
  /// The churn script in firing order (sorted copy of the config's events).
  std::vector<ProviderChurnEvent> churn_events_;
  /// The fault script in firing order (sorted copy of the config's events).
  std::vector<ShardFaultEvent> fault_events_;
  /// `join_waiting_[p]` — a scheduled join for p was deferred (its provider
  /// is still draining) and its retry event is live. A scheduled leave for
  /// p annuls the pending join instead of firing.
  std::vector<std::uint8_t> join_waiting_;

  ReputationRegistry reputation_;

  QueryId next_query_id_ = 0;
  WindowedMean response_window_;

  std::unique_ptr<obs::FlightRecorder> recorder_;

  // Consecutive failed assessments per consumer (hysteresis).
  std::vector<std::uint32_t> consumer_violations_;

  RunResult result_;
  bool ran_ = false;
};

}  // namespace sqlb::runtime

#endif  // SQLB_RUNTIME_SCENARIO_ENGINE_H_
