#ifndef SQLB_RUNTIME_FAULTS_H_
#define SQLB_RUNTIME_FAULTS_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

/// \file
/// Mediator fault injection: scheduled shard kills, executed by the
/// ScenarioEngine at BarrierKind::kFailover barriers (every lane quiescent
/// and merged when the kill fires, so a crash is a well-defined cut of the
/// simulation state, not a race).
///
/// The fault model (see README "Fault model and recovery semantics"): a
/// killed shard loses everything it has not snapshotted — its in-flight
/// mediation decisions and its intake buffer — but its provider population
/// survives, because providers are autonomous participants, not mediator
/// state. Survivors adopt the dead shard's providers through the versioned
/// ring and restore their chronic baselines from the last crash-consistent
/// snapshot; queries lost in flight are re-issued with the availability
/// penalty charged to the response-time statistics. The accounting
/// invariant, pinned in tests and the chaos bench arm:
///
///   completed + infeasible + declared-reissued == issued, exactly,
///   under any kill schedule.

namespace sqlb::runtime {

/// Why a query had to be re-issued after a shard crash — the failover
/// analogue of DepartureReason.
enum class ReissueReason : std::uint8_t {
  /// The query was mediated and executing (or queued) on the dead shard's
  /// providers; the completion callback died with the shard.
  kInFlight = 0,
  /// The query was sitting in the dead shard's batch-intake buffer and had
  /// not been mediated yet.
  kIntake = 1,
};

inline constexpr std::size_t kNumReissueReasons = 2;

/// "in_flight", "intake".
const char* ReissueReasonName(ReissueReason reason);

/// One scheduled shard kill: the DES driver's shard id (< the run's shard
/// count, which sqlb::Config::Validate() checks). Killing the last live
/// shard — every kill at M = 1 — crashes and restarts it in place.
struct ShardFaultEvent {
  SimTime time = 0.0;
  std::uint32_t shard = 0;
};

/// The scenario's fault script: every event fires at its time as a
/// kFailover barrier. Events need not be pre-sorted; the engine orders them
/// by (time, list position). Killing an already-dead shard is a no-op the
/// driver reports (ChurnOutcome::kNoOp-style), so random schedules may name
/// any shard.
struct FaultSchedule {
  std::vector<ShardFaultEvent> events;

  /// Snapshot cadence, in simulated seconds: how often each live shard
  /// exports a crash-consistent snapshot at an epoch barrier. Everything
  /// the shard did after its last snapshot is lost on a kill and must be
  /// re-issued or re-admitted fresh.
  SimTime snapshot_interval = 50.0;

  /// Retry cadence for adopting a dead shard's non-idle providers: a
  /// provider still draining in-flight completions on the dead lane is
  /// re-checked this often (at kFailover barriers) until idle, then
  /// imported by its new owner — the failover analogue of the handoff
  /// protocol's seal -> drain -> transfer rule.
  SimTime drain_retry_interval = 5.0;

  bool empty() const { return events.empty(); }

  /// A single kill of `shard` at `time`.
  static FaultSchedule KillAt(SimTime time, std::uint32_t shard);

  /// Random kills at mean rate `kills_per_1000s` per 1000 simulated
  /// seconds: exponential gaps starting after `start`, each naming a
  /// uniformly drawn shard in [0, num_shards), until `end`. Pure data —
  /// the schedule is generated up front from `seed`, so the same seed
  /// always produces the same kill times regardless of how the run
  /// executes. The driver skips kills naming an already-dead shard and
  /// refuses to kill the last live one, so a random schedule can never
  /// extinguish the tier.
  static FaultSchedule RandomKills(SimTime start, SimTime end,
                                   double kills_per_1000s,
                                   std::uint32_t num_shards,
                                   std::uint64_t seed);

  /// Appends `other`'s events after this schedule's (cadence fields keep
  /// this schedule's values).
  FaultSchedule& Append(const FaultSchedule& other);
};

}  // namespace sqlb::runtime

#endif  // SQLB_RUNTIME_FAULTS_H_
