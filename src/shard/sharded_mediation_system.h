#ifndef SQLB_SHARD_SHARDED_MEDIATION_SYSTEM_H_
#define SQLB_SHARD_SHARDED_MEDIATION_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/allocation.h"
#include "des/simulator.h"
#include "msg/network.h"
#include "runtime/batch_window.h"
#include "runtime/mediation_core.h"
#include "runtime/scenario.h"
#include "runtime/scenario_engine.h"
#include "shard/gossip_topology.h"
#include "shard/parity.h"
#include "shard/shard_router.h"

/// \file
/// The sharded mediation tier: M mediators, each running the Algorithm-1
/// pipeline (runtime/mediation_core.h) over a consistent-hash partition of
/// the provider population, as one configuration of the shared scenario
/// driver (runtime/scenario_engine.h). The engine owns the population, the
/// arrival pump, the metric probes and the departure schedule; this class
/// supplies the policies — routing, batching and the execution substrate
/// (serial kernel vs epoch-parallel lanes).
///
/// Cross-shard load visibility travels as periodic load-report gossip over
/// the simulated network (msg/network.h), so the routing policies observe a
/// stale-but-bounded view of per-shard utilization — exactly the signal the
/// market-style deployments of PAPERS.md (Mariposa's load-scaled bidding,
/// consumer-centric brokered pools) need at scale. Queries bounced by a
/// shard (no active candidate after matchmaking, or every candidate past
/// the saturation bound) are re-routed to the next shard instead of being
/// dropped.
///
/// With M = 1 the tier is the paper's mono-mediator: sqlb::Service's
/// Mode::kMono runs exactly this driver at its ShardedSystemConfig defaults
/// (one shard, serial, unbatched).

namespace sqlb::shard {

struct ShardedSystemConfig {
  /// The scenario itself: population, workload, durations, agent configs,
  /// departure rules — identical in meaning at every shard count.
  runtime::SystemConfig base;
  /// Shard count, routing policy, ring geometry, staleness bound.
  RouterConfig router;

  /// Periodic per-shard load reports to the router, over the simulated
  /// network (delivery latency makes the router's view stale).
  bool gossip_enabled = true;
  SimTime gossip_interval = 5.0;
  msg::LatencyModel gossip_latency{0.005, 0.005};

  /// How load reports travel (shard/gossip_topology.h): kDirect (default,
  /// byte-identical to the classic path — every shard straight to the
  /// router, M messages/round) or kHierarchical (k-ary aggregation tree
  /// over the live shards, O(M log M) messages/round, one extra network
  /// latency of staleness per hop). Routing semantics are identical in
  /// both; only message count and report staleness differ.
  GossipTopologyKind gossip_topology = GossipTopologyKind::kDirect;
  /// Tree fanout k of the hierarchical topology.
  std::size_t gossip_fanout = 4;

  /// Deterministic message loss/delay injected into the gossip network
  /// (msg/network.h). The gossip protocol is proven safe under it: lost
  /// load reports age into the router's staleness fallback, and lost
  /// ring-epoch announcements are re-sent on the gossip cadence until the
  /// shard acknowledges the current epoch (counted in gossip_ring_retries).
  msg::FaultPolicy network_faults;

  /// Re-route a bounced query to another shard (M > 1 only). A query is
  /// bounced when its shard has no active candidate, or — when
  /// `saturation_backlog_seconds` > 0 — every candidate drags more queued
  /// work than that bound. The final attempt always mediates, saturated or
  /// not: a fully loaded system must still serve.
  bool rerouting_enabled = true;
  double saturation_backlog_seconds = 0.0;
  /// Total shards tried per query (clamped to M).
  std::size_t max_route_attempts = 2;

  // --- Wall-clock execution ------------------------------------------------

  /// 0 = classic single-threaded run (every pipeline on the shared kernel,
  /// bit-identical to PR 1). >= 1 = epoch-stepped parallel execution: each
  /// shard's mediation + service events drain on their own lane queue, the
  /// lanes run on a fixed pool of this many threads between barriers
  /// (gossip/probe/departure events), and the cross-shard sinks are merged
  /// deterministically at each barrier. Which configurations a parallel
  /// run admits is the parity policy below (shard/parity.h), checked by
  /// sqlb::Config::Validate() and enforced at Run().
  std::size_t worker_threads = 0;

  /// What a parallel run promises relative to serial (shard/parity.h):
  /// kStrict, the only mode, is bit-identity and requires consumer-affine
  /// routing. Ignored by serial runs.
  ParityMode parity = ParityMode::kStrict;

  /// Topology-aware worker placement (des/hw_topo.h): pin lane workers
  /// along the host's detected CPU topology — physical cores before SMT
  /// siblings, one socket filled before the next — and run lanes on a
  /// static lane->thread schedule so each shard's arena pages stay on the
  /// socket that first touched them. Opt-in, Linux-only (silently inert
  /// elsewhere); pins round-robin over CPUs 1..hw-1 when /sys topology is
  /// unreadable. Scheduling order within a lane is unchanged, so strict
  /// parity holds exactly as with the atomic schedule.
  bool topology_aware_workers = false;

  /// Seconds each shard coalesces arrivals before mediating them as one
  /// MediationCore::AllocateBatch burst (one matchmaking pass, one provider
  /// characterization snapshot, one scoring pass per burst). 0 disables
  /// coalescing: every arrival mediates inline, exactly as before. Queries
  /// keep their true issue times, so the coalescing delay shows up in
  /// response time — the classic batching latency/throughput trade.
  /// Works in both serial and parallel execution.
  double batch_window = 0.0;

  /// Per-shard adaptive window sizing (runtime/batch_window.h): when
  /// enabled, the static `batch_window` above is ignored and each shard
  /// recomputes its coalescing window per arrival from its own arrival-rate
  /// EWMA and barrier-sampled queue debt, bounded by
  /// [adaptive_batch.min_window, adaptive_batch.max_window]. Signals update
  /// only on coordinator arrival events and at barrier tasks, so adaptive
  /// windows keep strict-parity parallel runs bit-identical to serial. The
  /// queue-debt sample rides the load-report cadence (gossip_interval) and
  /// is taken even when gossip delivery itself is disabled.
  runtime::AdaptiveBatchConfig adaptive_batch;

  // --- Runtime re-partitioning (provider churn) ----------------------------

  /// Adapt the provider partition to churn: every `rebalance_interval`
  /// seconds (a kRebalance barrier under parallel execution) the system
  /// compares per-shard active-provider counts and, past the router's
  /// imbalance threshold, reweights the consistent-hash partition ring
  /// (ShardRouter::RebalancedVnodes + SetShardVnodes, bumping the ring
  /// epoch), announces the new epoch to the shards over the gossip network,
  /// and migrates every provider whose owner changed through the
  /// seal -> drain -> transfer handoff: the source shard stops matching it
  /// immediately, its queued work drains in place, and its core state
  /// (chronic-utilization baseline, admission time) moves to the new owner
  /// at the first rebalance barrier that finds it idle. Membership only
  /// ever changes at barriers, which is what keeps strict-parity parallel
  /// runs bit-identical to serial under churn. Inert at M = 1.
  bool rebalance_enabled = false;
  SimTime rebalance_interval = 50.0;
};

/// Per-shard accounting of one run.
struct ShardStats {
  std::size_t initial_providers = 0;
  std::size_t remaining_providers = 0;
  /// Queries whose first-choice route was this shard.
  std::uint64_t routed = 0;
  /// Queries this shard actually dispatched to providers.
  std::uint64_t allocated = 0;
  /// Scheduled churn joins admitted here.
  std::uint64_t joined = 0;
  /// Providers received from / handed to another shard by re-partitioning.
  std::uint64_t providers_in = 0;
  std::uint64_t providers_out = 0;
};

/// Everything a sharded run produces: the tier-independent RunResult
/// (counters, response times, departures, aggregated series) plus the
/// shard-tier view.
struct ShardedRunResult {
  runtime::RunResult run;
  std::vector<ShardStats> shards;

  /// Mediation attempts made on a non-first-choice shard.
  std::uint64_t reroutes = 0;
  /// Queries that a re-route saved from infeasibility.
  std::uint64_t reroute_rescues = 0;
  /// Load reports delivered to the router over the network.
  std::uint64_t gossip_delivered = 0;
  std::uint64_t gossip_sent = 0;
  /// Routing decisions that found every load report expired.
  std::uint64_t stale_fallbacks = 0;
  /// Load-report messages on the wire (origin sends + relay forwards; the
  /// O(M log M) scale gate bounds this against rounds x budget).
  std::uint64_t gossip_load_messages = 0;
  /// Hierarchical relay hops forwarded / dropped on a dead relay shard.
  std::uint64_t gossip_relay_forwards = 0;
  std::uint64_t gossip_relay_drops = 0;

  // --- Re-partitioning under churn -----------------------------------------
  /// Final partition-ring epoch (0 = the ring never changed).
  std::uint64_t ring_epoch = 0;
  /// Rebalance ticks that actually reweighted the ring.
  std::uint64_t ring_rebalances = 0;
  /// Provider migrations: sealed for handoff / transferred / dropped
  /// (departed while draining, or the ring flapped back first).
  std::uint64_t handoffs_started = 0;
  std::uint64_t handoffs_completed = 0;
  std::uint64_t handoffs_cancelled = 0;
  /// Load reports that arrived carrying an already-superseded ring epoch.
  std::uint64_t epoch_lagged_reports = 0;
  /// Batched-intake accounting: bursts flushed and queries they carried
  /// (batched_queries / batch_flushes = realized mean burst length; both 0
  /// under unbatched intake).
  std::uint64_t batch_flushes = 0;
  std::uint64_t batched_queries = 0;
  /// Rebalance ticks suppressed by the damping hysteresis (the imbalance
  /// had not yet persisted RouterConfig::rebalance_hysteresis_ticks ticks).
  std::uint64_t rebalances_damped = 0;

  // --- Failover (runtime/faults.h) -----------------------------------------
  /// Scheduled kills that actually crashed a live shard (no-op kills on an
  /// already-dead shard are not counted).
  std::uint64_t shard_crashes = 0;
  /// Queries re-issued after a crash (mirror of run.queries_reissued; the
  /// identity completed + infeasible + reissued == issued is exact).
  std::uint64_t reissued_queries = 0;
  /// Dead-shard providers adopted from the last snapshot's baselines vs
  /// re-admitted fresh (they joined after the snapshot was taken).
  std::uint64_t restored_providers = 0;
  std::uint64_t orphaned_providers = 0;
  /// Drain-retry ticks at which some dead-shard provider still had
  /// in-flight work and could not be adopted yet.
  std::uint64_t failover_drain_ticks = 0;
  /// Completion callbacks dropped because their dispatching shard
  /// incarnation crashed before they fired.
  std::uint64_t dropped_completions = 0;
  /// Crash-consistent snapshots exported (all shards, whole run).
  std::uint64_t snapshots_taken = 0;

  // --- Message substrate (msg/network.h) -----------------------------------
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped = 0;
  /// Drops/delays charged to ShardedSystemConfig::network_faults.
  std::uint64_t net_injected_drops = 0;
  std::uint64_t net_injected_delays = 0;
  /// Ring-epoch re-announcements to shards whose acknowledged epoch lagged
  /// (the gossip-retry half of loss tolerance).
  std::uint64_t gossip_ring_retries = 0;
  /// One digest per rebalance tick over (ring epoch, owner of every
  /// provider): the ownership sequence of the run. Identical digests across
  /// thread counts are the re-partitioning determinism pin.
  std::vector<std::uint64_t> ownership_digests;

  // --- Agent-state residency (runtime/agent_store.h, mem/) -----------------
  /// End-of-run agent-state footprint: the store's SoA columns plus every
  /// provider's resident window/queue chunks. Divided by the provider count
  /// this is the bytes-per-provider figure the memory scale gate compares
  /// between the pooled and the eager heap layout.
  std::size_t agent_state_bytes = 0;
  /// Bytes of arena pages reserved by the pooled layout (0 when
  /// SystemConfig::agent_pool is off and chunks live on the heap).
  std::size_t arena_bytes_reserved = 0;

  /// max/mean ratio of first-choice routes per shard (1 = perfectly even).
  double RouteImbalance() const;
};

/// The parity policy's view of `config` (shard/parity.h).
ParallelRunShape ParallelShapeOf(const ShardedSystemConfig& config);

/// M mediators + router + gossip + one allocation method per shard = one
/// run: construct, Run() once, read the result.
class ShardedMediationSystem : private runtime::ScenarioEngine::Driver {
 public:
  /// Fresh method instance per shard (methods are stateful; shards must not
  /// share a cursor or window). Called once per shard at construction.
  using MethodFactory =
      std::function<std::unique_ptr<AllocationMethod>(std::uint32_t shard)>;

  ShardedMediationSystem(const ShardedSystemConfig& config,
                         MethodFactory factory);
  ~ShardedMediationSystem();

  /// Executes the full scenario and returns the result. Call once.
  ShardedRunResult Run();

  // --- Extra series keys (per-shard load, on top of the engine's keys) ----
  /// Per-shard mean committed utilization; the shard index is appended
  /// ("shard.ut.0", "shard.ut.1", ...).
  static constexpr const char* kSeriesShardUtPrefix = "shard.ut.";
  /// Active providers per shard ("shard.active.0", ...).
  static constexpr const char* kSeriesShardActivePrefix = "shard.active.";

  // Introspection for tests.
  const runtime::MediationCore& core(std::size_t shard) const {
    return *cores_[shard];
  }
  /// Every provider agent, by global index (departed ones included).
  const std::vector<runtime::ProviderAgent>& providers() const {
    return engine_.providers();
  }

 private:
  class GossipSink;  // router-side msg::Node ingesting load reports

  // ScenarioEngine::Driver — the sharded policies.
  void OnQueryArrival(des::Simulator& sim, const Query& query) override;
  void RunProviderDepartureChecks(SimTime now, double optimal_ut) override;
  runtime::ChurnOutcome OnProviderChurn(
      des::Simulator& sim, const runtime::ProviderChurnEvent& event) override;
  void OnShardFault(des::Simulator& sim,
                    const runtime::ShardFaultEvent& event) override;
  void VisitActiveProviders(
      const std::function<void(runtime::ProviderAgent&)>& fn) override;
  std::size_t ActiveProviderCount() const override;
  void ExtendMetricsSample(SimTime now, des::SeriesSet& series) override;
  void StartAuxiliaryTasks(des::Simulator& sim) override;
  bool TasksAreBarriers() const override { return parallel_; }
  void Execute(des::Simulator& sim, SimTime duration) override;

  /// Serial mediation walk: tries `shard` and, on a bounce, up to
  /// max_route_attempts - 1 alternatives. `attempt` > 0 resumes the walk
  /// after a bounced batch attempt (the batch was attempt 0).
  void RouteWalk(des::Simulator& sim, const Query& query, std::uint32_t shard,
                 std::size_t attempt);
  /// Hands a routed query to its shard's intake: appends to the shard's
  /// coalescing buffer (static or adaptive batching) or schedules an
  /// immediate single-query mediation on the shard's lane (parallel,
  /// unbatched).
  void EnqueueForMediation(const Query& query, std::uint32_t shard,
                           SimTime now);
  /// The coalescing window an arrival on `shard` is held for right now:
  /// the adaptive controller's answer, or the static batch_window.
  double BatchWindowFor(std::uint32_t shard) const;
  /// Barrier-sampled queue-debt feed of the adaptive controllers.
  void SampleShardBacklogs();
  /// Mediates a shard's coalesced burst (lane context in parallel mode).
  void FlushBatch(des::Simulator& sim, std::uint32_t shard);
  void CountInfeasible(des::Simulator& sim, std::uint32_t shard,
                       const Query& query);
  /// Folds every lane's effect log into the shared sinks (epoch barrier).
  void MergeEffects();
  void SendLoadReports(des::Simulator& sim);
  /// Ascending live shard indices — the round's gossip tree ranks.
  std::vector<std::uint32_t> LiveShardRanks() const;
  /// The shard owning sender address `address` (addresses are registered
  /// in shard order at construction).
  std::uint32_t ShardOfAddress(NodeId address) const;
  /// Hierarchical relay hook: a load report delivered to shard `shard`'s
  /// address is forwarded one hop up the current tree (or to the router
  /// when `shard` is the root); dropped and counted when `shard` is dead.
  void RelayLoadReport(std::uint32_t shard, const msg::Message& message);

  // --- Re-partitioning protocol --------------------------------------------
  /// One rebalance barrier: reconcile ownership with the ring, reweight the
  /// ring past the imbalance threshold, seal movers, transfer drained ones.
  void OnRebalanceTick(des::Simulator& sim);
  /// Transfers every pending handoff whose provider has drained; drops the
  /// ones whose provider departed while draining. Returns the shard owning
  /// each provider after the pass (kNoShard = not a member anywhere).
  /// `now` stamps the handoff-drain histogram and spans.
  std::vector<std::uint32_t> ProcessPendingHandoffs(SimTime now);
  /// Gossips the router's current ring epoch to every shard (or applies it
  /// immediately when gossip is disabled).
  void AnnounceRingEpoch();
  /// Sends one ring-update message announcing `epoch` to `shard`.
  void SendRingUpdate(std::uint32_t shard, std::uint64_t epoch);
  /// Delivery hook for ring-update gossip (called by the GossipSink).
  void OnRingEpochSeen(std::uint32_t shard, std::uint64_t epoch);
  /// Discards `provider`'s pending handoff, if any (its membership
  /// incarnation ended: a scheduled leave, or a rejoin that must not
  /// inherit the old seal). Counts as a cancelled handoff.
  void DropPendingHandoff(std::uint32_t provider);

  // --- Failover protocol ----------------------------------------------------
  /// Periodic crash-consistent snapshot of every live shard's core (armed
  /// iff config.base.shard_faults is non-empty; an epoch barrier under
  /// parallel execution, so the cut is taken over quiescent lanes).
  void OnSnapshotTick(des::Simulator& sim);
  /// The crash-and-restart path of a shard with no survivor to fail over
  /// to (the last live shard, M = 1 included): crash the core, restore the
  /// last snapshot onto it, re-admit post-snapshot members fresh, re-issue
  /// what the crash lost.
  void RestartShard(des::Simulator& sim, std::uint32_t shard);
  /// Adopts every dead-shard provider whose agent has drained its in-flight
  /// work (snapshot baselines when present, fresh otherwise); the rest stay
  /// queued for the next drain-retry tick.
  void ProcessPendingAdoptions(SimTime now);
  /// Arms the next kFailover-barrier drain-retry tick, if none is armed and
  /// the horizon allows one.
  void ScheduleAdoptionRetry(des::Simulator& sim);
  /// Issues `query` again after its mediation died with a crashed shard:
  /// counts it (issued, reissued, per-reason), charges the availability
  /// penalty into the reissue-delay histogram, and routes it like a fresh
  /// arrival (the dead shard is already off the ring).
  void ReissueQuery(des::Simulator& sim, const Query& query,
                    runtime::ReissueReason reason);

  ShardedSystemConfig config_;
  /// The shared scenario driver: population, agents, RNG streams, arrival
  /// pump, metric probes, departure schedule, RunResult sinks.
  runtime::ScenarioEngine engine_;

  ShardRouter router_;
  std::vector<std::unique_ptr<AllocationMethod>> methods_;
  std::vector<std::unique_ptr<runtime::MediationCore>> cores_;

  msg::Network network_;
  std::unique_ptr<GossipSink> gossip_sink_;
  /// Network addresses: one sender per shard plus the router-side sink.
  std::vector<NodeId> shard_addresses_;
  NodeId sink_address_;
  /// The periodic load-report schedule (outlives StartAuxiliaryTasks).
  des::PeriodicTask gossip_task_;

  // Re-partitioning state (rebalance_enabled, M > 1). A pending handoff is
  // a provider sealed on its source shard and draining toward transfer.
  struct PendingHandoff {
    std::uint32_t provider = 0;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    /// When the provider was sealed (the handoff span's start; the drain
    /// histogram records transfer time minus this).
    SimTime sealed_at = 0.0;
  };
  static constexpr std::uint32_t kNoShard = ~0u;
  des::PeriodicTask rebalance_task_;
  std::vector<PendingHandoff> pending_handoffs_;
  /// Damping hysteresis: consecutive rebalance ticks whose proposed vnode
  /// allocation differed from the current ring (reset on apply and on any
  /// tick back within tolerance).
  std::size_t imbalance_streak_ = 0;
  /// What the last lane sync licensed (set by the merge hook): moving a
  /// provider's membership between cores — re-partitioning transfers and
  /// failover adoptions alike — is only legal when the lanes drained at a
  /// kRebalance or kFailover barrier.
  bool lanes_at_membership_barrier_ = false;
  /// Ring epoch each shard has acknowledged (via ring-update gossip);
  /// stamped onto that shard's load reports.
  std::vector<std::uint64_t> shard_epoch_seen_;

  // Failover state (config.base.shard_faults non-empty). A pending adoption
  // is a dead shard's provider still draining in-flight completions on the
  // dead lane; its new owner imports it at the first drain-retry tick that
  // finds it idle — the failover twin of the handoff drain rule, needed for
  // the same reason (an agent's service chain must never span two lanes).
  struct PendingAdoption {
    std::uint32_t provider = 0;
    /// Baseline to restore: the last snapshot's handoff payload when the
    /// provider was in it, a fresh one (admission at adoption time)
    /// otherwise.
    runtime::MediationCore::ProviderHandoff baseline;
    bool restored = false;
  };
  /// Last crash-consistent snapshot per shard (empty default = nothing
  /// snapshotted yet: a crash then re-admits every member fresh).
  std::vector<runtime::MediationCore::CoreSnapshot> snapshots_;
  des::PeriodicTask snapshot_task_;
  std::vector<PendingAdoption> pending_adoptions_;
  bool adoption_retry_armed_ = false;

  // Epoch-parallel execution state (worker_threads > 0): one lane event
  // queue and one effect log per shard. Batch buffers exist in both modes
  // (batch_window > 0); the per-shard flush scratch keeps lane threads from
  // sharing a burst vector.
  bool parallel_ = false;
  /// Batched intake active (static batch_window > 0 or adaptive enabled).
  bool batching_enabled_ = false;
  std::vector<std::unique_ptr<des::Simulator>> lane_sims_;
  std::vector<runtime::EffectLog> effect_logs_;
  /// One adaptive window controller per shard (empty when the adaptive
  /// mode is off). Updated only from coordinator events and barriers.
  std::vector<runtime::BatchWindowController> window_controllers_;
  /// Queue-debt sampling schedule for the controllers when gossip is off
  /// (with gossip on, the sample rides SendLoadReports).
  des::PeriodicTask backlog_sample_task_;
  std::vector<std::vector<Query>> batch_buffers_;
  /// When the next armed flush fires, per shard (-inf = none armed). An
  /// arrival at or past this time is not covered by the pending flush —
  /// the coordinator may run ahead of the lanes — and arms the next one.
  std::vector<SimTime> flush_due_;
  std::vector<std::vector<Query>> flush_scratch_;
  std::vector<std::vector<runtime::MediationCore::Outcome>> outcome_scratch_;

  // Observability plumbing (obs/), hoisted from the engine's flight
  // recorder at construction so the record sites pay a pointer deref (or
  // one null check) instead of a name lookup. Structural counters replace
  // the former ad-hoc tallies and live in the always-on registries — the
  // shard's own lane registry for lane-side sites (flushes), the
  // coordinator registry for coordinator/barrier sites (reroutes,
  // rebalances, handoffs) — and the ShardedRunResult mirror fields are
  // filled from the merged registry at Run() end (one source of truth).
  obs::Counter* reroutes_counter_ = nullptr;
  obs::Counter* rescues_counter_ = nullptr;
  obs::Counter* handoffs_started_counter_ = nullptr;
  obs::Counter* handoffs_completed_counter_ = nullptr;
  obs::Counter* handoffs_cancelled_counter_ = nullptr;
  obs::Counter* rebalances_damped_counter_ = nullptr;
  obs::Counter* ring_rebalances_counter_ = nullptr;
  obs::Counter* shard_crashes_counter_ = nullptr;
  obs::Counter* reissued_counter_ = nullptr;
  obs::Counter* reissued_reason_counters_[runtime::kNumReissueReasons] = {};
  obs::Counter* restored_counter_ = nullptr;
  obs::Counter* orphaned_counter_ = nullptr;
  obs::Counter* drain_ticks_counter_ = nullptr;
  obs::Counter* snapshots_counter_ = nullptr;
  obs::Counter* ring_retries_counter_ = nullptr;
  obs::Counter* gossip_load_messages_counter_ = nullptr;
  obs::Counter* relay_forwards_counter_ = nullptr;
  obs::Counter* relay_drops_counter_ = nullptr;
  std::vector<obs::Counter*> flush_counters_;
  std::vector<obs::Counter*> batched_query_counters_;
  /// Per-shard batch-wait histograms; null entries when histograms are off.
  std::vector<obs::Histogram*> batch_wait_hists_;
  obs::Histogram* handoff_drain_hist_ = nullptr;
  /// Availability penalty per re-issued query; null when histograms are off.
  obs::Histogram* reissue_delay_hist_ = nullptr;
  /// Coordinator-lane span recorder (routing, gossip, handoffs); null when
  /// tracing is off.
  obs::TraceLane* coord_trace_ = nullptr;

  ShardedRunResult result_;
  bool ran_ = false;
};

/// Builds a sharded system, runs it, returns the result.
ShardedRunResult RunShardedScenario(const ShardedSystemConfig& config,
                                    ShardedMediationSystem::MethodFactory factory);

}  // namespace sqlb::shard

#endif  // SQLB_SHARD_SHARDED_MEDIATION_SYSTEM_H_
