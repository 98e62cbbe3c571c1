#ifndef SQLB_RUNTIME_MEDIATION_CORE_H_
#define SQLB_RUNTIME_MEDIATION_CORE_H_

#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/allocation.h"
#include "des/simulator.h"
#include "matchmaking/matchmaker.h"
#include "mem/agent_arena.h"
#include "model/query.h"
#include "runtime/consumer_agent.h"
#include "runtime/provider_agent.h"
#include "runtime/reputation.h"
#include "runtime/scenario.h"
#include "workload/population.h"

/// \file
/// The shard-agnostic heart of the mediation tier: one Algorithm-1 pipeline
/// (matchmaking -> intention gathering -> scoring/selection by the pluggable
/// AllocationMethod -> result dispatch -> completion accounting) plus the
/// Section 6.3.2 provider departure rules, all scoped to a *subset* of the
/// provider population.
///
/// `shard::ShardedMediationSystem` runs M cores over a consistent-hash
/// partition of the providers — at M = 1, one core over every provider, the
/// paper's mono-mediator (Section 6.1) — and the serving tier runs one core
/// per shard on its mediator threads. Every tier shares this code path,
/// which is what makes serial == parallel and served == replayed hold
/// bit-for-bit rather than approximately.

namespace sqlb::runtime {

class DecisionLog;

/// One per-shard Algorithm-1 pipeline over a member subset of the provider
/// population. Participant vectors are owned by the enclosing system and
/// indexed globally; the core only ever touches its member providers (and
/// the consumers that issue queries to it).
///
/// The gather step (lines 2-5) is event-proportional, not query-
/// proportional: each member's query-independent characterization
/// (utilization, window satisfactions, backlog, the Definition-8 evaluator
/// with its state pow factors hoisted) lives in a persistent per-member
/// cache stamped with the provider agent's event revisions
/// (runtime/provider_agent.h), and a field is recomputed only when the
/// state transition that could change it actually happened — OnProposed
/// touching the performed subset, Enqueue/completion, utilization decay,
/// depart/rejoin. Refreshes run the exact computations (and windowed-sum
/// evictions) the uncached path would run at the same call sites, so a
/// cached run is bit-identical to a cache-disabled one
/// (SystemConfig::characterization_cache; pinned in
/// tests/shard/cache_parity_test.cc). Both Allocate and AllocateBatch feed
/// from this cache into struct-of-arrays candidate columns
/// (core/allocation.h) that the scoring kernels walk contiguously.
class MediationCore {
 public:
  /// Shared, system-owned state every core reads or sinks into. All
  /// pointers must outlive the core.
  struct Shared {
    const SystemConfig* config = nullptr;
    const Population* population = nullptr;
    std::vector<ProviderAgent>* providers = nullptr;
    std::vector<ConsumerAgent>* consumers = nullptr;
    ReputationRegistry* reputation = nullptr;
    /// Counter/departure/response-time sink (global across shards).
    RunResult* result = nullptr;
    /// Sliding response-time window behind the rt.window series.
    WindowedMean* response_window = nullptr;
    /// When non-null, the cross-shard sinks above (`result` counters and
    /// stats, `response_window`) are not written directly: completion and
    /// infeasibility effects are appended to this per-shard log instead,
    /// and the owning system merges every shard's log at epoch barriers in
    /// (time, shard, seq) order (MergeEffectLogs). This is what lets one
    /// core run on a worker thread while its siblings run on others.
    /// Consumer/provider agent state is still written directly — under the
    /// parallel mode's consumer-affine routing contract those writes are
    /// shard-private. Requires `config->reputation_feedback == false`
    /// (completion-time reputation writes would couple shards mid-epoch).
    EffectLog* effects = nullptr;
    /// This core's span recorder (the owning shard's lane of the flight
    /// recorder), or null when tracing is off. Single-writer: the core
    /// records spans for its own queries only, in both serial and parallel
    /// execution, so the lane's record sequence is mode-independent.
    obs::TraceLane* trace = nullptr;
    /// This core's hot-path histogram registry (the shard's lane registry),
    /// or null when histograms are off. Same single-writer discipline.
    obs::MetricsRegistry* metrics = nullptr;
    /// This core's agent arena (the owning lane's pooled chunk source), or
    /// null when agent pooling is disabled. Members admitted, imported or
    /// restored onto this core are re-homed on it (SetArena); their
    /// already-resident chunks keep draining to their original pool.
    mem::AgentArena* arena = nullptr;
    /// When non-null, every mediation this core decides appends one record
    /// (query id, outcome, selected provider indices in selection order).
    /// This is the replay oracle's comparison stream: a wall-clock serving
    /// run (runtime/serving_mediator.h) and its DES replay each record into
    /// a log, and the two must be identical. Single-writer, like trace.
    DecisionLog* decisions = nullptr;
  };

  /// What one mediation attempt did, so the caller (the shard router or a
  /// serving group) decides between counting an infeasible query and
  /// re-routing.
  enum class Outcome {
    /// Dispatched to >= 1 provider; the response callback will fire.
    kAllocated,
    /// Matchmaking returned an empty P_q (every member provider departed).
    kNoCandidates,
    /// Saturation pre-check tripped (see Allocate); nothing was mutated.
    kSaturated,
    /// The method selected no provider (strict economic broker); providers
    /// and the consumer recorded the failed round.
    kUnallocated,
  };

  /// `member_providers` lists the global indices this core mediates over.
  /// The method is not owned and must outlive the core.
  MediationCore(const Shared& shared, AllocationMethod* method,
                std::vector<std::uint32_t> member_providers);

  /// Runs Algorithm 1 for `query` over this core's active providers.
  ///
  /// When `saturation_backlog_seconds` > 0 and every candidate's queued
  /// work exceeds that many seconds, returns kSaturated *before* gathering
  /// intentions — no window, characterization or queue state changes, so a
  /// router may retry the query on another shard as if it never arrived
  /// here. Pass 0 (the mono-mediator setting) to disable the pre-check.
  Outcome Allocate(des::Simulator& sim, const Query& query,
                   double saturation_backlog_seconds = 0.0);

  /// Runs Algorithm 1 once for a whole arrival burst: one matchmaking pass,
  /// one saturation pre-check, one provider characterization pass (a
  /// revalidation of the event-driven cache at the burst time), and one
  /// scoring pass over the burst (AllocationMethod::AllocateBatchColumns),
  /// instead of repeating all of it per query. Per-query state (consumer
  /// intentions, provider preferences, windows, dispatch) is still handled
  /// query by query, in burst order.
  ///
  /// Semantics: every query in the burst observes the provider state as of
  /// `sim.Now()` at the call — queries within one burst do not see each
  /// other's allocations, which is precisely the amortization (intention
  /// gathering happens once per burst, Section 4's "gather intentions" step
  /// amortized over the burst). A burst of one is bit-for-bit identical to
  /// Allocate(); the saturation pre-check bounces the burst as a whole and
  /// is side-effect free, exactly like the single-query check.
  ///
  /// `outcomes` is resized to `queries.size()` with one Outcome per query.
  void AllocateBatch(des::Simulator& sim, const std::vector<Query>& queries,
                     double saturation_backlog_seconds,
                     std::vector<Outcome>* outcomes);

  /// The paper's provider-side departure rules (dissatisfaction,
  /// starvation, overutilization — first match wins) over this core's
  /// active members. `optimal_ut` is the nominal workload fraction at the
  /// check time. Members admitted less than `grace_period` ago are exempt —
  /// a provider that just joined has no evidence to be judged on, exactly
  /// like the system-wide grace at t = 0.
  void RunProviderDepartureChecks(SimTime now, double optimal_ut);

  // --- Membership lifecycle (provider churn and shard re-partitioning) -----

  /// Everything a member provider carries across a shard handoff beyond the
  /// globally-owned agent state: the chronic-utilization baseline of the
  /// starvation rule and the admission time of the departure grace.
  struct ProviderHandoff {
    std::uint32_t provider_index = 0;
    double units_at_last_check = 0.0;
    SimTime member_since = 0.0;
  };

  /// Admits `provider_index` as a new member at `now` (a scheduled join, or
  /// a departed provider returning): reactivates the agent, registers it
  /// for matchmaking, and starts its chronic-utilization baseline at the
  /// agent's current totals. The caller must ensure it is not a member of
  /// any core already.
  void AdmitMember(std::uint32_t provider_index, SimTime now);

  /// Stops matching `provider_index` (no new work) without removing its
  /// membership — the first half of a handoff: the provider drains its
  /// queue here while departure checks and metrics still count it.
  void SealMember(std::uint32_t provider_index);
  /// Reverts SealMember (the ring flapped back before the drain finished).
  void UnsealMember(std::uint32_t provider_index);

  /// Removes a drained member and returns its handoff state. The provider
  /// must be a member and Idle() — no pending completion events may be left
  /// behind on this core's simulator.
  ProviderHandoff ExportMember(std::uint32_t provider_index);
  /// Installs a handed-off member: registers matchmaking and restores the
  /// chronic baseline and admission time ExportMember captured.
  void ImportMember(const ProviderHandoff& handoff);

  /// Force-departs an active member at `now` with reason kChurn (a
  /// scheduled leave). Returns false when `provider_index` is not a member
  /// (it already departed by the Section 6.3.2 rules — the scheduled leave
  /// is then a no-op).
  bool DepartMemberForChurn(std::uint32_t provider_index, SimTime now);

  bool IsMember(std::uint32_t provider_index) const;

  // --- Crash, snapshot, and failover recovery ------------------------------

  /// A crash-consistent image of this core's mediator-owned state, taken at
  /// an epoch barrier (every lane quiescent, so the cut is well-defined).
  /// Provider windows, utilization history and queue state are *not* here:
  /// agents are autonomous participants owned by the system, not mediator
  /// state, so they survive a mediator crash by construction — what dies
  /// with the mediator is its membership bookkeeping (who it mediates over,
  /// chronic baselines, admission times) and its in-flight response
  /// tracking, which is exactly what this captures.
  struct CoreSnapshot {
    SimTime taken_at = 0.0;
    /// Member baselines as of the snapshot (the ExportMember payload),
    /// sorted by provider index.
    std::vector<ProviderHandoff> members;
    /// In-flight FIFO digest: how many responses were pending and an
    /// FNV-1a hash over their sorted query ids — a cheap diagnostic that a
    /// restored run's in-flight population matches expectations.
    std::size_t pending_count = 0;
    std::uint64_t pending_digest = 0;
  };

  /// Captures the snapshot at `now`. Pure read — never perturbs the run.
  CoreSnapshot ExportSnapshot(SimTime now) const;

  /// What a crash took down with the mediator.
  struct CrashReport {
    /// Member provider indices at crash time (ascending). Their agents are
    /// still alive — survivors must adopt them (from the last snapshot's
    /// baselines when present, fresh otherwise).
    std::vector<std::uint32_t> members;
    /// Queries dispatched but not yet completed, sorted by id: their
    /// completion callbacks die with this core and they must be re-issued
    /// (ReissueReason::kInFlight).
    std::vector<Query> lost_queries;
  };

  /// Kills this core: clears membership, matchmaking and in-flight
  /// tracking, and bumps the crash epoch so completion callbacks already
  /// scheduled on provider agents are dropped when they fire (counted in
  /// dropped_completions(); the agents still pop their queues, so they
  /// drain to Idle() on the dead lane and can be adopted). Call only at a
  /// kFailover barrier.
  CrashReport Crash();

  /// Re-installs a snapshot's members on this (crashed, empty) core — the
  /// restart path of a mediator that has no survivor to fail over to (the
  /// last live shard, M = 1 included). Members whose agent departed
  /// between snapshot and crash are skipped. Returns the number restored.
  std::size_t RestoreSnapshot(const CoreSnapshot& snapshot);

  /// Completions dropped because their dispatching incarnation crashed.
  std::uint64_t dropped_completions() const { return dropped_completions_; }
  /// Times this core has crashed (the completion-suppression epoch).
  std::uint64_t crash_count() const { return crash_epoch_; }

  // --- Load and membership introspection ----------------------------------

  const std::vector<std::uint32_t>& active_providers() const {
    return active_providers_;
  }
  std::size_t active_provider_count() const {
    return active_providers_.size();
  }

  /// Mean committed utilization over active members at `now` (the gossip
  /// load-report payload; > 1 under sustained overload).
  double MeanCommittedUtilization(SimTime now) const;
  /// Mean seconds of queued work over active members.
  double MeanBacklogSeconds() const;

  std::uint64_t allocated_queries() const { return allocated_queries_; }

  // --- Event-driven characterization cache ---------------------------------

  /// Per-member provider snapshot: every query-independent field of the
  /// candidate gather, plus the Definition-8 evaluator with the
  /// provider-state pow factors hoisted.
  struct CandidateSnapshot {
    ProviderId id;
    double utilization = 0.0;
    double satisfaction_intentions = 0.5;
    double satisfaction_preferences = 0.5;
    double backlog_seconds = 0.0;
    double capacity = 1.0;
  };

  /// One member's cached characterization, stamped with the provider-agent
  /// revisions it was computed from. A field refreshes exactly when its
  /// stamp no longer matches (or, for the time-decaying utilization, when
  /// the agent's windowed sum would evict — the exact decay predicate), so
  /// every refresh recomputes precisely what the uncached path would have
  /// recomputed and the cached values stay bit-identical to recomputation.
  struct MemberCharacterization {
    /// Coarse validity: agent's characterization_revision at refresh. The
    /// hit path compares only this (plus the decay deadline below), so a
    /// hit costs one agent load and one cache-entry line.
    std::uint64_t char_revision = kNeverCharacterized;
    /// Oldest utilization-window event at refresh (+inf when none):
    /// `decay_front_time <= now - window` is exactly the agent's eviction
    /// predicate while char_revision holds, evaluated without touching the
    /// agent's deque.
    SimTime decay_front_time = 0.0;
    CandidateSnapshot snap;
    ProviderIntentionEvaluator evaluator;
    // Fine stamps: the refresh path recomputes only what actually moved.
    std::uint64_t load_revision = kNeverCharacterized;
    std::uint64_t utilization_revision = kNeverCharacterized;
    std::uint64_t satisfaction_revision = kNeverCharacterized;
  };

  /// Cache traffic counters (tests and the micro bench read these).
  struct CacheStats {
    std::uint64_t lookups = 0;
    std::uint64_t utilization_refreshes = 0;
    std::uint64_t backlog_refreshes = 0;
    std::uint64_t satisfaction_refreshes = 0;
    std::uint64_t evaluator_rebuilds = 0;
  };

 public:
  const CacheStats& cache_stats() const { return cache_stats_; }
  bool cache_enabled() const { return cache_enabled_; }

 private:
  static constexpr std::uint64_t kNeverCharacterized = ~0ULL;

  struct PendingResponse {
    /// The dispatched query itself, kept so a crash can re-issue exactly
    /// what was in flight (issue_time rides along inside).
    Query query;
    /// When the query was dispatched to its providers (the kExecute span's
    /// start; equals the mediation time).
    SimTime dispatch_time;
    std::uint32_t outstanding;
  };

  /// Returns `provider_index`'s characterization, valid as of `now`. The
  /// inline fast path is the steady-state hit (the coarse stamp matches
  /// and no utilization decay is due): two compares, no refresh. Misses
  /// fall through to RefreshCharacterization, which revalidates each
  /// snapshot field against the agent's fine event stamps and refreshes
  /// only the stale ones (all of them when the cache is disabled — the
  /// recompute-per-query twin).
  const MemberCharacterization& Characterize(std::uint32_t provider_index,
                                             SimTime now) {
    const ProviderAgent& agent = (*shared_.providers)[provider_index];
    const MemberCharacterization& mc = member_cache_[agent.core_slot()];
    if (cache_enabled_ &&
        mc.char_revision == agent.characterization_revision() &&
        !(mc.decay_front_time <= now - utilization_window_width_)) {
      return mc;
    }
    return RefreshCharacterization(provider_index, now);
  }
  const MemberCharacterization& RefreshCharacterization(
      std::uint32_t provider_index, SimTime now);

  void OnQueryCompleted(const Query& query, ProviderId performer,
                        SimTime completion_time);
  void DepartProvider(std::size_t index, DepartureReason reason, SimTime now);
  /// Fills `columns`/`prefs` with the per-query candidate gather for
  /// `query` over `pq` at `now`, reading the query-independent fields from
  /// the characterization cache, lists the mutually-willing pairs in
  /// `columns->willing`, and prefetches each candidate's window slot for
  /// ApplyDecision. A method without exact_refusals gets a -infinity
  /// provider intention for each provable full refusal whenever at least
  /// k = min(q.n, |pq|) pairs are mutually willing.
  void GatherCandidates(const Query& query, const std::vector<ProviderId>& pq,
                        SimTime now, CandidateColumns* columns,
                        std::vector<double>* prefs);

  /// The post-decision half of Algorithm 1 (provider notification, consumer
  /// characterization, dispatch), shared by Allocate and AllocateBatch.
  /// `provider_prefs` is aligned with the candidate columns.
  Outcome ApplyDecision(des::Simulator& sim, const Query& query,
                        const CandidateColumns& columns,
                        const std::vector<double>& provider_prefs,
                        const AllocationDecision& decision);

  Shared shared_;
  AllocationMethod* method_;
  AcceptAllMatchmaker matchmaker_;
  bool cache_enabled_ = true;
  /// config->provider.utilization_window, hoisted for the decay check of
  /// the Characterize fast path.
  SimTime utilization_window_width_ = 60.0;
  /// The method's column mask, read once at construction: the gather loop
  /// materializes only the optional columns the method's scoring reads.
  CandidateColumnNeeds column_needs_;

  /// Global indices of still-active member providers (swap-removed on
  /// departure).
  std::vector<std::uint32_t> active_providers_;

  std::unordered_map<QueryId, PendingResponse> pending_;
  std::uint64_t allocated_queries_ = 0;

  /// Bumped by Crash(): completion callbacks capture the epoch they were
  /// dispatched under and drop themselves when it no longer matches —
  /// already-scheduled agent completions on a dead lane fire harmlessly
  /// instead of corrupting the successor incarnation's accounting.
  std::uint64_t crash_epoch_ = 0;
  std::uint64_t dropped_completions_ = 0;

  /// Assigns `provider_index` a dense member slot on this core (recycling
  /// freed slots LIFO — membership changes only happen at deterministic
  /// barriers, so the recycling order is part of the parity contract) and
  /// resets the slot's characterization stamps to never-characterized: a
  /// recycled slot must not serve the previous occupant's cache entry.
  std::uint32_t AllocMemberSlot(std::uint32_t provider_index);
  /// Returns the member's slot to the freelist and detaches the agent.
  void FreeMemberSlot(std::uint32_t provider_index);
  std::uint32_t MemberSlot(std::uint32_t provider_index) const {
    return (*shared_.providers)[provider_index].core_slot();
  }

  // Chronic-utilization bookkeeping for the starvation rule: allocated
  // units and timestamp at each member's previous departure check, indexed
  // by *member slot* (the agent's core_slot column), so a core over 1/M of
  // a million-provider population holds member-count state, not
  // population-count state. `member_since_` records when each member was
  // (last) admitted: 0 for initial members, the join/import time otherwise —
  // it bounds the chronic measurement span and grants joiners the departure
  // grace period.
  std::vector<double> units_at_last_check_;
  std::vector<SimTime> member_since_;
  std::vector<std::uint32_t> free_member_slots_;
  SimTime last_check_time_ = 0.0;

  /// The characterization cache, indexed by member slot (one entry per
  /// current member; slots recycle across membership changes with their
  /// stamps reset).
  std::vector<MemberCharacterization> member_cache_;
  CacheStats cache_stats_;

  // Hot-path histograms, hoisted from Shared::metrics at construction
  // (null when histograms are disabled — call sites pay one branch).
  obs::Histogram* rt_histogram_ = nullptr;
  obs::Histogram* candidates_histogram_ = nullptr;

  // Scratch buffers reused across allocations (the hot path). All of them
  // are pre-sized to the member-provider count at construction so the
  // first allocations do not pay growth reallocations.
  CandidateColumns scratch_columns_;
  std::vector<double> scratch_provider_pref_;
  /// The gather's per-candidate evaluators, and its candidate indices for
  /// Definition 8 now and for the deferred refusals.
  std::vector<const ProviderIntentionEvaluator*> scratch_evaluators_;
  std::vector<std::size_t> scratch_exact_;
  std::vector<std::size_t> scratch_refusals_;
  std::vector<double> scratch_selected_ci_;
  std::vector<char> scratch_selected_mask_;

  // Burst scratch for AllocateBatch: one candidate-column/preference-row/
  // decision arena slot per burst query (slots are reused across bursts;
  // only burst sizes beyond the high-water mark allocate).
  std::vector<CandidateColumns> batch_columns_;
  std::vector<ColumnarRequest> batch_requests_;
  std::vector<std::vector<double>> batch_provider_prefs_;
  std::vector<AllocationDecision> batch_decisions_;
};

/// Ordered record of the allocation decisions a core (or a set of cores
/// sharing one log) made — the serving tier's replay-oracle stream: a
/// recorded serving run and its DES replay must produce identical logs
/// (runtime/serving_mediator.h, tests/runtime/serving_replay_test.cc).
///
/// ApplyDecision appends kAllocated/kUnallocated records in-core; bursts
/// that never reach it (empty candidate set -> kNoCandidates, saturation
/// bounce -> kSaturated) are appended by the driver at the call site, so
/// recorder and replayer — both driving AllocateBatch the same way — agree
/// on the full stream, not just the allocated subset.
class DecisionLog {
 public:
  struct Record {
    QueryId query = kInvalidQueryId;
    MediationCore::Outcome outcome = MediationCore::Outcome::kNoCandidates;
    /// Global provider indices selected, in selection order (empty unless
    /// outcome == kAllocated).
    std::vector<std::uint32_t> providers;
  };

  void Append(Record record) { records_.push_back(std::move(record)); }
  /// Moves `other`'s records onto the end of this log, leaving `other`
  /// empty. The serving tier folds the per-group logs with this, in group
  /// order, so the merged stream is the deterministic group-order
  /// concatenation.
  void AppendAll(DecisionLog&& other) {
    if (records_.empty()) {
      records_ = std::move(other.records_);
    } else {
      records_.insert(records_.end(),
                      std::make_move_iterator(other.records_.begin()),
                      std::make_move_iterator(other.records_.end()));
    }
    other.records_.clear();
  }
  const std::vector<Record>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// True when the two logs are bit-identical. On mismatch, `diff` (when
  /// non-null) gets a one-line description of the first divergence.
  bool IdenticalTo(const DecisionLog& other, std::string* diff) const;

 private:
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// System-level pieces shared verbatim by the DES driver and the serving
// tier. They live here — next to the pipeline — so the parity guarantees
// rest on shared code, not on copies staying identical.
// ---------------------------------------------------------------------------

/// Nominal Poisson arrival rate at `t`, scaled by the surviving-consumer
/// share (Section 6.3.2's remark: fewer consumers issue fewer queries).
double ScaledArrivalRate(const SystemConfig& config,
                         const Population& population,
                         std::size_t active_consumers,
                         std::size_t initial_consumers, SimTime t);

/// The scenario's peak nominal arrival rate (queries/second): the
/// workload's maximum capacity fraction over the mean query cost. Bounds
/// ScaledArrivalRate over the whole run — the thinning envelope of the
/// Poisson arrival process, and the basis for batch-window sizing.
double NominalMaxArrivalRate(const SystemConfig& config,
                             const Population& population);

/// Draws one arriving query: uniform pick over the active consumers, then
/// a uniform query class. The draw order is part of the parity contract.
/// Call only while `active_consumers` is non-empty.
Query DrawArrivalQuery(const SystemConfig& config,
                       const Population& population,
                       const std::vector<std::uint32_t>& active_consumers,
                       Rng& consumer_pick_rng, Rng& query_class_rng,
                       QueryId id, SimTime now);

/// The Section 6.3.2 consumer-side departure rule (dissatisfaction below
/// adequation, with hysteresis): swap-removes departing consumers from
/// `active_consumers`, keeps the per-consumer violation counters in
/// `violations` (lazily sized), and records each departure into `result`.
void RunConsumerDepartureChecks(const DepartureConfig& departures,
                                std::vector<ConsumerAgent>& consumers,
                                std::vector<std::uint32_t>& active_consumers,
                                std::vector<std::uint32_t>& violations,
                                SimTime now, RunResult* result);

}  // namespace sqlb::runtime

#endif  // SQLB_RUNTIME_MEDIATION_CORE_H_
