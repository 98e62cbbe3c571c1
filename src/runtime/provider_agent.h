#ifndef SQLB_RUNTIME_PROVIDER_AGENT_H_
#define SQLB_RUNTIME_PROVIDER_AGENT_H_

#include <functional>
#include <memory>

#include "common/types.h"
#include "core/intention.h"
#include "des/simulator.h"
#include "mem/chunked_fifo.h"
#include "model/query.h"
#include "model/windows.h"
#include "runtime/agent_store.h"
#include "workload/population.h"

/// \file
/// The provider side of the system: a FIFO service station with finite
/// capacity (Section 2: "providers have a finite capacity"), utilization
/// tracking (DESIGN.md fidelity decision 1), the sliding characterization
/// window of Section 3.2, and the Definition 8 intention function, whose
/// self-balance uses the provider's *private preference-based* satisfaction
/// (Section 5.2).
///
/// Storage layout: ProviderAgent is a *view*. The hot scalar state —
/// backlog, running totals, the utilization windowed sum and every
/// event-revision stamp — lives in SoA columns of the engine-owned
/// AgentStore (runtime/agent_store.h); the queue and the utilization event
/// log are chunked FIFOs and the characterization window rides a chunked
/// ring, all drawing from the owning lane's arena when pooling is enabled.
/// The standalone (profile, config) constructor — unit tests, examples —
/// self-hosts a single-slot store so the class keeps its old value
/// semantics. Pooled and heap modes execute the identical arithmetic, so
/// enabling the pool is bit-invisible to every parity pin.

namespace sqlb::runtime {

struct ProviderAgentConfig {
  /// Window capacity k and prior (paper: k = 500, prior 0.5), with the
  /// strict Definition 5 satisfaction (0 when nothing in the window was
  /// performed — see WindowConfig::satisfaction_prior_weight).
  WindowConfig window{500, 0.5, 0.0};
  /// Width of the utilization measurement window, in seconds.
  SimTime utilization_window = 60.0;
  /// Definition 8 parameters.
  ProviderIntentionParams intention;
  /// Floor of the Mariposa asking price.
  double bid_price_floor = 0.05;
};

/// One provider's runtime state.
class ProviderAgent {
 public:
  /// `on_completion(query, performer, completion_time)` fires when a
  /// performed query finishes service.
  using CompletionFn =
      std::function<void(const Query&, ProviderId, SimTime)>;

  /// Standalone agent owning its own config copy and single-slot store
  /// (heap-eager layout) — the unit-test / example constructor.
  ProviderAgent(const ProviderProfile& profile,
                const ProviderAgentConfig& config);

  /// Engine-owned agent: a view over `store` slot `slot`, sharing one
  /// config for the whole population. Both must outlive the agent.
  ProviderAgent(const ProviderProfile& profile,
                const ProviderAgentConfig* config, AgentStore* store,
                std::uint32_t slot);

  ProviderAgent(ProviderAgent&&) = default;

  const ProviderProfile& profile() const { return profile_; }
  ProviderId id() const { return profile_.id; }
  double capacity() const { return profile_.capacity; }

  /// Homes this agent's future chunk allocations on `arena` (the owning
  /// lane's). Null reverts to heap chunks. Chunks already resident keep
  /// their original owner pool and return there when drained — the
  /// cross-shard migration contract of churn handoffs.
  void SetArena(mem::AgentArena* arena);

  // --- Intention and bidding (what the mediator asks for) -----------------

  /// pi_p(q) — Definition 8, evaluated at time `now` with the provider's
  /// current utilization and private preference-based satisfaction.
  double ComputeIntention(double preference, SimTime now);

  /// Mariposa-style asking price for a query it has `preference` for.
  double ComputeBidPrice(double preference) const;

  /// The provider's delay estimate for a new query of `units` treatment
  /// units: current backlog plus its own service time.
  double EstimateDelay(double units) const;

  // --- Load state ----------------------------------------------------------

  /// Ut(p) at `now`: treatment units allocated within the sliding window,
  /// divided by capacity * window. Exceeds 1 under overload.
  double Utilization(SimTime now);

  /// Total treatment units ever allocated to this provider. Departure
  /// checks derive the *chronic* utilization (average allocation rate over
  /// capacity since the previous check) from deltas of this counter; it
  /// drives the starvation rule (a provider missing one 60-second window
  /// has not "starved").
  double total_allocated_units() const {
    return store_->total_allocated_units(slot_);
  }

  /// Utilization including the carried queue: Utilization(now) +
  /// backlog / (capacity * window). A provider absorbing work at exactly
  /// its capacity but dragging a long queue reads > 1 here while the plain
  /// windowed rate reads ~ 1; this is the overutilization-rule signal
  /// (sustained overload is queue debt, not allocation rate).
  double CommittedUtilization(SimTime now);

  /// Seconds of work sitting in the queue (including the in-service query,
  /// counted at full cost — a documented over-estimate of at most one
  /// query).
  double BacklogSeconds() const {
    return store_->backlog_units(slot_) / profile_.capacity;
  }
  double backlog_units() const { return store_->backlog_units(slot_); }
  std::size_t queue_length() const { return queue_.size(); }

  // --- Event stamps for the characterization cache -------------------------
  //
  // MediationCore keeps a per-member candidate snapshot keyed on these
  // monotonic revisions, so Algorithm 1's gather step recomputes a field
  // only when an event could have changed it (see
  // runtime/mediation_core.h). Every stamp is bumped by the state
  // transition that invalidates the corresponding field — never by reads.

  /// Changes exactly when queue/backlog state changes: Enqueue, service
  /// completion, Depart/Rejoin.
  std::uint64_t load_revision() const { return store_->load_revision(slot_); }
  /// Changes whenever Utilization()'s windowed sum changed value: work was
  /// allocated, or a past allocation expired out of the measurement window
  /// (bumped by whichever call evicted it — including probe/departure-check
  /// reads outside the mediation path).
  std::uint64_t utilization_revision() const {
    return store_->util_revision(slot_);
  }
  /// True when evaluating Utilization(now) would evict expired allocations
  /// — i.e. the utilization has decayed since the last read, even though no
  /// new event was recorded. The exact eviction predicate of the windowed
  /// sum, so a cached utilization revalidated against
  /// (utilization_revision, WouldExpireAt) is bit-identical to recomputing.
  bool UtilizationWouldDecay(SimTime now) const {
    return !util_events_.empty() &&
           util_events_.front().time <= now - config_->utilization_window;
  }
  /// Changes exactly when either channel's Satisfaction() can change (the
  /// performed-subset aggregates moved; plain proposals leave it alone).
  std::uint64_t satisfaction_revision() const {
    return window_.satisfaction_revision();
  }
  /// Coarse summary stamp: changes whenever ANY of the three fine revisions
  /// above changes — one load decides "everything cached about this
  /// provider is still exact" (the utilization decay deadline is checked
  /// separately via UtilizationFrontEventTime). Maintained by the mutating
  /// methods themselves, so it also covers evictions triggered by reads on
  /// other paths (probes, gossip, departure checks).
  std::uint64_t characterization_revision() const {
    return store_->char_revision(slot_);
  }
  /// Timestamp of the oldest allocation still inside the utilization
  /// window (+inf when none): while characterization_revision() holds,
  /// `UtilizationFrontEventTime() <= now - utilization window` is exactly
  /// the decay predicate UtilizationWouldDecay(now) evaluates.
  SimTime UtilizationFrontEventTime() const {
    return util_events_.empty() ? kSimTimeInfinity
                                : util_events_.front().time;
  }

  // --- Query lifecycle -----------------------------------------------------

  /// Records a proposed query in the characterization window (every query
  /// in P_q is proposed; `performed` marks the ones allocated here —
  /// Section 5.4: non-selected providers are informed of the mediation
  /// result).
  void OnProposed(double shown_intention, double preference, bool performed);

  /// Prefetch hint ahead of OnProposed: the mediation gather issues it for
  /// every candidate, so the post-decision notify sweep over a large P_q
  /// finds each window slot in cache (the rings together outgrow L2).
  void PrefetchProposalSlot() const { window_.PrefetchRecordSlot(); }

  /// Accepts an allocated query: joins the FIFO queue; service takes
  /// units / capacity seconds once started. `on_completion` fires at
  /// completion time.
  void Enqueue(des::Simulator& sim, const Query& query,
               CompletionFn on_completion);

  // --- Characterization ----------------------------------------------------

  const ProviderWindow& window() const { return window_; }

  /// delta_s(p) on shown intentions — what the mediator can observe and
  /// what Eq. 6 consumes.
  double SatisfactionOnIntentions() const {
    return window_.Satisfaction(ProviderWindow::Channel::kIntention);
  }
  /// delta_s(p) on private preferences — what Definition 8's self-balance
  /// consumes (Section 5.2) and what Figure 4(b) reports.
  double SatisfactionOnPreferences() const {
    return window_.Satisfaction(ProviderWindow::Channel::kPreference);
  }
  double AdequationOnIntentions() const {
    return window_.Adequation(ProviderWindow::Channel::kIntention);
  }
  double AdequationOnPreferences() const {
    return window_.Adequation(ProviderWindow::Channel::kPreference);
  }

  // --- Departure -----------------------------------------------------------

  bool active() const { return store_->active(slot_); }
  /// Marks the provider as departed. Outstanding queued work still
  /// completes (consumers get their answers) but nothing new arrives.
  /// Idempotent: a second Depart on an already-departed provider changes
  /// nothing and bumps no revision — cached characterizations stay valid.
  void Depart() {
    if (!store_->active(slot_)) return;
    store_->set_active(slot_, false);
    ++store_->load_revision(slot_);
    ++store_->char_revision(slot_);
  }
  /// Re-enters a departed (or held-out) provider: it may be matched again.
  /// Characterization windows and utilization history persist — an
  /// autonomous provider returning to the market keeps its memory.
  /// Idempotent like Depart: rejoining an active provider is a no-op.
  void Rejoin() {
    if (store_->active(slot_)) return;
    store_->set_active(slot_, true);
    ++store_->load_revision(slot_);
    ++store_->char_revision(slot_);
  }

  /// True when no query is queued or in service — the provider has no
  /// pending completion event on any simulator, so its state can be handed
  /// to another shard without leaving a dangling callback behind (the
  /// drain condition of the re-partitioning handoff protocol).
  bool Idle() const { return queue_.empty() && !store_->in_service(slot_); }

  /// Total queries performed (allocated to this provider) over the run.
  std::uint64_t performed_count() const { return window_.performed(); }

  // --- Core membership bookkeeping (set by the owning MediationCore) -------

  std::uint32_t core_slot() const { return store_->core_slot(slot_); }
  void set_core_slot(std::uint32_t slot) { store_->core_slot(slot_) = slot; }

  /// Resident bytes of this agent's view + chunked state (the per-agent
  /// share of bytes_per_provider; the store's columns are accounted once,
  /// store-side).
  std::size_t ResidentBytes() const;

 private:
  void StartNextService(des::Simulator& sim);
  /// WindowedSum::Add over the store columns + pooled event log — the exact
  /// arithmetic of common/stats.h's WindowedSum.
  void UtilAdd(SimTime t, double value);
  /// WindowedSum::SumAt: evicts expired events (bumping the utilization
  /// revision exactly when the sum changed shape) and returns the sum.
  double UtilSumAt(SimTime t);

  struct PendingQuery {
    Query query;
    CompletionFn on_completion;
  };
  struct UtilEvent {
    SimTime time;
    double value;
  };
  /// Self-hosted backing state of the standalone constructor.
  struct SelfStore {
    explicit SelfStore(const ProviderAgentConfig& c) : config(c) {
      store.Resize(1);
    }
    ProviderAgentConfig config;
    AgentStore store;
  };

  ProviderAgent(const ProviderProfile& profile,
                std::unique_ptr<SelfStore> self);

  ProviderProfile profile_;
  std::unique_ptr<SelfStore> self_;  // standalone mode only
  const ProviderAgentConfig* config_;
  AgentStore* store_;
  std::uint32_t slot_;
  mem::SlabPool* slabs_ = nullptr;  // null = heap chunks
  ProviderWindow window_;
  mem::ChunkedFifo<UtilEvent> util_events_;
  mem::ChunkedFifo<PendingQuery> queue_;
};

}  // namespace sqlb::runtime

#endif  // SQLB_RUNTIME_PROVIDER_AGENT_H_
