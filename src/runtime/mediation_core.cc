#include "runtime/mediation_core.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/math_util.h"
#include "common/status.h"
#include "model/characterization.h"

namespace sqlb::runtime {

MediationCore::MediationCore(const Shared& shared, AllocationMethod* method,
                             std::vector<std::uint32_t> member_providers)
    : shared_(shared),
      method_(method),
      active_providers_(std::move(member_providers)) {
  SQLB_CHECK(method_ != nullptr, "mediation core needs a method");
  SQLB_CHECK(shared_.config != nullptr && shared_.population != nullptr &&
                 shared_.providers != nullptr && shared_.consumers != nullptr &&
                 shared_.reputation != nullptr && shared_.result != nullptr &&
                 shared_.response_window != nullptr,
             "mediation core shared state is incomplete");
  cache_enabled_ = shared_.config->characterization_cache;
  utilization_window_width_ = shared_.config->provider.utilization_window;
  column_needs_ = method_->RequiredColumns();

  // Membership state — the chronic-utilization baselines and the
  // characterization cache — is member-slot indexed and member-sized: a
  // core over 1/M of a million-provider population carries O(members)
  // state, not O(population). Slots recycle through a freelist on
  // departure/export with their cache stamps reset, so a member imported
  // by a churn handoff always starts never-characterized.
  units_at_last_check_.reserve(active_providers_.size());
  member_since_.reserve(active_providers_.size());
  member_cache_.reserve(active_providers_.size());
  for (std::uint32_t index : active_providers_) {
    SQLB_CHECK(index < shared_.providers->size(),
               "member provider index out of range");
    ProviderAgent& agent = (*shared_.providers)[index];
    matchmaker_.Register(agent.id(), Capability{});
    AllocMemberSlot(index);
    if (shared_.arena != nullptr) agent.SetArena(shared_.arena);
  }

  // Pre-size the hot-path scratch to the member count: every candidate set
  // is a subset of the members, so no allocation loop ever regrows these.
  const std::size_t members = active_providers_.size();
  scratch_columns_.Reserve(members);
  scratch_provider_pref_.reserve(members);
  scratch_evaluators_.reserve(members);
  scratch_exact_.reserve(members);
  scratch_refusals_.reserve(members);
  scratch_selected_ci_.reserve(std::min<std::size_t>(
      members, shared_.config->query_n));
  scratch_selected_mask_.reserve(members);
  // In-flight responses track queries dispatched but not yet completed;
  // under the paper's near-capacity workloads that is a few queued queries
  // per member provider. Reserving a small multiple up front keeps the
  // pending map from rehashing during the measured region.
  pending_.reserve(members * 4 + 64);

  // Hoist the hot-path histogram references once: the record sites then pay
  // a null check instead of a map lookup per query.
  if (shared_.metrics != nullptr) {
    rt_histogram_ = &shared_.metrics->GetHistogram(obs::kMetricResponseTime);
    candidates_histogram_ =
        &shared_.metrics->GetHistogram(obs::kMetricMediationCandidates);
  }
}

std::uint32_t MediationCore::AllocMemberSlot(std::uint32_t provider_index) {
  std::uint32_t slot;
  if (!free_member_slots_.empty()) {
    slot = free_member_slots_.back();
    free_member_slots_.pop_back();
    units_at_last_check_[slot] = 0.0;
    member_since_[slot] = 0.0;
    member_cache_[slot] = MemberCharacterization{};
  } else {
    slot = static_cast<std::uint32_t>(member_cache_.size());
    units_at_last_check_.push_back(0.0);
    member_since_.push_back(0.0);
    member_cache_.emplace_back();
  }
  (*shared_.providers)[provider_index].set_core_slot(slot);
  return slot;
}

void MediationCore::FreeMemberSlot(std::uint32_t provider_index) {
  ProviderAgent& agent = (*shared_.providers)[provider_index];
  const std::uint32_t slot = agent.core_slot();
  SQLB_CHECK(slot < member_cache_.size(), "freeing a slotless member");
  free_member_slots_.push_back(slot);
  agent.set_core_slot(AgentStore::kNoCoreSlot);
}

const MediationCore::MemberCharacterization&
MediationCore::RefreshCharacterization(std::uint32_t provider_index,
                                       SimTime now) {
  ProviderAgent& agent = (*shared_.providers)[provider_index];
  MemberCharacterization& mc = member_cache_[agent.core_slot()];

  // Staleness per field, against the agent's event stamps. The decay check
  // (UtilizationWouldDecay) is the *exact* eviction predicate of the
  // agent's windowed sum, so the cached path evicts at precisely the call
  // sites the uncached path would — the floating-point add/evict sequence
  // inside the agent is identical either way, which is what makes cached
  // runs bit-identical to cache-disabled twins rather than merely close.
  const bool never = mc.load_revision == kNeverCharacterized;
  const bool ut_stale =
      !cache_enabled_ || never ||
      mc.utilization_revision != agent.utilization_revision() ||
      agent.UtilizationWouldDecay(now);
  const bool load_stale =
      !cache_enabled_ || never || mc.load_revision != agent.load_revision();
  const bool sat_stale = !cache_enabled_ || never ||
                         mc.satisfaction_revision !=
                             agent.satisfaction_revision();

  if (ut_stale) {
    mc.snap.utilization = agent.Utilization(now);
    // Read the stamp after the call: the eviction it performed bumped it.
    mc.utilization_revision = agent.utilization_revision();
    ++cache_stats_.utilization_refreshes;
  }
  if (load_stale) {
    mc.snap.id = agent.id();
    mc.snap.capacity = agent.capacity();
    mc.snap.backlog_seconds = agent.BacklogSeconds();
    mc.load_revision = agent.load_revision();
    ++cache_stats_.backlog_refreshes;
  }
  if (sat_stale) {
    mc.snap.satisfaction_intentions = agent.SatisfactionOnIntentions();
    mc.snap.satisfaction_preferences = agent.SatisfactionOnPreferences();
    mc.satisfaction_revision = agent.satisfaction_revision();
    ++cache_stats_.satisfaction_refreshes;
  }
  if (ut_stale || sat_stale) {
    // The Definition-8 state factors (two pows) depend on utilization and
    // preference-based satisfaction only; rebuild exactly when either
    // moved. Eval() then costs one pow per (query, candidate).
    mc.evaluator = ProviderIntentionEvaluator(
        mc.snap.utilization, mc.snap.satisfaction_preferences,
        shared_.config->provider.intention);
    ++cache_stats_.evaluator_rebuilds;
  }
  // Re-arm the coarse hit check: the refresh above consumed every pending
  // invalidation (including the eviction Utilization just performed).
  mc.char_revision = agent.characterization_revision();
  mc.decay_front_time = agent.UtilizationFrontEventTime();
  return mc;
}

void MediationCore::GatherCandidates(const Query& query,
                                     const std::vector<ProviderId>& pq,
                                     SimTime now, CandidateColumns* columns,
                                     std::vector<double>* prefs) {
  ConsumerAgent& consumer = (*shared_.consumers)[query.consumer.index()];
  std::vector<ProviderAgent>& providers = *shared_.providers;

  // Lines 2-5 of Algorithm 1: gather the consumer's and the providers'
  // intentions (synchronously here; the wall-clock serving tier —
  // runtime/serving_mediator.h — feeds this same pipeline from real-thread
  // intake queues and uses the DES as its replay oracle). The
  // query-independent provider state comes from the characterization cache;
  // only the per-(query, provider) terms — preferences, consumer intention,
  // the preference pow of Definition 8, the asking price — are computed
  // fresh, straight into the SoA columns the scoring kernels consume.
  const std::size_t n = pq.size();
  columns->ResizeRequired(n);
  prefs->resize(n);
  std::copy(pq.begin(), pq.end(), columns->ids.begin());
  double* const ci = columns->consumer_intention.data();
  double* const pi = columns->provider_intention.data();
  double* const sat = columns->provider_satisfaction.data();
  double* const pref = prefs->data();
  // Both preference draws, one tight loop each. The consumer's lands in the
  // consumer-intention column and turns into CI_q[p] in place below.
  shared_.population->ConsumerPreferences(query.consumer, pq.data(), n, ci);
  shared_.population->ProviderPreferences(pq.data(), n, query.id, pref);
  cache_stats_.lookups += n;
  const CandidateColumnNeeds& needs = column_needs_;
  // With upsilon = 1 preference-only consumer intentions (the paper's
  // setup) the registry read is dead weight per candidate; Get is pure, so
  // skipping it cannot change any value.
  const bool read_reputation = consumer.IntentionUsesReputation();
  // Definition 8 is deferred for provable full refusals: such a candidate
  // is never mutually willing, and its window unit is +0.0 either way.
  const bool defer_refusals = !needs.exact_refusals;
  // The refusal test is a coin flip per candidate, so the candidates are
  // partitioned without a branch, and Definition 8 runs in a second pass.
  scratch_evaluators_.resize(n);
  scratch_exact_.resize(n);
  scratch_refusals_.resize(n);
  std::size_t exact = 0;
  std::size_t refused = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const ProviderId pid = pq[c];
    const MemberCharacterization& mc = Characterize(pid.index(), now);
    // ApplyDecision's notify sweep writes this slot. Issued here, the 400
    // or so lines arrive long before that; a look-ahead there misses L2.
    providers[pid.index()].PrefetchProposalSlot();
    ci[c] = consumer.ComputeIntention(
        ci[c], read_reputation ? shared_.reputation->Get(pid) : 0.0);
    const bool refusal =
        defer_refusals & mc.evaluator.IsFullRefusal(pref[c]);
    scratch_evaluators_[c] = &mc.evaluator;
    scratch_exact_[exact] = c;
    exact += !refusal;
    scratch_refusals_[refused] = c;
    refused += refusal;
    pi[c] = -std::numeric_limits<double>::infinity();
    sat[c] = mc.snap.satisfaction_intentions;
    if (needs.utilization) {
      columns->utilization.push_back(mc.snap.utilization);
    }
    if (needs.capacity) {
      columns->capacity.push_back(mc.snap.capacity);
    }
    if (needs.backlog_seconds) {
      columns->backlog_seconds.push_back(mc.snap.backlog_seconds);
    }
    if (needs.bid_price) {
      columns->bid_price.push_back(
          providers[pid.index()].ComputeBidPrice(pref[c]));
    }
    if (needs.estimated_delay) {
      columns->estimated_delay.push_back(mc.snap.backlog_seconds +
                                         query.units / mc.snap.capacity);
    }
  }
  // Definition 8, listing the mutually-willing pairs on the way (ascending,
  // with a store and a conditional increment: willingness is a coin flip
  // too). A deferred refusal is never willing, so the list is complete.
  std::vector<std::uint32_t>& willing = columns->willing;
  willing.resize(exact);
  std::size_t n_willing = 0;
  for (std::size_t j = 0; j < exact; ++j) {
    const std::size_t c = scratch_exact_[j];
    pi[c] = scratch_evaluators_[c]->Eval(pref[c]);
    willing[n_willing] = static_cast<std::uint32_t>(c);
    n_willing += (pi[c] > 0.0) & (ci[c] > 0.0);
  }
  willing.resize(n_willing);
  // Too few willing pairs: the ranking reaches into the refusals, so they
  // get their exact values too.
  if (n_willing < SelectionCount(query, n)) {
    for (std::size_t j = 0; j < refused; ++j) {
      const std::size_t c = scratch_refusals_[j];
      pi[c] = scratch_evaluators_[c]->Eval(pref[c]);
    }
  }

  // Mediation cost proxy: Algorithm 1's per-query work is proportional to
  // the candidate count characterized + scored.
  if (candidates_histogram_ != nullptr) {
    candidates_histogram_->Record(static_cast<double>(pq.size()));
  }
  if (shared_.trace != nullptr && shared_.trace->SamplesQuery(query.id)) {
    shared_.trace->RecordInstant(obs::SpanKind::kGather, now, query.id,
                                 static_cast<double>(pq.size()));
  }
}

MediationCore::Outcome MediationCore::Allocate(
    des::Simulator& sim, const Query& query,
    double saturation_backlog_seconds) {
  std::vector<ProviderAgent>& providers = *shared_.providers;
  // AcceptAll's P_q is the member list itself — borrow it (no per-query
  // copy); nothing below mutates the matchmaker.
  const std::vector<ProviderId>& pq = matchmaker_.MatchAll();
  if (pq.empty()) {
    return Outcome::kNoCandidates;
  }

  // Saturation pre-check (sharded deployments only): when every candidate
  // drags more queued work than the bound, bounce the query back to the
  // router *before* any intention gathering so re-routing is side-effect
  // free. A mono-mediator has nowhere else to send the query and passes 0.
  if (saturation_backlog_seconds > 0.0) {
    double min_backlog = kSimTimeInfinity;
    for (ProviderId pid : pq) {
      min_backlog =
          std::min(min_backlog, providers[pid.index()].BacklogSeconds());
    }
    if (min_backlog > saturation_backlog_seconds) {
      return Outcome::kSaturated;
    }
  }

  ConsumerAgent& consumer = (*shared_.consumers)[query.consumer.index()];
  const SimTime now = sim.Now();

  GatherCandidates(query, pq, now, &scratch_columns_, &scratch_provider_pref_);

  // Lines 6-10: the method scores, ranks and selects (over the contiguous
  // columns); then the shared post-decision half notifies providers,
  // characterizes the consumer and dispatches.
  ColumnarRequest request;
  request.query = &query;
  request.consumer_satisfaction = consumer.Satisfaction();
  request.candidates = &scratch_columns_;
  const AllocationDecision decision = method_->AllocateColumns(request);
  return ApplyDecision(sim, query, scratch_columns_, scratch_provider_pref_,
                       decision);
}

MediationCore::Outcome MediationCore::ApplyDecision(
    des::Simulator& sim, const Query& query, const CandidateColumns& columns,
    const std::vector<double>& provider_prefs,
    const AllocationDecision& decision) {
  std::vector<ProviderAgent>& providers = *shared_.providers;
  ConsumerAgent& consumer = (*shared_.consumers)[query.consumer.index()];

  // A strict economic broker may select fewer (even zero) providers, but
  // never more than Algorithm 1's min(q.n, N).
  SQLB_CHECK(decision.selected.size() <= SelectionCount(query, columns.size()),
             "allocation produced more selections than min(q.n, N)");

  // Inform every provider of the mediation result (Section 5.4): selected
  // providers record a performed query; the rest record a proposal only.
  scratch_selected_mask_.assign(columns.size(), 0);
  for (std::size_t idx : decision.selected) {
    SQLB_CHECK(idx < scratch_selected_mask_.size(),
               "selection index out of range");
    SQLB_CHECK(!scratch_selected_mask_[idx],
               "provider selected twice for one query");
    scratch_selected_mask_[idx] = 1;
  }
  // The gather prefetched each window slot this sweep writes.
  for (std::size_t i = 0; i < columns.size(); ++i) {
    providers[columns.ids[i].index()].OnProposed(
        columns.provider_intention[i], provider_prefs[i],
        scratch_selected_mask_[i] != 0);
  }

  // Consumer characterization: Eq. 1 over P_q, Eq. 2 over the selection
  // (the consumer-intention column *is* the CI_q vector).
  const double adequation = QueryAdequation(columns.consumer_intention);
  scratch_selected_ci_.clear();
  for (std::size_t idx : decision.selected) {
    scratch_selected_ci_.push_back(columns.consumer_intention[idx]);
  }
  const double satisfaction =
      QuerySatisfaction(scratch_selected_ci_, query.n);
  consumer.OnAllocated(adequation, satisfaction);

  const bool traced =
      shared_.trace != nullptr && shared_.trace->SamplesQuery(query.id);
  if (traced) {
    shared_.trace->RecordInstant(obs::SpanKind::kScore, sim.Now(), query.id,
                                 static_cast<double>(columns.size()));
  }

  // Replay-oracle stream: the decision is final here (dispatch below never
  // changes it), so record it before either return path.
  if (shared_.decisions != nullptr) {
    DecisionLog::Record record;
    record.query = query.id;
    record.outcome = decision.selected.empty() ? Outcome::kUnallocated
                                               : Outcome::kAllocated;
    record.providers.reserve(decision.selected.size());
    for (std::size_t idx : decision.selected) {
      record.providers.push_back(columns.ids[idx].index());
    }
    shared_.decisions->Append(std::move(record));
  }

  if (decision.selected.empty()) {
    // Strict economic broker may leave a query untreated.
    return Outcome::kUnallocated;
  }

  if (traced) {
    shared_.trace->RecordInstant(obs::SpanKind::kAllocate, sim.Now(),
                                 query.id,
                                 static_cast<double>(decision.selected.size()));
  }

  // Dispatch to the selected providers; the consumer's response arrives
  // when the last of them completes. Completion callbacks carry the crash
  // epoch they were dispatched under: if this core crashes before they
  // fire, the stale callbacks drop themselves (the query was re-issued by
  // the failover path — counting the orphaned completion would break the
  // completed + infeasible + reissued == issued identity).
  pending_.emplace(query.id,
                   PendingResponse{query, sim.Now(),
                                   static_cast<std::uint32_t>(
                                       decision.selected.size())});
  ++allocated_queries_;
  for (std::size_t idx : decision.selected) {
    ProviderAgent& agent = providers[columns.ids[idx].index()];
    agent.Enqueue(sim, query,
                  [this, epoch = crash_epoch_](const Query& q,
                                               ProviderId performer,
                                               SimTime t) {
                    if (epoch != crash_epoch_) {
                      ++dropped_completions_;
                      return;
                    }
                    OnQueryCompleted(q, performer, t);
                  });
  }
  return Outcome::kAllocated;
}

void MediationCore::AllocateBatch(des::Simulator& sim,
                                  const std::vector<Query>& queries,
                                  double saturation_backlog_seconds,
                                  std::vector<Outcome>* outcomes) {
  outcomes->assign(queries.size(), Outcome::kNoCandidates);
  if (queries.empty()) return;

  // One matchmaking pass per burst, borrowed in place. The setup's
  // matchmakers are query-independent over a shard's active members
  // (AcceptAll), so the burst shares one P_q; with a term-index matchmaker
  // a burst would need per-class sub-bursts — the intake only coalesces
  // same-shard arrivals.
  const std::vector<ProviderId>& pq = matchmaker_.MatchAll();
  if (pq.empty()) return;  // every outcome stays kNoCandidates

  const SimTime now = sim.Now();

  // Characterize the burst's shared candidate set once at `now` (cache
  // revalidation; every query in the burst observes the same provider-side
  // state — queries within one burst do not see each other's allocations).
  // The cached backlog also feeds the burst-wide saturation pre-check,
  // which stays side-effect free: the router may replay the whole burst
  // elsewhere as if it never arrived here.
  double min_backlog = kSimTimeInfinity;
  for (ProviderId pid : pq) {
    min_backlog = std::min(
        min_backlog, Characterize(pid.index(), now).snap.backlog_seconds);
  }
  if (saturation_backlog_seconds > 0.0 &&
      min_backlog > saturation_backlog_seconds) {
    outcomes->assign(queries.size(), Outcome::kSaturated);
    return;
  }

  // Build every request of the burst against the shared characterization.
  // No provider state mutates until the post-decision loop below, so the
  // per-query gathers all hit the cache entries the pass above refreshed.
  if (batch_requests_.size() < queries.size()) {
    batch_columns_.resize(queries.size());
    batch_requests_.resize(queries.size());
    batch_provider_prefs_.resize(queries.size());
    batch_decisions_.resize(queries.size());
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Query& query = queries[q];
    ConsumerAgent& consumer = (*shared_.consumers)[query.consumer.index()];
    GatherCandidates(query, pq, now, &batch_columns_[q],
                     &batch_provider_prefs_[q]);
    batch_requests_[q].query = &query;
    batch_requests_[q].consumer_satisfaction = consumer.Satisfaction();
    batch_requests_[q].candidates = &batch_columns_[q];
  }

  // One scoring pass over the burst.
  method_->AllocateBatchColumns(batch_requests_.data(), queries.size(),
                                batch_decisions_.data());

  // Apply per query, in burst order (dispatch, windows, characterization —
  // identical to the tail of Allocate()).
  for (std::size_t q = 0; q < queries.size(); ++q) {
    (*outcomes)[q] =
        ApplyDecision(sim, queries[q], batch_columns_[q],
                      batch_provider_prefs_[q], batch_decisions_[q]);
  }
}

void MediationCore::OnQueryCompleted(const Query& query, ProviderId performer,
                                     SimTime completion_time) {
  if (shared_.config->reputation_feedback) {
    // Satisfaction-of-delivery signal: a response within twice the
    // performer's own service time is good, long queueing is bad (used by
    // the upsilon ablation and examples; the paper's upsilon = 1 setup
    // ignores reputation entirely).
    const double service =
        query.units / (*shared_.providers)[performer.index()].capacity();
    const double this_response = completion_time - query.issue_time;
    const double feedback =
        Clamp(1.0 - (this_response - service) / std::max(service, 1e-9),
              -1.0, 1.0);
    shared_.reputation->AddFeedback(performer, feedback);
  }

  auto it = pending_.find(query.id);
  SQLB_CHECK(it != pending_.end(), "completion for unknown query");
  if (--it->second.outstanding > 0) return;

  const double response_time = completion_time - it->second.query.issue_time;
  const SimTime dispatch_time = it->second.dispatch_time;
  pending_.erase(it);
  const bool post_warmup = query.issue_time >= shared_.config->stats_warmup;
  if (rt_histogram_ != nullptr && post_warmup) {
    // Same population as the headline `response_time` stat, recorded
    // lane-side (histogram merge is commutative, so per-lane recording
    // yields the identical merged histogram in every execution mode).
    rt_histogram_->Record(response_time);
  }
  if (shared_.trace != nullptr && shared_.trace->SamplesQuery(query.id)) {
    shared_.trace->Record(obs::SpanKind::kExecute, dispatch_time,
                          completion_time, query.id,
                          static_cast<double>(performer.index()));
    shared_.trace->RecordInstant(obs::SpanKind::kComplete, completion_time,
                                 query.id, response_time);
  }
  if (shared_.effects != nullptr) {
    // Epoch-parallel lane: cross-shard sinks are merged at the barrier.
    shared_.effects->RecordCompletion(completion_time, response_time,
                                      post_warmup);
  } else {
    RunResult& result = *shared_.result;
    ++result.queries_completed;
    result.response_time_all.Add(response_time);
    if (post_warmup) {
      result.response_time.Add(response_time);
    }
    shared_.response_window->Add(response_time);
  }

  ConsumerAgent& consumer = (*shared_.consumers)[query.consumer.index()];
  consumer.OnResult(response_time);
}

double MediationCore::MeanCommittedUtilization(SimTime now) const {
  if (active_providers_.empty()) return 0.0;
  double sum = 0.0;
  for (std::uint32_t index : active_providers_) {
    sum += (*shared_.providers)[index].CommittedUtilization(now);
  }
  return sum / static_cast<double>(active_providers_.size());
}

double MediationCore::MeanBacklogSeconds() const {
  if (active_providers_.empty()) return 0.0;
  double sum = 0.0;
  for (std::uint32_t index : active_providers_) {
    sum += (*shared_.providers)[index].BacklogSeconds();
  }
  return sum / static_cast<double>(active_providers_.size());
}

void MediationCore::RunProviderDepartureChecks(SimTime now,
                                               double optimal_ut) {
  std::vector<ProviderAgent>& providers = *shared_.providers;
  const DepartureConfig& dep = shared_.config->departures;

  // The paper's order — dissatisfaction, starvation, overutilization; first
  // matching cause wins. Both utilization rules are judged on the chronic
  // utilization — the average allocation rate over capacity since the
  // previous check (or since admission, for a member that joined
  // mid-span) — rather than the instantaneous 60-second window: a provider
  // missing one measurement window has not starved, and a provider riding a
  // short burst is not overutilized; a provider receiving 2.2x its capacity
  // for a whole assessment period is.
  if (dep.provider_dissatisfaction || dep.provider_starvation ||
      dep.provider_overutilization) {
    for (std::size_t i = 0; i < active_providers_.size();) {
      ProviderAgent& p = providers[active_providers_[i]];
      const std::uint32_t slot = p.core_slot();
      // Fresh joiners get the same grace the whole system gets at t = 0:
      // no judgement until their windows hold real evidence.
      if (now - member_since_[slot] < dep.grace_period) {
        ++i;
        continue;
      }
      const SimTime chronic_span =
          now - std::max(last_check_time_, member_since_[slot]);
      const double sat = p.SatisfactionOnPreferences();
      const double adq = p.AdequationOnPreferences();
      const double acute_ut = p.Utilization(now);
      const double chronic_ut =
          chronic_span > 0.0
              ? (p.total_allocated_units() - units_at_last_check_[slot]) /
                    (p.capacity() * chronic_span)
              : acute_ut;
      DepartureReason reason{};
      bool leaves = false;
      if (dep.provider_dissatisfaction &&
          sat < adq - dep.provider_dissat_margin) {
        reason = DepartureReason::kDissatisfaction;
        leaves = true;
      } else if (dep.provider_starvation &&
                 chronic_ut < dep.starvation_fraction * optimal_ut) {
        reason = DepartureReason::kStarvation;
        leaves = true;
      } else if (dep.provider_overutilization &&
                 (chronic_ut >
                      dep.overutilization_fraction * optimal_ut ||
                  p.BacklogSeconds() >
                      dep.overutilization_backlog_patience)) {
        reason = DepartureReason::kOverutilization;
        leaves = true;
      }
      if (leaves) {
        DepartProvider(i, reason, now);  // swap-removes: do not advance i
      } else {
        ++i;
      }
    }
  }
  for (std::uint32_t index : active_providers_) {
    units_at_last_check_[providers[index].core_slot()] =
        providers[index].total_allocated_units();
  }
  last_check_time_ = now;
}

void MediationCore::DepartProvider(std::size_t index, DepartureReason reason,
                                   SimTime now) {
  const std::uint32_t provider_index = active_providers_[index];
  ProviderAgent& agent = (*shared_.providers)[provider_index];
  agent.Depart();
  matchmaker_.Unregister(agent.id());

  DepartureEvent event;
  event.time = now;
  event.is_provider = true;
  event.reason = reason;
  event.participant_index = provider_index;
  event.capacity_class = agent.profile().capacity_class;
  event.interest_class = agent.profile().interest_class;
  event.adaptation_class = agent.profile().adaptation_class;
  shared_.result->departures.push_back(event);
  shared_.result->tally.Add(event);

  FreeMemberSlot(provider_index);
  active_providers_[index] = active_providers_.back();
  active_providers_.pop_back();
}

void MediationCore::AdmitMember(std::uint32_t provider_index, SimTime now) {
  SQLB_CHECK(provider_index < shared_.providers->size(),
             "admitted provider index out of range");
  SQLB_CHECK(!IsMember(provider_index), "provider is already a member here");
  ProviderAgent& agent = (*shared_.providers)[provider_index];
  agent.Rejoin();
  matchmaker_.Register(agent.id(), Capability{});
  active_providers_.push_back(provider_index);
  const std::uint32_t slot = AllocMemberSlot(provider_index);
  if (shared_.arena != nullptr) agent.SetArena(shared_.arena);
  // The chronic-utilization clock starts at admission: whatever the agent
  // allocated in a previous life does not count against this membership.
  units_at_last_check_[slot] = agent.total_allocated_units();
  member_since_[slot] = now;
}

void MediationCore::SealMember(std::uint32_t provider_index) {
  SQLB_CHECK(IsMember(provider_index), "sealing a non-member");
  matchmaker_.Unregister((*shared_.providers)[provider_index].id());
}

void MediationCore::UnsealMember(std::uint32_t provider_index) {
  SQLB_CHECK(IsMember(provider_index), "unsealing a non-member");
  matchmaker_.Register((*shared_.providers)[provider_index].id(),
                       Capability{});
}

MediationCore::ProviderHandoff MediationCore::ExportMember(
    std::uint32_t provider_index) {
  ProviderAgent& agent = (*shared_.providers)[provider_index];
  SQLB_CHECK(agent.Idle(),
             "exporting a provider with in-flight work would leave its "
             "completion events behind");
  auto it = std::find(active_providers_.begin(), active_providers_.end(),
                      provider_index);
  SQLB_CHECK(it != active_providers_.end(), "exporting a non-member");
  *it = active_providers_.back();
  active_providers_.pop_back();
  matchmaker_.Unregister(agent.id());

  ProviderHandoff handoff;
  handoff.provider_index = provider_index;
  handoff.units_at_last_check = units_at_last_check_[agent.core_slot()];
  handoff.member_since = member_since_[agent.core_slot()];
  FreeMemberSlot(provider_index);
  return handoff;
}

void MediationCore::ImportMember(const ProviderHandoff& handoff) {
  SQLB_CHECK(handoff.provider_index < shared_.providers->size(),
             "imported provider index out of range");
  SQLB_CHECK(!IsMember(handoff.provider_index),
             "imported provider is already a member here");
  ProviderAgent& agent = (*shared_.providers)[handoff.provider_index];
  matchmaker_.Register(agent.id(), Capability{});
  active_providers_.push_back(handoff.provider_index);
  const std::uint32_t slot = AllocMemberSlot(handoff.provider_index);
  // Re-home the import on this core's arena: new chunks come from here,
  // chunks carried across the handoff drain back to their origin pool.
  if (shared_.arena != nullptr) agent.SetArena(shared_.arena);
  units_at_last_check_[slot] = handoff.units_at_last_check;
  member_since_[slot] = handoff.member_since;
}

bool MediationCore::DepartMemberForChurn(std::uint32_t provider_index,
                                         SimTime now) {
  auto it = std::find(active_providers_.begin(), active_providers_.end(),
                      provider_index);
  if (it == active_providers_.end()) return false;
  DepartProvider(static_cast<std::size_t>(it - active_providers_.begin()),
                 DepartureReason::kChurn, now);
  return true;
}

bool MediationCore::IsMember(std::uint32_t provider_index) const {
  return std::find(active_providers_.begin(), active_providers_.end(),
                   provider_index) != active_providers_.end();
}

MediationCore::CoreSnapshot MediationCore::ExportSnapshot(SimTime now) const {
  CoreSnapshot snapshot;
  snapshot.taken_at = now;
  // Members sorted by provider index so the snapshot (and any restore
  // order derived from it) is independent of the swap-remove history of
  // the active list.
  std::vector<std::uint32_t> sorted(active_providers_);
  std::sort(sorted.begin(), sorted.end());
  snapshot.members.reserve(sorted.size());
  for (std::uint32_t index : sorted) {
    ProviderHandoff handoff;
    handoff.provider_index = index;
    handoff.units_at_last_check = units_at_last_check_[MemberSlot(index)];
    handoff.member_since = member_since_[MemberSlot(index)];
    snapshot.members.push_back(handoff);
  }
  snapshot.pending_count = pending_.size();
  std::vector<QueryId> ids;
  ids.reserve(pending_.size());
  for (const auto& entry : pending_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
  for (QueryId id : ids) {
    digest ^= static_cast<std::uint64_t>(id);
    digest *= 1099511628211ULL;
  }
  snapshot.pending_digest = digest;
  return snapshot;
}

MediationCore::CrashReport MediationCore::Crash() {
  CrashReport report;
  report.members.assign(active_providers_.begin(), active_providers_.end());
  std::sort(report.members.begin(), report.members.end());
  report.lost_queries.reserve(pending_.size());
  for (const auto& entry : pending_) {
    report.lost_queries.push_back(entry.second.query);
  }
  std::sort(report.lost_queries.begin(), report.lost_queries.end(),
            [](const Query& a, const Query& b) { return a.id < b.id; });

  // Tear down the mediator-owned state. Provider agents are participants,
  // not mediator state: they stay active, keep draining their queues on
  // the dead lane, and will be adopted once Idle(). Their already-scheduled
  // completion callbacks see the bumped epoch and drop themselves.
  for (std::uint32_t index : active_providers_) {
    matchmaker_.Unregister((*shared_.providers)[index].id());
    FreeMemberSlot(index);
  }
  active_providers_.clear();
  pending_.clear();
  ++crash_epoch_;
  return report;
}

std::size_t MediationCore::RestoreSnapshot(const CoreSnapshot& snapshot) {
  SQLB_CHECK(active_providers_.empty(),
             "restoring a snapshot over live membership");
  std::size_t restored = 0;
  for (const ProviderHandoff& handoff : snapshot.members) {
    // A member that departed (Section 6.3.2 or scheduled churn) between the
    // snapshot and the crash stays departed: restoring membership must not
    // resurrect an agent that exercised its autonomy.
    if (!(*shared_.providers)[handoff.provider_index].active()) continue;
    ImportMember(handoff);
    ++restored;
  }
  return restored;
}

double ScaledArrivalRate(const SystemConfig& config,
                         const Population& population,
                         std::size_t active_consumers,
                         std::size_t initial_consumers, SimTime t) {
  const double fraction = config.workload.FractionAt(t, config.duration);
  const double nominal = fraction * population.total_capacity() /
                         population.mean_query_units();
  const double consumer_share = static_cast<double>(active_consumers) /
                                static_cast<double>(initial_consumers);
  return nominal * consumer_share;
}

double NominalMaxArrivalRate(const SystemConfig& config,
                             const Population& population) {
  return config.workload.MaxFraction() * population.total_capacity() /
         population.mean_query_units();
}

Query DrawArrivalQuery(const SystemConfig& config,
                       const Population& population,
                       const std::vector<std::uint32_t>& active_consumers,
                       Rng& consumer_pick_rng, Rng& query_class_rng,
                       QueryId id, SimTime now) {
  SQLB_CHECK(!active_consumers.empty(), "no consumer left to draw from");
  const std::uint32_t consumer_index =
      active_consumers[static_cast<std::size_t>(
          consumer_pick_rng.NextBounded(active_consumers.size()))];

  Query query;
  query.id = id;
  query.consumer = ConsumerId(consumer_index);
  query.n = config.query_n;
  query.class_index = static_cast<std::uint32_t>(
      query_class_rng.NextBounded(population.num_query_classes()));
  query.units = population.QueryUnits(query.class_index);
  query.issue_time = now;
  return query;
}

void RunConsumerDepartureChecks(const DepartureConfig& departures,
                                std::vector<ConsumerAgent>& consumers,
                                std::vector<std::uint32_t>& active_consumers,
                                std::vector<std::uint32_t>& violations,
                                SimTime now, RunResult* result) {
  if (!departures.consumers_may_leave) return;
  if (violations.empty()) {
    violations.assign(consumers.size(), 0);
  }
  for (std::size_t i = 0; i < active_consumers.size();) {
    const std::uint32_t index = active_consumers[i];
    ConsumerAgent& c = consumers[index];
    if (c.Satisfaction() < c.Adequation() - departures.consumer_dissat_margin) {
      ++violations[index];
    } else {
      violations[index] = 0;
    }
    if (violations[index] >=
        std::max<std::uint32_t>(1, departures.consumer_hysteresis_checks)) {
      c.Depart();

      DepartureEvent event;
      event.time = now;
      event.is_provider = false;
      event.reason = DepartureReason::kDissatisfaction;
      event.participant_index = index;
      result->departures.push_back(event);
      result->tally.Add(event);

      active_consumers[i] = active_consumers.back();
      active_consumers.pop_back();
    } else {
      ++i;
    }
  }
}

bool DecisionLog::IdenticalTo(const DecisionLog& other,
                              std::string* diff) const {
  auto mismatch = [diff](std::size_t i, const std::string& what) {
    if (diff != nullptr) {
      *diff = "decision " + std::to_string(i) + ": " + what;
    }
    return false;
  };
  if (records_.size() != other.records_.size()) {
    return mismatch(std::min(records_.size(), other.records_.size()),
                    "log sizes differ (" + std::to_string(records_.size()) +
                        " vs " + std::to_string(other.records_.size()) + ")");
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& a = records_[i];
    const Record& b = other.records_[i];
    if (a.query != b.query) {
      return mismatch(i, "query id " + std::to_string(a.query) + " vs " +
                             std::to_string(b.query));
    }
    if (a.outcome != b.outcome) {
      return mismatch(i, "outcome " +
                             std::to_string(static_cast<int>(a.outcome)) +
                             " vs " +
                             std::to_string(static_cast<int>(b.outcome)) +
                             " for query " + std::to_string(a.query));
    }
    if (a.providers != b.providers) {
      return mismatch(i, "provider selection differs for query " +
                             std::to_string(a.query));
    }
  }
  return true;
}

}  // namespace sqlb::runtime
