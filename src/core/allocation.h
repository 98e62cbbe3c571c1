#ifndef SQLB_CORE_ALLOCATION_H_
#define SQLB_CORE_ALLOCATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "model/query.h"

/// \file
/// The allocation-method interface the mediator dispatches to. A method
/// receives, per query, the candidate set P_q with everything a mediator can
/// legitimately observe — shown intentions, utilization-related state the
/// providers chose to expose, economic bids — and returns the ordered
/// selection of min(q.n, N) providers (the All_oc vector of Section 2).
///
/// SQLB (core/sqlb_method.h), the baselines and the extensions
/// (methods/*.h) all implement this interface, which is what lets the
/// experiment harness swap them while keeping everything else identical
/// ("the only thing that changes is the way in which each method allocates
/// the queries", Section 6.1).

namespace sqlb {

/// Mediator-visible snapshot of one candidate provider for one query.
struct CandidateProvider {
  ProviderId id;
  /// CI_q[p] — the consumer's shown intention for allocating q to p.
  double consumer_intention = 0.0;
  /// PI_q[p] — p's shown intention for performing q.
  double provider_intention = 0.0;
  /// p's mediator-visible (intention-based) satisfaction, for Eq. 6.
  double provider_satisfaction = 0.5;
  /// Ut(p) — p's current utilization (allocated work rate / capacity).
  double utilization = 0.0;
  /// p's processing capacity in treatment units per second.
  double capacity = 1.0;
  /// Seconds of work currently queued at p (backlog / capacity).
  double backlog_seconds = 0.0;
  /// Mariposa-style asking price for this query (methods/mariposa.h).
  double bid_price = 0.0;
  /// p's estimate of the delay before q would complete, in seconds.
  double estimated_delay = 0.0;
};

/// One allocation request: the query plus its candidate set P_q.
struct AllocationRequest {
  const Query* query = nullptr;
  /// The issuing consumer's mediator-visible satisfaction, for Eq. 6.
  double consumer_satisfaction = 0.5;
  std::vector<CandidateProvider> candidates;
};

/// Struct-of-arrays form of a candidate set: one contiguous column per
/// CandidateProvider field, aligned by candidate index. This is the layout
/// the mediation hot path fills (from the event-driven characterization
/// cache) and the scoring kernels consume — ProviderScore/SelectTopN walk
/// contiguous doubles instead of striding over 72-byte structs. The AoS
/// CandidateProvider remains the compatibility view: At(i) gathers one, and
/// AllocationMethod's default columnar entry points materialize a full AoS
/// request for methods that have no columnar override.
struct CandidateColumns {
  std::vector<ProviderId> ids;
  std::vector<double> consumer_intention;
  /// PI_q[p], exact unless the method dropped
  /// CandidateColumnNeeds::exact_refusals: then a provable full refusal
  /// (Definition 8 <= -1) may hold -infinity instead.
  std::vector<double> provider_intention;
  std::vector<double> provider_satisfaction;
  std::vector<double> utilization;
  std::vector<double> capacity;
  std::vector<double> backlog_seconds;
  std::vector<double> bid_price;
  std::vector<double> estimated_delay;
  /// The indices of the mutually-willing pairs (provider and consumer
  /// intention both > 0), ascending: Push appends each one, and the
  /// mediation gather lists them during its Definition-8 pass.
  std::vector<std::uint32_t> willing;

  std::size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }
  void Clear();
  /// Sizes the four always-filled columns (ids, both intentions, provider
  /// satisfaction) to `n`, to be written by index with their old values
  /// left in place, and empties the optional columns and the willing list:
  /// the mediation gather's reset, which pays no fill for the n slots.
  void ResizeRequired(std::size_t n);
  void Reserve(std::size_t n);
  /// Appends one candidate across every column, and its index to `willing`
  /// when the pair is mutually willing.
  void Push(const CandidateProvider& candidate);
  /// Gathers candidate `i` back into the AoS view.
  CandidateProvider At(std::size_t i) const;
};

/// One allocation request over the columnar candidate layout. `candidates`
/// is borrowed and must outlive the call.
struct ColumnarRequest {
  const Query* query = nullptr;
  double consumer_satisfaction = 0.5;
  const CandidateColumns* candidates = nullptr;
};

/// Which optional candidate columns a method actually reads. The gather
/// loop materializes only these; ids, consumer_intention,
/// provider_intention and provider_satisfaction are always filled (the
/// Algorithm-1 core consumes them for scoring and the post-decision half).
/// The default (everything) is what the AoS compatibility adapter needs.
struct CandidateColumnNeeds {
  bool utilization = true;
  bool capacity = true;
  bool backlog_seconds = true;
  bool bid_price = true;
  bool estimated_delay = true;
  /// When false, the gather may skip Definition 8 for a candidate whose
  /// provider intention is provably <= -1
  /// (ProviderIntentionEvaluator::IsFullRefusal) and store -infinity
  /// instead, as long as at least k = min(q.n, N) candidates are mutually
  /// willing (provider and consumer intention both > 0); with fewer, every
  /// intention is exact. The placeholder maps to the same window unit,
  /// +0.0, as the exact value, so only a method that never reads a
  /// refusing candidate's intention while k willing pairs exist (SQLB's
  /// SqlbRankColumns) may drop it.
  bool exact_refusals = true;

  static CandidateColumnNeeds All() { return {}; }
  static CandidateColumnNeeds None() {
    return {false, false, false, false, false};
  }
};

/// The outcome: `selected` holds indices into request.candidates, best
/// first, with size min(q.n, N). `scores` (aligned with candidates) records
/// each method's internal ranking value for diagnostics and tests; methods
/// for which "higher is better" does not apply (e.g. bid prices) negate. A
/// method may leave -infinity for a candidate it proved cannot be selected
/// without scoring it (SQLB does); selected candidates always carry their
/// real score.
struct AllocationDecision {
  std::vector<std::size_t> selected;
  std::vector<double> scores;
};

/// Strategy interface. Implementations must be deterministic given the
/// request (any randomness must come through injected state), so that
/// experiment runs are reproducible.
class AllocationMethod {
 public:
  virtual ~AllocationMethod() = default;

  /// Stable identifier used in reports ("SQLB", "CapacityBased", ...).
  virtual std::string name() const = 0;

  /// Picks min(q.n, candidates.size()) providers. `request.candidates` is
  /// never empty (the system only admits feasible queries, Section 2).
  virtual AllocationDecision Allocate(const AllocationRequest& request) = 0;

  /// Scores one burst of requests in a single pass: the batched-intake hot
  /// path (MediationCore::AllocateBatch) hands every same-burst request at
  /// once so a method can hoist per-burst work (shared candidate set,
  /// provider-side rank components) out of the per-query loop. The default
  /// simply delegates to Allocate per request, so overriding is an
  /// optimization, never a semantic requirement; `decisions` has room for
  /// `count` results. A burst of one must decide exactly like Allocate —
  /// that bit-for-bit contract is pinned in tests/shard/.
  virtual void AllocateBatch(const AllocationRequest* requests,
                             std::size_t count, AllocationDecision* decisions);

  /// Columnar entry point of the mediation hot path. The default
  /// materializes an AoS AllocationRequest from the columns (into a member
  /// scratch, reused across calls) and delegates to Allocate, so every
  /// method keeps working unchanged; methods with a dedicated SoA kernel
  /// (SQLB, capacity-based, Mariposa) override this and never touch the AoS
  /// form. Must decide bit-for-bit like Allocate over the gathered AoS
  /// request — the contract tests/core/allocation_contract_test.cc pins for
  /// every method.
  virtual AllocationDecision AllocateColumns(const ColumnarRequest& request);

  /// Columnar burst scoring; default loops AllocateColumns per request.
  virtual void AllocateBatchColumns(const ColumnarRequest* requests,
                                    std::size_t count,
                                    AllocationDecision* decisions);

  /// The optional columns this method's scoring reads. The mediation
  /// gather skips the rest — a method overriding AllocateColumns should
  /// override this too, or it pays for columns it never touches. Must be
  /// stable over the method's lifetime (the core reads it once).
  virtual CandidateColumnNeeds RequiredColumns() const {
    return CandidateColumnNeeds::All();
  }

 protected:
  /// Scratch for the default AllocateColumns AoS materialization (methods
  /// are single-threaded per shard; reusing it keeps the compatibility path
  /// allocation-free after warm-up).
  AllocationRequest aos_scratch_;
};

/// Number of providers Algorithm 1 must select for `request`.
std::size_t SelectionCount(const AllocationRequest& request);
/// Same rule — min(q.n, n_candidates) — for the columnar path.
std::size_t SelectionCount(const Query& query, std::size_t n_candidates);

}  // namespace sqlb

#endif  // SQLB_CORE_ALLOCATION_H_
