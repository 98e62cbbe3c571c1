#ifndef SQLB_CORE_SQLB_METHOD_H_
#define SQLB_CORE_SQLB_METHOD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/allocation.h"

/// \file
/// The SQLB allocation method: the scoring/ranking/selection part of
/// Algorithm 1 (Section 5.4). Intention gathering (lines 2-5 of the
/// algorithm) is the mediator's job — runtime/mediation_core.h runs it
/// synchronously for both the DES drivers and the wall-clock serving tier
/// (runtime/serving_mediator.h) — so this class receives intentions already
/// collected in the AllocationRequest.

namespace sqlb {

struct SqlbOptions {
  /// epsilon of Definition 9.
  double epsilon = 1.0;
  /// When set, overrides Eq. 6 with a fixed omega in [0, 1] (Section 5.3
  /// notes one can pin omega for cooperative settings, e.g. omega = 0 to
  /// rank purely by consumer intentions). Used by the omega ablation.
  std::optional<double> fixed_omega;
};

/// Satisfaction-based Query Load Balancing.
class SqlbMethod final : public AllocationMethod {
 public:
  explicit SqlbMethod(SqlbOptions options = {});

  std::string name() const override { return "SQLB"; }

  /// Lines 6-10 of Algorithm 1 over the AoS view: copies the candidates
  /// into columns and decides through AllocateColumns, so both entry points
  /// are one path.
  AllocationDecision Allocate(const AllocationRequest& request) override;

  /// Lines 6-10 of Algorithm 1: per provider, omega from the consumer's and
  /// provider's satisfaction (Eq. 6), score from the two intentions
  /// (Definition 9), keeping the q.n best (SqlbRankColumns). A candidate
  /// whose score bound proves it cannot be selected is never scored:
  /// `scores` holds -infinity for it.
  AllocationDecision AllocateColumns(const ColumnarRequest& request) override;

  /// Definition 9 for every candidate, in candidate order — the full
  /// ranking values, for methods that rank beyond the q.n best (KnBest's
  /// shortlist, SQLB-Economic's price re-rank).
  std::vector<double> Scores(const AllocationRequest& request) const;

  /// Definition 9 reads intentions and satisfactions only — none of the
  /// load/economy columns need to be materialized for SQLB — and the
  /// ranking never reads a refusing provider's intention while k pairs are
  /// mutually willing.
  CandidateColumnNeeds RequiredColumns() const override {
    CandidateColumnNeeds needs = CandidateColumnNeeds::None();
    needs.exact_refusals = false;
    return needs;
  }

  const SqlbOptions& options() const { return options_; }

 private:
  SqlbOptions options_;
  /// Allocate's columnar copy of the request (reused across calls).
  CandidateColumns columns_;
  /// The ranking kernel's candidate-index scratch (reused across calls).
  std::vector<std::uint32_t> index_scratch_;
};

}  // namespace sqlb

#endif  // SQLB_CORE_SQLB_METHOD_H_
