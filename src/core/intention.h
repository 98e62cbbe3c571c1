#ifndef SQLB_CORE_INTENTION_H_
#define SQLB_CORE_INTENTION_H_

#include "common/math_util.h"

/// \file
/// The SQLB intention functions (Section 5.1-5.2).
///
/// A consumer's intention to allocate a query to a provider trades its
/// private preference against the provider's reputation (Definition 7,
/// balanced by upsilon). A provider's intention to perform a query trades
/// its private preference against its utilization (Definition 8), balanced
/// *on the fly* by the provider's own preference-based satisfaction: a
/// satisfied provider tolerates undesired queries; a dissatisfied one
/// focuses on its preferences.
///
/// Outputs are positive when the participant wants the interaction and
/// negative otherwise. With the paper's epsilon = 1 the negative branches
/// can exceed the nominal [-1, 1] range (Figure 2 plots values down to
/// -2.5); raw values are used for ranking, and are clamped only when they
/// enter the satisfaction model (DESIGN.md fidelity decision 2).

namespace sqlb {

/// How a consumer derives intentions from preference and reputation.
enum class ConsumerIntentionMode {
  /// Definition 7 as written.
  kFormula,
  /// The paper's simulation setup (Section 6.1, upsilon = 1): the intention
  /// *is* the preference. Definition 7's negative branch with upsilon = 1
  /// would still distort negative preferences, so the setup's stated intent
  /// ("the consumers' intentions denote their preferences") gets its own
  /// mode (DESIGN.md fidelity decision 3).
  kPreferenceOnly,
};

struct ConsumerIntentionParams {
  /// Balance between own preference (1) and provider reputation (0).
  /// A consumer with rich direct experience of a provider sets
  /// upsilon > 0.5; one relying on hearsay sets upsilon < 0.5.
  double upsilon = 1.0;
  /// Keeps the negative branch away from zero when preference or reputation
  /// saturate at 1. The paper "usually" sets 1.
  double epsilon = 1.0;
  ConsumerIntentionMode mode = ConsumerIntentionMode::kFormula;
};

/// Definition 7. `preference` = prf_c(q, p) in [-1, 1]; `reputation` =
/// rep(p) in [-1, 1]. Inputs outside their domains are clamped.
double ConsumerIntention(double preference, double reputation,
                         const ConsumerIntentionParams& params);

/// How a provider derives intentions (the non-default modes exist for the
/// ablation study; the paper's SQLB uses kSelfBalancing).
enum class ProviderIntentionMode {
  /// Definition 8 as written: satisfaction-driven preference/utilization
  /// tradeoff.
  kSelfBalancing,
  /// Ablation: intention = preference, utilization ignored.
  kPreferenceOnly,
  /// Ablation: intention = 1 - 2 * min(utilization, 1), preference ignored
  /// (wants work when idle, refuses when saturated).
  kUtilizationOnly,
};

struct ProviderIntentionParams {
  /// Same role as in Definition 7; the paper "usually" sets 1.
  double epsilon = 1.0;
  ProviderIntentionMode mode = ProviderIntentionMode::kSelfBalancing;
};

/// Definition 8. `preference` = prf_p(q) in [-1, 1]; `utilization` =
/// Ut(p) >= 0 (may exceed 1 under overload); `preference_satisfaction` is
/// the provider's *private, preference-based* satisfaction in [0, 1]
/// (Section 5.2 requires the self-balance to use preferences, not shown
/// intentions). Inputs outside their domains are clamped.
double ProviderIntention(double preference, double utilization,
                         double preference_satisfaction,
                         const ProviderIntentionParams& params);

/// Definition 8 with the provider-state factors hoisted: utilization and
/// satisfaction are fixed at construction and only the per-query preference
/// varies. Both branch factors that depend on state alone — (1 - ut)^sat
/// and (ut + eps)^sat — are precomputed, so Eval() costs one pow instead of
/// two. Built once per burst per candidate by the batched intake
/// (MediationCore::AllocateBatch); Eval(prf) returns bit-for-bit the value
/// of ProviderIntention(prf, ut, sat, params) — pow is deterministic, and
/// the factor multiplication order is preserved.
class ProviderIntentionEvaluator {
 public:
  /// An empty evaluator (default params, idle provider) so cache tables can
  /// be pre-sized; always overwritten by a real refresh before Eval runs.
  ProviderIntentionEvaluator() = default;
  ProviderIntentionEvaluator(double utilization,
                             double preference_satisfaction,
                             const ProviderIntentionParams& params);

  double Eval(double preference) const;

  /// True when Eval(preference) provably lies at or below -1 without
  /// evaluating it: a kSelfBalancing negative-branch preference whose two
  /// bases, 1 - prf + eps and ut + eps, are both >= 1. A faithfully
  /// rounded pow of a base >= 1 to an exponent in [0, 1] is >= 1, and so
  /// is the rounded product, so IntentionToUnit(Eval(preference)) is +0.0
  /// exactly — the unit a -infinity placeholder also maps to. Under the
  /// paper's eps = 1 every negative-branch intention is one. Bitwise `&`
  /// keeps the test free of branches, which would mispredict per candidate.
  bool IsFullRefusal(double preference) const {
    const double prf = Clamp(preference, -1.0, 1.0);
    return (mode_ == ProviderIntentionMode::kSelfBalancing) &
           !((prf > 0.0) & (utilization_ < 1.0)) &
           (1.0 - prf + epsilon_ >= 1.0) & (utilization_ + epsilon_ >= 1.0);
  }

 private:
  ProviderIntentionMode mode_ = ProviderIntentionMode::kSelfBalancing;
  double epsilon_ = 1.0;
  double clamped_sat_ = 0.5;    // Clamp(sat, 0, 1)
  double one_minus_sat_ = 0.5;  // exponent of the preference factor
  double utilization_ = 0.0;    // max(0, ut)
  double positive_state_factor_ = 1.0;  // (1 - ut)^sat, valid when ut < 1
  double negative_state_factor_ = 1.0;  // (ut + eps)^sat
  double utilization_only_value_ = 0.0;
};

}  // namespace sqlb

#endif  // SQLB_CORE_INTENTION_H_
