#ifndef SQLB_CORE_SCORING_H_
#define SQLB_CORE_SCORING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// Scoring and ranking of providers (Section 5.3).
///
/// The score of a provider for a query balances the provider's intention to
/// perform it against the consumer's intention to allocate it there
/// (Definition 9). The balance weight omega is derived from the two sides'
/// mediator-visible satisfactions (Eq. 6): the less satisfied side gets the
/// larger say, which is what lets SQLB trade consumers' intentions for
/// providers' intentions "in according to their satisfaction".

namespace sqlb {

/// Eq. 6 — omega = ((sat_consumer - sat_provider) + 1) / 2, in [0, 1].
/// omega = 1 weighs only the provider's intention; omega = 0 only the
/// consumer's. Inputs are satisfactions in [0, 1] (clamped).
double OmegaBalance(double consumer_satisfaction,
                    double provider_satisfaction);

/// Definition 9 — the score of provider p for query q given the provider's
/// intention PI_q[p], the consumer's intention CI_q[p], and the balance
/// omega. epsilon > 0 keeps the negative branch away from zero. Intentions
/// may exceed [-1, 1] on the negative side (see core/intention.h); larger
/// scores are better.
double ProviderScore(double provider_intention, double consumer_intention,
                     double omega, double epsilon = 1.0);

/// Lines 6-10 of Algorithm 1 over struct-of-arrays columns: Definition 9
/// with omega_i from Eq. 6 over (consumer_satisfaction,
/// provider_satisfaction[i]), or `*fixed_omega` for all i when non-null,
/// and the best min(k, count) indices into `top` in SelectTopN's order
/// (higher score, then lower index).
///
/// A first sweep ranks only the mutually-willing pairs (provider and
/// consumer intention both > 0), keeping the running best k: those listed
/// in `willing`, ascending (CandidateColumns::willing). Every other score
/// is negative, so a second sweep over the rest, compacted into
/// `*index_scratch`, runs only when fewer than k pairs are willing. Once
/// the running best holds k,
/// a candidate is scored only when a pow-free upper bound on its score
/// reaches the k-th best exact score: on the positive branch the weighted
/// arithmetic mean (widened by 2^-40), then w ln pi + (1 - w) ln ci from
/// LnLowerBound (widened by 2^-16); on the negative one minus the smaller
/// base, then the same log bound over the bases 1 - pi + epsilon and
/// 1 - ci + epsilon against a negative k-th best. `scores[i]` is
/// ProviderScore bit for bit for each scored candidate and -infinity for
/// each skipped one.
///
/// The bounds hold for finite intentions <= 1, as Definitions 7-8 produce.
/// When at least k pairs are mutually willing, no other candidate's
/// intentions are read, so a provider intention may then be -infinity for
/// a refusing provider (CandidateColumnNeeds::exact_refusals). O(count * k)
/// worst case; Algorithm 1's q.n is small.
void SqlbRankColumns(const double* provider_intention,
                     const double* consumer_intention,
                     const double* provider_satisfaction, std::size_t count,
                     double consumer_satisfaction, double epsilon,
                     const double* fixed_omega, std::size_t k,
                     const std::vector<std::uint32_t>& willing,
                     std::vector<std::uint32_t>* index_scratch,
                     std::vector<double>* scores,
                     std::vector<std::size_t>* top);

/// How far LnLowerBound may fall short of ln x.
inline constexpr double kLnLowerBoundSlack = 1.3e-5;

/// A pow-free lower bound on ln x for positive finite x (subnormals
/// included): LnLowerBound(x) <= ln x <= LnLowerBound(x) +
/// kLnLowerBoundSlack. The ranking kernel's log-domain score bound.
double LnLowerBound(double x);

/// Ranks candidate indices by descending score; ties broken by original
/// index (deterministic). Returns the permutation (the R_q vector of
/// Section 5.3: element 0 is the best-scored provider).
std::vector<std::size_t> RankByScore(const std::vector<double>& scores);

/// Returns the first min(n, scores.size()) entries of RankByScore: the
/// providers Algorithm 1 selects. Uses a partial sort; O(N log n).
std::vector<std::size_t> SelectTopN(const std::vector<double>& scores,
                                    std::size_t n);

}  // namespace sqlb

#endif  // SQLB_CORE_SCORING_H_
