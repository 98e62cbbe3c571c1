#include "core/scoring.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>

#include "common/math_util.h"
#include "common/status.h"

namespace sqlb {

double OmegaBalance(double consumer_satisfaction,
                    double provider_satisfaction) {
  const double sc = Clamp(consumer_satisfaction, 0.0, 1.0);
  const double sp = Clamp(provider_satisfaction, 0.0, 1.0);
  return ((sc - sp) + 1.0) / 2.0;
}

double ProviderScore(double provider_intention, double consumer_intention,
                     double omega, double epsilon) {
  SQLB_CHECK(epsilon > 0.0, "Definition 9 requires epsilon > 0");
  const double w = Clamp(omega, 0.0, 1.0);
  const double pi = provider_intention;
  const double ci = consumer_intention;
  if (pi > 0.0 && ci > 0.0) {
    return BoundedPow(pi, w) * BoundedPow(ci, 1.0 - w);
  }
  // Negative branch: distance of each intention from full agreement (1),
  // weighted by omega. Intentions below -1 (possible with epsilon = 1 in
  // Defs. 7-8) simply deepen the refusal.
  return -(BoundedPow(1.0 - pi + epsilon, w) *
           BoundedPow(1.0 - ci + epsilon, 1.0 - w));
}

namespace {

// Relative widening of the pow-free bounds. Each pow is within 1 ULP and the
// product rounds once, so an exact score sits within a few ULPs (~1e-15
// relative) of the mean its bound brackets; 2^-40 (~9e-13) is far wider.
constexpr double kBoundSlack = 0x1p-40;

// An upper bound on ProviderScore(pi, ci, w, epsilon) for w in [0, 1]:
// weighted AM >= weighted GM on the positive branch; on the negative one
// the weighted GM of the two bases is at least the smaller base.
double ScoreUpperBound(double pi, double ci, double w, double epsilon) {
  if (pi > 0.0 && ci > 0.0) {
    return (w * pi + (1.0 - w) * ci) * (1.0 + kBoundSlack);
  }
  return -std::min(1.0 - pi + epsilon, 1.0 - ci + epsilon) *
         (1.0 - kBoundSlack);
}

}  // namespace

void SqlbRankColumns(const double* provider_intention,
                     const double* consumer_intention,
                     const double* provider_satisfaction, std::size_t count,
                     double consumer_satisfaction, double epsilon,
                     const double* fixed_omega, std::size_t k,
                     std::vector<double>* scores,
                     std::vector<std::size_t>* top) {
  std::vector<double>& score_of = *scores;
  std::vector<std::size_t>& best = *top;
  score_of.assign(count, -std::numeric_limits<double>::infinity());
  best.clear();
  if (k == 0) return;
  best.reserve(std::min(k, count));
  double kth = 0.0;  // score_of[best.back()] once `best` holds k entries
  for (std::size_t i = 0; i < count; ++i) {
    const double pi = provider_intention[i];
    const double ci = consumer_intention[i];
    const bool full = best.size() == k;
    // Sign shortcut: a negative-branch score is below every positive one.
    if (full && kth > 0.0 && !(pi > 0.0 && ci > 0.0)) continue;
    const double omega =
        fixed_omega != nullptr
            ? *fixed_omega
            : OmegaBalance(consumer_satisfaction, provider_satisfaction[i]);
    // Strict: a tie or a NaN bound is scored.
    if (full &&
        ScoreUpperBound(pi, ci, Clamp(omega, 0.0, 1.0), epsilon) < kth) {
      continue;
    }
    const double score = ProviderScore(pi, ci, omega, epsilon);
    score_of[i] = score;
    // Candidates arrive in index order, so a later one loses every tie:
    // it enters only above a strictly lower score, evicting the k-th.
    if (full) {
      if (!(score > kth)) continue;
      best.pop_back();
    }
    std::size_t pos = best.size();
    while (pos > 0 && score > score_of[best[pos - 1]]) --pos;
    best.insert(best.begin() + static_cast<std::ptrdiff_t>(pos), i);
    if (best.size() == k) kth = score_of[best.back()];
  }
}

std::vector<std::size_t> RankByScore(const std::vector<double>& scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&scores](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  return order;
}

std::vector<std::size_t> SelectTopN(const std::vector<double>& scores,
                                    std::size_t n) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t take = std::min(n, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&scores](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;  // deterministic tie-break
                    });
  order.resize(take);
  return order;
}

}  // namespace sqlb
