#include "core/scoring.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

double LnLowerBound(double x) {
  // x = 2^e * m with m in [1, 2); subnormals are scaled by 2^54 first.
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  int e = static_cast<int>(bits >> 52) - 1023;
  if (e == -1023) {
    x *= 0x1p54;
    std::memcpy(&bits, &x, sizeof bits);
    e = static_cast<int>(bits >> 52) - 1023 - 54;
  }
  bits = (bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL;
  double m;
  std::memcpy(&m, &bits, sizeof m);
  // ln m = 2 atanh(s), s = (m - 1) / (m + 1) in [0, 1/3): every series
  // term is non-negative, so the truncation after s^7 bounds from below,
  // short by at most 2 s^9 / 9 / (1 - s^2) < 1.27e-5. The 2^-38 covers the
  // rounding of the sum (|e ln 2| <= 745).
  const double s = (m - 1.0) / (m + 1.0);
  const double s2 = s * s;
  const double series =
      2.0 * s * (1.0 + s2 * (1.0 / 3.0 + s2 * (1.0 / 5.0 + s2 * (1.0 / 7.0))));
  return static_cast<double>(e) * 0x1.62e42fefa39efp-1 + series - 0x1p-38;
}

namespace {

// Relative widening of the pow-free AM bound. Each pow is within 1 ULP and
// the product rounds once, so an exact score sits within a few ULPs (~1e-15
// relative) of the mean its bound brackets; 2^-40 (~9e-13) is far wider.
constexpr double kBoundSlack = 0x1p-40;
// Additive widening of the log-domain bound: kLnLowerBoundSlack plus the
// rounding of the weighted sum (|terms| <= 745, ~1e-12) and of the exact
// score (a few ULPs, ~1e-15 in the log).
constexpr double kLogBoundSlack = 0x1p-16;
static_assert(kLogBoundSlack > kLnLowerBoundSlack + 1e-9,
              "the log bound must cover the ln bound's slack");

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
                     const std::vector<std::uint32_t>& willing,
                     std::vector<std::uint32_t>* index_scratch,
                     std::vector<double>* scores,
                     std::vector<std::size_t>* top) {
  std::vector<double>& score_of = *scores;
  std::vector<std::size_t>& best = *top;
  score_of.assign(count, -std::numeric_limits<double>::infinity());
  best.clear();
  if (k == 0) return;
  best.reserve(std::min(k, count));
  double kth = 0.0;     // score_of[best.back()] once `best` holds k entries
  double ln_kth = 0.0;  // LnLowerBound(|kth|) while kth != 0
  // The mutually-willing pairs first. Their scores are >= 0 and every
  // other one is < 0 (one base of its negative branch exceeds 1, the other
  // is >= epsilon), so the rest matter only when fewer than k are willing.
  for (const bool willing_sweep : {true, false}) {
    if (!willing_sweep && best.size() == k) break;
    const std::uint32_t* order = willing.data();
    std::size_t n = willing.size();
    if (!willing_sweep) {
      // Willingness is a coin flip per candidate, so the rest are compacted
      // with a store and a conditional increment, not a branch.
      std::vector<std::uint32_t>& rest = *index_scratch;
      rest.resize(count);
      n = 0;
      for (std::size_t i = 0; i < count; ++i) {
        rest[n] = static_cast<std::uint32_t>(i);
        n += !((provider_intention[i] > 0.0) & (consumer_intention[i] > 0.0));
      }
      order = rest.data();
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = order[j];
      const double pi = provider_intention[i];
      const double ci = consumer_intention[i];
      const double omega =
          fixed_omega != nullptr
              ? *fixed_omega
              : OmegaBalance(consumer_satisfaction, provider_satisfaction[i]);
      const bool full = best.size() == k;
      if (full) {
        // Strict: a tie or a NaN bound is scored.
        const double w = Clamp(omega, 0.0, 1.0);
        if (ScoreUpperBound(pi, ci, w, epsilon) < kth) continue;
        // ln |score| = w ln a + (1 - w) ln b over the branch's bases a, b,
        // each ln at most kLnLowerBoundSlack above its bound.
        if (willing_sweep) {
          if (kth > 0.0 && w * LnLowerBound(pi) + (1.0 - w) * LnLowerBound(ci) +
                                   kLogBoundSlack <
                               ln_kth) {
            continue;
          }
        } else if (kth < 0.0 &&
                   w * LnLowerBound(1.0 - pi + epsilon) +
                           (1.0 - w) * LnLowerBound(1.0 - ci + epsilon) >
                       ln_kth + kLogBoundSlack) {
          continue;
        }
      }
      const double score = ProviderScore(pi, ci, omega, epsilon);
      score_of[i] = score;
      // Candidates arrive in index order within a sweep, and no score of
      // one sweep ties one of the other, so a later one loses every tie:
      // it enters only above a strictly lower score, evicting the k-th.
      if (full) {
        if (!(score > kth)) continue;
        best.pop_back();
      }
      std::size_t pos = best.size();
      while (pos > 0 && score > score_of[best[pos - 1]]) --pos;
      best.insert(best.begin() + static_cast<std::ptrdiff_t>(pos), i);
      if (best.size() == k) {
        kth = score_of[best.back()];
        if (kth != 0.0) ln_kth = LnLowerBound(std::fabs(kth));
      }
    }
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
