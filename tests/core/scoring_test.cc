#include "core/scoring.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace sqlb {
namespace {

TEST(OmegaBalanceTest, Equation6) {
  // omega = ((sat_c - sat_p) + 1) / 2.
  EXPECT_DOUBLE_EQ(OmegaBalance(0.9, 0.3), 0.8);
  EXPECT_DOUBLE_EQ(OmegaBalance(0.5, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(OmegaBalance(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(OmegaBalance(1.0, 0.0), 1.0);
}

TEST(OmegaBalanceTest, LessSatisfiedSideGetsMoreWeight) {
  // Consumer far more satisfied than provider -> omega towards 1 (the
  // provider's intention dominates the score), and vice versa.
  EXPECT_GT(OmegaBalance(0.9, 0.2), 0.5);
  EXPECT_LT(OmegaBalance(0.2, 0.9), 0.5);
}

TEST(OmegaBalanceTest, ClampsInputs) {
  EXPECT_DOUBLE_EQ(OmegaBalance(2.0, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(OmegaBalance(-3.0, 7.0), 0.0);
}

TEST(ProviderScoreTest, PositiveBranchGeometricBalance) {
  EXPECT_NEAR(ProviderScore(0.64, 0.25, 0.5), std::sqrt(0.64 * 0.25),
              1e-12);
  EXPECT_DOUBLE_EQ(ProviderScore(0.7, 0.2, 1.0), 0.7);  // provider only
  EXPECT_DOUBLE_EQ(ProviderScore(0.7, 0.2, 0.0), 0.2);  // consumer only
}

TEST(ProviderScoreTest, NegativeBranchFormula) {
  // PI = -1.8 (overloaded provider), CI = 0.7, omega = 0.5, eps = 1:
  // -( (1 + 1.8 + 1)^0.5 * (1 - 0.7 + 1)^0.5 ) = -sqrt(3.8 * 1.3).
  EXPECT_NEAR(ProviderScore(-1.8, 0.7, 0.5), -std::sqrt(3.8 * 1.3), 1e-12);
}

TEST(ProviderScoreTest, MutualDesireBeatsOneSidedDesire) {
  const double mutual = ProviderScore(0.8, 0.8, 0.5);
  const double one_sided = ProviderScore(0.8, -0.2, 0.5);
  EXPECT_GT(mutual, 0.0);
  EXPECT_LT(one_sided, 0.0);
}

TEST(ProviderScoreTest, OverloadedDesiredLosesToIdleUndesired) {
  // The SQLB redistribution property (Section 6.3.1, Figure 4(h)): a
  // heavily overloaded provider the consumer likes (PI deep negative)
  // scores worse than an idle provider the consumer dislikes (PI positive,
  // CI negative but mild).
  const double overloaded_liked = ProviderScore(-1.8, 0.7, 0.5);
  const double idle_disliked = ProviderScore(0.7, -0.7, 0.5);
  EXPECT_GT(idle_disliked, overloaded_liked);
}

TEST(ProviderScoreTest, MonotoneInBothIntentions) {
  // Within each branch, raising either intention never lowers the score.
  for (double omega : {0.2, 0.5, 0.8}) {
    double prev = -100.0;
    for (double pi = -2.0; pi <= 1.0; pi += 0.05) {
      const double v = ProviderScore(pi, 0.6, omega);
      EXPECT_GE(v, prev - 1e-12) << "pi=" << pi << " omega=" << omega;
      prev = v;
    }
    prev = -100.0;
    for (double ci = -1.0; ci <= 1.0; ci += 0.05) {
      const double v = ProviderScore(0.6, ci, omega);
      EXPECT_GE(v, prev - 1e-12) << "ci=" << ci << " omega=" << omega;
      prev = v;
    }
  }
}

TEST(ProviderScoreTest, PositiveBranchAlwaysBeatsNegativeBranch) {
  Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    const double positive = ProviderScore(
        rng.Uniform(1e-6, 1.0), rng.Uniform(1e-6, 1.0), rng.NextDouble());
    const double pi = rng.Uniform(-2.5, 1.0);
    const double ci = rng.Uniform(-1.0, 0.0);  // forces negative branch
    const double negative = ProviderScore(pi, ci, rng.NextDouble());
    ASSERT_GT(positive, 0.0);
    ASSERT_LT(negative, 0.0);
  }
}

TEST(ProviderScoreDeathTest, RequiresPositiveEpsilon) {
  EXPECT_DEATH(ProviderScore(0.5, 0.5, 0.5, 0.0), "epsilon");
}

TEST(RankByScoreTest, DescendingWithStableTies) {
  const std::vector<double> scores{0.3, 0.9, 0.3, 1.0};
  const auto order = RankByScore(scores);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 0, 2}));
}

TEST(SelectTopNTest, PrefixOfRanking) {
  const std::vector<double> scores{0.3, 0.9, 0.3, 1.0};
  EXPECT_EQ(SelectTopN(scores, 2), (std::vector<std::size_t>{3, 1}));
  EXPECT_EQ(SelectTopN(scores, 0), (std::vector<std::size_t>{}));
}

TEST(SelectTopNTest, NLargerThanSetTakesAll) {
  const std::vector<double> scores{0.1, 0.2};
  EXPECT_EQ(SelectTopN(scores, 10), (std::vector<std::size_t>{1, 0}));
}

TEST(SelectTopNTest, AgreesWithFullRanking) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> scores;
    const std::size_t n = 1 + rng.NextBounded(60);
    for (std::size_t i = 0; i < n; ++i) {
      scores.push_back(rng.Uniform(-3.0, 1.0));
    }
    const auto full = RankByScore(scores);
    const std::size_t take = 1 + rng.NextBounded(n);
    const auto top = SelectTopN(scores, take);
    ASSERT_EQ(top.size(), take);
    for (std::size_t i = 0; i < take; ++i) {
      ASSERT_EQ(scores[top[i]], scores[full[i]]) << "rank " << i;
    }
  }
}

// SqlbRankColumns against the reference it must reproduce: ProviderScore
// for every candidate, then SelectTopN over the full vector.
struct RankCase {
  std::vector<double> pi;
  std::vector<double> ci;
  std::vector<double> ps;
  double consumer_satisfaction = 0.5;
  double epsilon = 1.0;
  std::optional<double> fixed_omega;
  std::size_t k = 1;
};

std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

/// The mutually-willing indices, ascending: the list a gather supplies.
std::vector<std::uint32_t> WillingList(const std::vector<double>& pi,
                                       const std::vector<double>& ci) {
  std::vector<std::uint32_t> willing;
  for (std::size_t i = 0; i < pi.size(); ++i) {
    if (pi[i] > 0.0 && ci[i] > 0.0) {
      willing.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return willing;
}

void ExpectRankMatchesFullScoring(const RankCase& c) {
  const std::size_t n = c.pi.size();
  std::vector<double> full;
  for (std::size_t i = 0; i < n; ++i) {
    const double omega = c.fixed_omega.has_value()
                             ? *c.fixed_omega
                             : OmegaBalance(c.consumer_satisfaction, c.ps[i]);
    full.push_back(ProviderScore(c.pi[i], c.ci[i], omega, c.epsilon));
  }
  std::vector<double> scores;
  std::vector<std::size_t> top;
  std::vector<std::uint32_t> scratch;
  SqlbRankColumns(c.pi.data(), c.ci.data(), c.ps.data(), n,
                  c.consumer_satisfaction, c.epsilon,
                  c.fixed_omega.has_value() ? &*c.fixed_omega : nullptr, c.k,
                  WillingList(c.pi, c.ci), &scratch, &scores, &top);
  ASSERT_EQ(top, SelectTopN(full, c.k));
  ASSERT_EQ(scores.size(), n);
  const double kth = full[top.back()];
  for (std::size_t i = 0; i < n; ++i) {
    if (scores[i] == -std::numeric_limits<double>::infinity()) {
      EXPECT_LT(full[i], kth) << "skipped candidate " << i;
    } else {
      EXPECT_EQ(Bits(scores[i]), Bits(full[i])) << "candidate " << i;
    }
  }
}

TEST(SqlbRankColumnsTest, SingleCandidateAndKAtLeastNScoreEverything) {
  RankCase one;
  one.pi = {-0.4};
  one.ci = {0.3};
  one.ps = {0.2};
  ExpectRankMatchesFullScoring(one);
  one.k = 5;
  ExpectRankMatchesFullScoring(one);

  RankCase all;
  all.pi = {0.2, -1.5, 0.9, 0.2};
  all.ci = {0.7, 0.1, -0.3, 0.7};
  all.ps = {0.5, 0.1, 0.9, 0.5};
  all.k = 4;
  std::vector<double> scores;
  std::vector<std::size_t> top;
  std::vector<std::uint32_t> scratch;
  SqlbRankColumns(all.pi.data(), all.ci.data(), all.ps.data(), 4, 0.5, 1.0,
                  nullptr, all.k, WillingList(all.pi, all.ci), &scratch,
                  &scores, &top);
  for (double s : scores) EXPECT_GT(s, -std::numeric_limits<double>::infinity());
  ExpectRankMatchesFullScoring(all);
  all.k = 9;
  ExpectRankMatchesFullScoring(all);
}

TEST(SqlbRankColumnsTest, KthBestOfExactlyZeroStillScoresPositives) {
  // pi = 1 + eps zeroes the first negative-branch base, so that candidate
  // scores -0.0: the sign shortcut must not fire on a k-th best of 0, and
  // the later positive candidate must still be scored and win.
  RankCase c;
  c.pi = {2.0, -0.5, 0.3, -1.0, 0.6};
  c.ci = {-0.2, 0.4, 0.8, -0.9, 0.5};
  c.ps = {0.5, 0.5, 0.5, 0.5, 0.5};
  c.fixed_omega = 0.5;
  ExpectRankMatchesFullScoring(c);
  c.pi = {2.0, -0.5, -0.3, 2.0};
  c.ci = {-0.2, 0.4, 0.8, -0.9};
  ExpectRankMatchesFullScoring(c);
}

class SqlbRankColumnsPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SqlbRankColumnsPropertyTest, MatchesSelectTopNOverFullScores) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    RankCase c;
    const std::size_t n = 1 + rng.NextBounded(64);
    const double epsilons[] = {1.0, 0.5, 0.01, 2.0};
    c.epsilon = epsilons[rng.NextBounded(4)];
    c.consumer_satisfaction =
        rng.Bernoulli(0.2) ? static_cast<double>(rng.NextBounded(2))
                           : rng.NextDouble();
    switch (rng.NextBounded(4)) {
      case 0: c.fixed_omega = 0.0; break;
      case 1: c.fixed_omega = 1.0; break;
      case 2: c.fixed_omega = rng.NextDouble(); break;
      default: break;  // Eq. 6
    }
    const std::size_t ks[] = {1, 2, 3, n, n + 2};
    c.k = ks[rng.NextBounded(5)];
    const int shape = trial % 5;
    // Duplicate pool: copies of a few (pi, ci, ps) triples force ties.
    double pool[3][3];
    for (auto& triple : pool) {
      triple[0] = rng.Uniform(-2.0, 1.0);
      triple[1] = rng.Uniform(-1.0, 1.0);
      triple[2] = rng.NextDouble();
    }
    const double base = rng.Uniform(0.05, 0.95);
    for (std::size_t i = 0; i < n; ++i) {
      double pi = rng.Uniform(-2.5, 1.0);
      double ci = rng.Uniform(-1.0, 1.0);
      double ps = rng.Bernoulli(0.2) ? static_cast<double>(rng.NextBounded(2))
                                     : rng.NextDouble();
      switch (shape) {
        case 1:  // mostly mutually willing
          pi = rng.Uniform(-0.2, 1.0);
          ci = rng.Uniform(-0.2, 1.0);
          break;
        case 2:  // all negative branch
          pi = rng.Uniform(-2.5, 0.0);
          break;
        case 3: {  // exact duplicates
          const auto& triple = pool[rng.NextBounded(3)];
          pi = triple[0];
          ci = triple[1];
          ps = triple[2];
          break;
        }
        case 4: {  // scores a few ULPs apart (exact at w = 0 or 1)
          pi = base;
          ci = base;
          for (std::uint64_t s = rng.NextBounded(4); s > 0; --s) {
            pi = std::nextafter(pi, rng.Bernoulli(0.5) ? 2.0 : -2.0);
            ci = std::nextafter(ci, rng.Bernoulli(0.5) ? 2.0 : -2.0);
          }
          if (rng.Bernoulli(0.3)) pi = -pi;
          break;
        }
        default:
          break;
      }
      c.pi.push_back(pi);
      c.ci.push_back(ci);
      c.ps.push_back(ps);
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    ExpectRankMatchesFullScoring(c);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCandidateSets, SqlbRankColumnsPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 12));

// With at least k mutually-willing pairs the kernel never reads another
// candidate's intentions: replacing every refusing provider intention
// (<= 0) by -infinity, as the mediation gather does for full refusals,
// leaves the selection and every willing score bit for bit unchanged.
TEST(SqlbRankColumnsTest, RefusalPlaceholdersChangeNothingWithKWillingPairs) {
  Rng rng(97);
  int checked = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(64);
    const std::size_t k = 1 + rng.NextBounded(4);
    const double epsilons[] = {1.0, 0.5, 0.01, 2.0};
    const double epsilon = epsilons[rng.NextBounded(4)];
    const double consumer_satisfaction = rng.NextDouble();
    std::vector<double> pi, ci, ps;
    std::size_t willing = 0;
    for (std::size_t i = 0; i < n; ++i) {
      pi.push_back(rng.Bernoulli(0.5) ? rng.Uniform(-2.5, 0.0)
                                      : rng.Uniform(-0.2, 1.0));
      ci.push_back(rng.Uniform(-0.5, 1.0));
      ps.push_back(rng.NextDouble());
      willing += pi.back() > 0.0 && ci.back() > 0.0;
    }
    if (willing < k) continue;
    std::vector<double> placeholder = pi;
    for (double& value : placeholder) {
      if (value <= 0.0) value = -std::numeric_limits<double>::infinity();
    }
    std::vector<double> exact_scores, deferred_scores;
    std::vector<std::size_t> exact_top, deferred_top;
    std::vector<std::uint32_t> scratch;
    SqlbRankColumns(pi.data(), ci.data(), ps.data(), n, consumer_satisfaction,
                    epsilon, nullptr, k, WillingList(pi, ci), &scratch,
                    &exact_scores, &exact_top);
    SqlbRankColumns(placeholder.data(), ci.data(), ps.data(), n,
                    consumer_satisfaction, epsilon, nullptr, k,
                    WillingList(placeholder, ci), &scratch, &deferred_scores,
                    &deferred_top);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    ASSERT_EQ(deferred_top, exact_top);
    for (std::size_t i = 0; i < n; ++i) {
      if (pi[i] > 0.0 && ci[i] > 0.0) {
        ASSERT_EQ(Bits(deferred_scores[i]), Bits(exact_scores[i])) << i;
      } else {
        ASSERT_EQ(deferred_scores[i], -std::numeric_limits<double>::infinity())
            << i;
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 1000);
}

// The log-domain score bound rests on this: LnLowerBound(x) <= ln x <=
// LnLowerBound(x) + kLnLowerBoundSlack over (0, 1], subnormals included.
TEST(LnLowerBoundTest, BracketsLogOverTheUnitInterval) {
  const auto check = [](double x) {
    const double lower = LnLowerBound(x);
    const double ln = std::log(x);
    ASSERT_LE(lower, ln) << std::hexfloat << x;
    ASSERT_LE(ln, lower + kLnLowerBoundSlack) << std::hexfloat << x;
  };
  Rng rng(5);
  for (int i = 0; i < 1000000; ++i) {
    // Uniform over (0, 1] plus log-uniform magnitudes down to 2^-1022.
    double x = 1.0 - rng.NextDouble();
    if (i % 2 == 1) x = std::ldexp(x, -static_cast<int>(rng.NextBounded(1022)));
    check(x);
    if (HasFatalFailure()) return;
  }
  for (double x : {1.0, std::nextafter(1.0, 0.0), 0.5, std::sqrt(0.5),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min(), 0x1p-1070,
                   0x1.fffffffffffffp-1023, 0x1.8p-1050}) {
    check(x);
  }
  for (int shift = 1; shift <= 52; ++shift) {
    check(std::ldexp(1.0 - rng.NextDouble() / 2.0, -1022 - shift));
  }
}

// The negative branch's bases, 1 - pi + epsilon and 1 - ci + epsilon, reach
// above 1: the same bracket holds there.
TEST(LnLowerBoundTest, BracketsLogAboveOne) {
  Rng rng(6);
  for (int i = 0; i < 1000000; ++i) {
    const double x = std::ldexp(1.0 + rng.NextDouble(),
                                static_cast<int>(rng.NextBounded(12)));
    const double lower = LnLowerBound(x);
    ASSERT_LE(lower, std::log(x)) << std::hexfloat << x;
    ASSERT_LE(std::log(x), lower + kLnLowerBoundSlack) << std::hexfloat << x;
  }
}

}  // namespace
}  // namespace sqlb
