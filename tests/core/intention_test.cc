#include "core/intention.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/rng.h"

namespace sqlb {
namespace {

ConsumerIntentionParams Formula(double upsilon, double epsilon = 1.0) {
  ConsumerIntentionParams params;
  params.upsilon = upsilon;
  params.epsilon = epsilon;
  params.mode = ConsumerIntentionMode::kFormula;
  return params;
}

TEST(ConsumerIntentionTest, PreferenceOnlyModeIsIdentity) {
  ConsumerIntentionParams params;
  params.mode = ConsumerIntentionMode::kPreferenceOnly;
  for (double prf : {-1.0, -0.54, 0.0, 0.34, 1.0}) {
    EXPECT_DOUBLE_EQ(ConsumerIntention(prf, 0.9, params), prf);
    EXPECT_DOUBLE_EQ(ConsumerIntention(prf, -0.9, params), prf);
  }
}

TEST(ConsumerIntentionTest, PositiveBranchGeometricBalance) {
  // Definition 7, both positive: prf^u * rep^(1-u).
  EXPECT_NEAR(ConsumerIntention(0.64, 0.25, Formula(0.5)),
              std::sqrt(0.64 * 0.25), 1e-12);
  EXPECT_NEAR(ConsumerIntention(0.36, 0.9, Formula(1.0)), 0.36, 1e-12);
  EXPECT_NEAR(ConsumerIntention(0.36, 0.9, Formula(0.0)), 0.9, 1e-12);
}

TEST(ConsumerIntentionTest, NegativeBranchFormula) {
  // prf = -0.5, rep = 0.5, u = 0.5, eps = 1:
  // -( (1 + 0.5 + 1)^0.5 * (1 - 0.5 + 1)^0.5 ) = -sqrt(2.5 * 1.5).
  EXPECT_NEAR(ConsumerIntention(-0.5, 0.5, Formula(0.5)),
              -std::sqrt(2.5 * 1.5), 1e-12);
}

TEST(ConsumerIntentionTest, NonPositiveReputationForcesNegativeBranch) {
  const double v = ConsumerIntention(0.8, 0.0, Formula(0.5));
  EXPECT_LT(v, 0.0);
}

TEST(ConsumerIntentionTest, EpsilonKeepsRefusalAwayFromZero) {
  // With preference = 1 the (1 - prf) factor vanishes without epsilon.
  const double v = ConsumerIntention(1.0, -1.0, Formula(0.5, 1.0));
  EXPECT_LT(v, 0.0);
  EXPECT_GT(std::fabs(v), 0.5);
}

TEST(ConsumerIntentionTest, MonotoneInPreferenceAndReputation) {
  const auto params = Formula(0.6);
  double prev = -10.0;
  for (double prf = 0.05; prf <= 1.0; prf += 0.05) {
    const double v = ConsumerIntention(prf, 0.5, params);
    EXPECT_GT(v, prev);
    prev = v;
  }
  prev = -10.0;
  for (double rep = 0.05; rep <= 1.0; rep += 0.05) {
    const double v = ConsumerIntention(0.5, rep, params);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(ConsumerIntentionTest, InputsAreClamped) {
  EXPECT_DOUBLE_EQ(
      ConsumerIntention(2.0, 2.0, Formula(1.0)),
      ConsumerIntention(1.0, 1.0, Formula(1.0)));
}

TEST(ConsumerIntentionDeathTest, ValidatesParameters) {
  EXPECT_DEATH(ConsumerIntention(0.5, 0.5, Formula(0.5, 0.0)), "epsilon");
  EXPECT_DEATH(ConsumerIntention(0.5, 0.5, Formula(1.5)), "upsilon");
}

ProviderIntentionParams SelfBalancing(double epsilon = 1.0) {
  ProviderIntentionParams params;
  params.epsilon = epsilon;
  params.mode = ProviderIntentionMode::kSelfBalancing;
  return params;
}

TEST(ProviderIntentionTest, PositiveBranchGeometricBalance) {
  // Definition 8: prf^(1-s) * (1-Ut)^s.
  EXPECT_NEAR(ProviderIntention(0.64, 0.19, 0.5, SelfBalancing()),
              std::sqrt(0.64 * 0.81), 1e-12);
}

TEST(ProviderIntentionTest, DissatisfiedProviderFollowsPreference) {
  // s = 0: intention = preference, utilization ignored (Section 5.2: a
  // dissatisfied provider focuses on its preferences).
  EXPECT_DOUBLE_EQ(ProviderIntention(0.7, 0.9, 0.0, SelfBalancing()), 0.7);
}

TEST(ProviderIntentionTest, SatisfiedProviderFollowsUtilization) {
  // s = 1: intention = 1 - Ut; a satisfied provider accepts queries it does
  // not want while it has capacity.
  EXPECT_DOUBLE_EQ(ProviderIntention(0.1, 0.25, 1.0, SelfBalancing()), 0.75);
}

TEST(ProviderIntentionTest, OverloadForcesNegativeBranch) {
  // Ut >= 1: -( (1 - prf + eps)^(1-s) * (Ut + eps)^s ).
  EXPECT_NEAR(ProviderIntention(0.5, 1.2, 0.5, SelfBalancing()),
              -std::sqrt(1.5 * 2.2), 1e-12);
  // Figure 2's observation: intentions are positive only when the provider
  // wants the query AND is not overutilized.
  EXPECT_LT(ProviderIntention(0.9, 1.0, 0.5, SelfBalancing()), 0.0);
}

TEST(ProviderIntentionTest, UnwantedQueryForcesNegativeBranch) {
  EXPECT_LT(ProviderIntention(-0.1, 0.0, 0.5, SelfBalancing()), 0.0);
  EXPECT_LT(ProviderIntention(0.0, 0.0, 0.5, SelfBalancing()), 0.0);
}

TEST(ProviderIntentionTest, CanOvershootMinusOne) {
  // The Figure 2 surface reaches -2.5: the nominal [-1, 1] range does not
  // bound the negative branch with epsilon = 1 (DESIGN.md decision 2).
  const double v = ProviderIntention(-1.0, 2.0, 0.5, SelfBalancing());
  EXPECT_LT(v, -2.0);
}

TEST(ProviderIntentionTest, MoreLoadNeverRaisesIntention) {
  for (double s : {0.1, 0.5, 0.9}) {
    double prev = 10.0;
    for (double ut = 0.0; ut <= 2.0; ut += 0.1) {
      const double v = ProviderIntention(0.6, ut, s, SelfBalancing());
      EXPECT_LE(v, prev + 1e-12) << "ut=" << ut << " s=" << s;
      prev = v;
    }
  }
}

TEST(ProviderIntentionTest, AblationModes) {
  ProviderIntentionParams pref_only;
  pref_only.mode = ProviderIntentionMode::kPreferenceOnly;
  EXPECT_DOUBLE_EQ(ProviderIntention(-0.3, 5.0, 0.9, pref_only), -0.3);

  ProviderIntentionParams ut_only;
  ut_only.mode = ProviderIntentionMode::kUtilizationOnly;
  EXPECT_DOUBLE_EQ(ProviderIntention(0.9, 0.0, 0.1, ut_only), 1.0);
  EXPECT_DOUBLE_EQ(ProviderIntention(0.9, 0.5, 0.1, ut_only), 0.0);
  EXPECT_DOUBLE_EQ(ProviderIntention(0.9, 2.0, 0.1, ut_only), -1.0);
}

// Property sweep over the (preference, utilization, satisfaction) cube.
struct IntentionCase {
  double preference;
  double utilization;
  double satisfaction;
};

class ProviderIntentionPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProviderIntentionPropertyTest, SignMatchesDefinitionBranches) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const double prf = rng.Uniform(-1.0, 1.0);
    const double ut = rng.Uniform(0.0, 2.5);
    const double sat = rng.NextDouble();
    const double v = ProviderIntention(prf, ut, sat, SelfBalancing());
    ASSERT_TRUE(std::isfinite(v));
    if (prf > 0.0 && ut < 1.0) {
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
    } else {
      ASSERT_LT(v, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCube, ProviderIntentionPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

// The mediation gather skips Definition 8 wherever IsFullRefusal holds and
// stores -infinity, which IntentionToUnit maps to +0.0: the skipped value
// must be <= -1 and map to that same +0.0, bit for bit. The rule rests on
// pow being faithfully rounded, so bases next to 1 are swept as well.
void ExpectFullRefusalRule(double prf, double ut, double sat, double eps) {
  ProviderIntentionParams params;
  params.epsilon = eps;
  const ProviderIntentionEvaluator evaluator(ut, sat, params);
  if (!evaluator.IsFullRefusal(prf)) return;
  const double value = evaluator.Eval(prf);
  ASSERT_LE(value, -1.0) << std::hexfloat << prf << " " << ut << " " << sat
                         << " " << eps;
  const double unit = IntentionToUnit(value);
  ASSERT_EQ(unit, 0.0);
  ASSERT_FALSE(std::signbit(unit));
}

TEST(ProviderIntentionEvaluatorTest, FullRefusalEdges) {
  for (double eps : {0.01, 0.5, 1.0, 2.0}) {
    for (double prf : {-1.0, -0.0, 0.0, 0x1p-53, 1.0}) {
      for (double ut : {0.0, 1.0 - eps, 1.0, 1.0 + 0x1p-52, 3.0}) {
        for (double sat : {0.0, 0x1p-53, 0.5, 1.0 - 0x1p-53, 1.0}) {
          ExpectFullRefusalRule(prf, ut, sat, eps);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // Under the paper's eps = 1 every negative-branch intention is one.
  ProviderIntentionParams paper;
  EXPECT_TRUE(ProviderIntentionEvaluator(0.3, 0.5, paper).IsFullRefusal(-0.2));
  EXPECT_TRUE(ProviderIntentionEvaluator(1.0, 0.5, paper).IsFullRefusal(0.9));
  EXPECT_FALSE(ProviderIntentionEvaluator(0.3, 0.5, paper).IsFullRefusal(0.2));
  // A base below 1 may give an intention above -1: never a full refusal.
  ProviderIntentionParams small;
  small.epsilon = 0.01;
  EXPECT_FALSE(ProviderIntentionEvaluator(0.5, 0.5, small).IsFullRefusal(-0.5));
  EXPECT_GT(ProviderIntentionEvaluator(0.5, 0.5, small).Eval(-0.5), -1.0);
  EXPECT_FALSE(ProviderIntentionEvaluator(1.5, 0.5, small).IsFullRefusal(0.5));
  // The ablation modes evaluate no pow; they never report one.
  for (ProviderIntentionMode mode : {ProviderIntentionMode::kPreferenceOnly,
                                     ProviderIntentionMode::kUtilizationOnly}) {
    ProviderIntentionParams ablation;
    ablation.mode = mode;
    EXPECT_FALSE(
        ProviderIntentionEvaluator(2.0, 0.5, ablation).IsFullRefusal(-1.0));
  }
}

TEST_P(ProviderIntentionPropertyTest, FullRefusalImpliesUnitZero) {
  Rng rng(GetParam() + 1000);
  const double epsilons[] = {0.01, 0.5, 1.0, 2.0};
  for (int i = 0; i < 5000; ++i) {
    const double eps = epsilons[rng.NextBounded(4)];
    const double sat = rng.NextDouble();
    // Random draws over the cube.
    ExpectFullRefusalRule(rng.Uniform(-1.0, 1.0), rng.Uniform(0.0, 3.0), sat,
                          eps);
    // Bases next to 1: 1 - prf + eps and ut + eps a few ULPs from 1.
    const int ulps = static_cast<int>(rng.NextBounded(9)) - 4;
    double prf_near = std::min(eps, 1.0);
    double ut_near = std::max(0.0, 1.0 - eps);
    for (int step = 0; step < std::abs(ulps); ++step) {
      prf_near = std::nextafter(prf_near, ulps > 0 ? 2.0 : -2.0);
      ut_near = std::nextafter(ut_near, ulps > 0 ? 4.0 : -1.0);
    }
    ExpectFullRefusalRule(prf_near, 1.0 + rng.NextDouble(), sat, eps);
    ExpectFullRefusalRule(-rng.NextDouble(), ut_near, sat, eps);
    ExpectFullRefusalRule(prf_near - eps, ut_near, sat, eps);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sqlb
