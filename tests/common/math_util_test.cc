#include "common/math_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/rng.h"

namespace sqlb {
namespace {

TEST(MathUtilTest, Clamp) {
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_EQ(Clamp(-2.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(9.0, 0.0, 1.0), 1.0);
}

TEST(MathUtilTest, ClampIntentionMapsToNominalRange) {
  EXPECT_EQ(ClampIntention(-2.5), -1.0);  // Def. 8 overshoot (Figure 2)
  EXPECT_EQ(ClampIntention(0.3), 0.3);
  EXPECT_EQ(ClampIntention(1.7), 1.0);
}

TEST(MathUtilTest, BoundedPowMatchesStdPow) {
  for (double x : {0.0, 0.1, 0.5, 0.9, 1.0, 2.2}) {
    for (double e : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      EXPECT_NEAR(BoundedPow(x, e), std::pow(x, e), 1e-12)
          << "x=" << x << " e=" << e;
    }
  }
}

TEST(MathUtilTest, BoundedPowShortCircuits) {
  EXPECT_EQ(BoundedPow(0.37, 0.0), 1.0);
  EXPECT_EQ(BoundedPow(0.37, 1.0), 0.37);
}

TEST(MathUtilTest, ApproxEqual) {
  EXPECT_TRUE(ApproxEqual(1.0, 1.0 + 1e-13));
  EXPECT_FALSE(ApproxEqual(1.0, 1.0001));
  EXPECT_TRUE(ApproxEqual(1.0, 1.01, 0.1));
}

TEST(MathUtilTest, Lerp) {
  EXPECT_DOUBLE_EQ(Lerp(0.3, 1.0, 0.0), 0.3);
  EXPECT_DOUBLE_EQ(Lerp(0.3, 1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Lerp(0.3, 1.0, 0.5), 0.65);
}

TEST(MathUtilTest, IntentionToUnit) {
  EXPECT_DOUBLE_EQ(IntentionToUnit(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(IntentionToUnit(0.0), 0.5);
  EXPECT_DOUBLE_EQ(IntentionToUnit(1.0), 1.0);
  // Out-of-range intentions are clamped before mapping.
  EXPECT_DOUBLE_EQ(IntentionToUnit(-2.5), 0.0);
  EXPECT_DOUBLE_EQ(IntentionToUnit(3.0), 1.0);
}

TEST(MathUtilTest, IntentionToUnitIsBitIdenticalToTheClampFormula) {
  const auto expect_formula = [](double x) {
    const double formula = (ClampIntention(x) + 1.0) / 2.0;
    const double unit = IntentionToUnit(x);
    std::uint64_t a, b;
    std::memcpy(&a, &formula, sizeof a);
    std::memcpy(&b, &unit, sizeof b);
    ASSERT_EQ(a, b) << std::hexfloat << x;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double min = std::numeric_limits<double>::min();
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (double x : {0.0, -0.0, 1.0, -1.0, std::nextafter(1.0, 0.0),
                   std::nextafter(-1.0, 0.0), 2.0, -2.0, kInf, -kInf,
                   std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::quiet_NaN(), min, -min,
                   denorm, -denorm}) {
    expect_formula(x);
  }
  // Every exponent (random bit patterns, NaNs and infinities included) and
  // the intention range itself.
  Rng rng(11);
  for (int i = 0; i < 1000000; ++i) {
    double x;
    if (i % 2 == 0) {
      const std::uint64_t bits = rng.NextUint64();
      std::memcpy(&x, &bits, sizeof x);
    } else {
      x = rng.Uniform(-3.0, 3.0);
    }
    expect_formula(x);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sqlb
