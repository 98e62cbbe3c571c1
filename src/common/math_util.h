#ifndef SQLB_COMMON_MATH_UTIL_H_
#define SQLB_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

/// \file
/// Small numeric helpers shared by the intention/score formulas (Section 5 of
/// the paper), which are products of powers with exponents in [0, 1].

namespace sqlb {

/// Clamps `x` to [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return std::min(hi, std::max(lo, x));
}

/// Clamps an intention-like value to the paper's nominal range [-1, 1]
/// (Section 2). Definitions 7-9 can overshoot this range with epsilon = 1;
/// values recorded into satisfaction windows are clamped so the (x+1)/2
/// mapping stays in [0, 1] (DESIGN.md, fidelity decision 2).
inline double ClampIntention(double x) { return Clamp(x, -1.0, 1.0); }

/// x^e for x >= 0, e in [0, 1]; the common factor shape in Defs. 7-9.
/// Short-circuits the frequent e == 0 and e == 1 cases (exact powers), which
/// the adaptive-omega score hits whenever one side's satisfaction saturates.
inline double BoundedPow(double x, double e) {
  if (e == 0.0) return 1.0;
  if (e == 1.0) return x;
  return std::pow(x, e);
}

/// True when |a - b| <= eps.
inline bool ApproxEqual(double a, double b, double eps = 1e-12) {
  return std::fabs(a - b) <= eps;
}

/// Linear interpolation between a (t = 0) and b (t = 1).
inline double Lerp(double a, double b, double t) { return a + (b - a) * t; }

/// Maps an intention in [-1, 1] to the satisfaction scale [0, 1] via
/// (x + 1) / 2, the transform used in Eqs. 1-2 and Defs. 4-5. On x86 the
/// clamp is maxsd/minsd, free of branches: a window notify sweep clamps a
/// -infinity refusal placeholder on about every other candidate, and the
/// portable formula compiles to a compare and jump on it. maxsd returns its
/// second operand when unordered and minsd its first only when smaller,
/// exactly std::max(-1.0, x) and std::min(1.0, .) (NaN maps to -1), so the
/// result is bit-identical to the portable formula.
inline double IntentionToUnit(double intention) {
#if defined(__SSE2__)
  const __m128d clamped = _mm_min_sd(
      _mm_max_sd(_mm_set_sd(intention), _mm_set_sd(-1.0)), _mm_set_sd(1.0));
  return (_mm_cvtsd_f64(clamped) + 1.0) / 2.0;
#else
  return (ClampIntention(intention) + 1.0) / 2.0;
#endif
}

}  // namespace sqlb

#endif  // SQLB_COMMON_MATH_UTIL_H_
