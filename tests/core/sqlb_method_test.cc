#include "core/sqlb_method.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/scoring.h"
#include "model/query.h"

namespace sqlb {
namespace {

Query MakeQuery(std::uint32_t n) {
  Query q;
  q.id = 1;
  q.consumer = ConsumerId(0);
  q.n = n;
  q.units = 130.0;
  return q;
}

CandidateProvider MakeCandidate(std::uint32_t id, double pi, double ci,
                                double provider_sat = 0.5) {
  CandidateProvider c;
  c.id = ProviderId(id);
  c.provider_intention = pi;
  c.consumer_intention = ci;
  c.provider_satisfaction = provider_sat;
  return c;
}

TEST(SqlbMethodTest, NameIsStable) {
  SqlbMethod method;
  EXPECT_EQ(method.name(), "SQLB");
}

TEST(SqlbMethodTest, MotivatingExamplePicksTheMutuallyWillingProvider) {
  // Table 1 with binary intentions: only p5 has both sides positive; it
  // must rank first even though it is the overloaded one — exactly the
  // dilemma the paper's Section 1.1 sets up.
  Query q = MakeQuery(1);
  AllocationRequest request;
  request.query = &q;
  request.consumer_satisfaction = 0.5;
  request.candidates = {
      MakeCandidate(1, 1.0, -1.0),  // p1: provider yes, consumer no
      MakeCandidate(2, -1.0, 1.0),  // p2: provider no, consumer yes
      MakeCandidate(3, 1.0, -1.0),  // p3
      MakeCandidate(4, -1.0, 1.0),  // p4
      MakeCandidate(5, 1.0, 1.0),   // p5: both yes
  };
  SqlbMethod method;
  const auto decision = method.Allocate(request);
  ASSERT_EQ(decision.selected.size(), 1u);
  EXPECT_EQ(request.candidates[decision.selected[0]].id, ProviderId(5));
  EXPECT_GT(decision.scores[4], 0.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_LT(decision.scores[i], 0.0);
  // Allocate may leave -infinity for candidates it ruled out unscored;
  // Scores() carries the real Definition-9 values for every candidate.
  const std::vector<double> scores = method.Scores(request);
  ASSERT_EQ(scores.size(), 5u);
  EXPECT_GT(scores[4], 0.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_LT(scores[i], 0.0);
}

TEST(SqlbMethodTest, SelectsExactlyMinOfNAndCandidates) {
  Query q = MakeQuery(3);
  AllocationRequest request;
  request.query = &q;
  request.candidates = {MakeCandidate(0, 0.5, 0.5),
                        MakeCandidate(1, 0.6, 0.6)};
  SqlbMethod method;
  const auto decision = method.Allocate(request);
  EXPECT_EQ(decision.selected.size(), 2u);  // min(q.n = 3, N = 2)
}

TEST(SqlbMethodTest, AdaptiveOmegaFavoursTheLessSatisfiedSide) {
  // Two providers with mirrored intentions. When the provider is much less
  // satisfied than the consumer, omega -> 1 and the provider's intention
  // dominates: the provider-preferred candidate must win; with a highly
  // satisfied provider the consumer's preference wins.
  Query q = MakeQuery(1);
  AllocationRequest request;
  request.query = &q;
  request.consumer_satisfaction = 0.95;
  request.candidates = {
      MakeCandidate(0, /*pi=*/0.9, /*ci=*/0.3, /*provider_sat=*/0.05),
      MakeCandidate(1, /*pi=*/0.3, /*ci=*/0.9, /*provider_sat=*/0.05),
  };
  SqlbMethod method;
  auto decision = method.Allocate(request);
  EXPECT_EQ(request.candidates[decision.selected[0]].id, ProviderId(0));

  request.consumer_satisfaction = 0.05;
  request.candidates[0].provider_satisfaction = 0.95;
  request.candidates[1].provider_satisfaction = 0.95;
  decision = method.Allocate(request);
  EXPECT_EQ(request.candidates[decision.selected[0]].id, ProviderId(1));
}

TEST(SqlbMethodTest, FixedOmegaZeroRanksByConsumerIntention) {
  // Section 5.3: cooperative providers, omega = 0 -> consumer-only ranking.
  SqlbOptions options;
  options.fixed_omega = 0.0;
  SqlbMethod method(options);

  Query q = MakeQuery(1);
  AllocationRequest request;
  request.query = &q;
  request.candidates = {MakeCandidate(0, 0.99, 0.2),
                        MakeCandidate(1, 0.01, 0.8)};
  const auto decision = method.Allocate(request);
  EXPECT_EQ(request.candidates[decision.selected[0]].id, ProviderId(1));
}

TEST(SqlbMethodTest, FixedOmegaOneRanksByProviderIntention) {
  SqlbOptions options;
  options.fixed_omega = 1.0;
  SqlbMethod method(options);

  Query q = MakeQuery(1);
  AllocationRequest request;
  request.query = &q;
  request.candidates = {MakeCandidate(0, 0.99, 0.2),
                        MakeCandidate(1, 0.01, 0.8)};
  const auto decision = method.Allocate(request);
  EXPECT_EQ(request.candidates[decision.selected[0]].id, ProviderId(0));
}

TEST(SqlbMethodTest, ScoresMatchDefinition9) {
  Query q = MakeQuery(1);
  AllocationRequest request;
  request.query = &q;
  request.consumer_satisfaction = 0.7;
  request.candidates = {MakeCandidate(0, 0.5, 0.6, /*provider_sat=*/0.3)};
  SqlbMethod method;
  const auto decision = method.Allocate(request);
  const double omega = OmegaBalance(0.7, 0.3);
  EXPECT_DOUBLE_EQ(decision.scores[0], ProviderScore(0.5, 0.6, omega, 1.0));
}

TEST(SqlbMethodTest, ScoresEqualProviderScoreForEveryCandidate) {
  Rng rng(5);
  for (const std::optional<double> fixed :
       {std::optional<double>(), std::optional<double>(0.0),
        std::optional<double>(0.35), std::optional<double>(1.0)}) {
    SqlbOptions options;
    options.epsilon = 0.5;
    options.fixed_omega = fixed;
    const SqlbMethod method(options);
    Query q = MakeQuery(2);
    AllocationRequest request;
    request.query = &q;
    request.consumer_satisfaction = rng.NextDouble();
    for (std::uint32_t i = 0; i < 40; ++i) {
      request.candidates.push_back(
          MakeCandidate(i, rng.Uniform(-2.0, 1.0), rng.Uniform(-1.0, 1.0),
                        rng.NextDouble()));
    }
    const std::vector<double> scores = method.Scores(request);
    ASSERT_EQ(scores.size(), request.candidates.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      const CandidateProvider& p = request.candidates[i];
      const double omega =
          fixed.has_value() ? *fixed
                            : OmegaBalance(request.consumer_satisfaction,
                                           p.provider_satisfaction);
      EXPECT_EQ(scores[i], ProviderScore(p.provider_intention,
                                         p.consumer_intention, omega, 0.5))
          << "candidate " << i;
    }
  }
}

TEST(SqlbMethodDeathTest, ValidatesOptions) {
  SqlbOptions bad_eps;
  bad_eps.epsilon = 0.0;
  EXPECT_DEATH(SqlbMethod{bad_eps}, "epsilon");
  SqlbOptions bad_omega;
  bad_omega.fixed_omega = 1.5;
  EXPECT_DEATH(SqlbMethod{bad_omega}, "omega");
}

// Property sweep: selections are distinct, within range, and score-ordered.
class SqlbSelectionPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SqlbSelectionPropertyTest, SelectionInvariants) {
  Rng rng(GetParam());
  SqlbMethod method;
  for (int trial = 0; trial < 30; ++trial) {
    Query q = MakeQuery(1 + static_cast<std::uint32_t>(rng.NextBounded(5)));
    AllocationRequest request;
    request.query = &q;
    request.consumer_satisfaction = rng.NextDouble();
    const std::size_t n = 1 + rng.NextBounded(30);
    for (std::size_t i = 0; i < n; ++i) {
      request.candidates.push_back(MakeCandidate(
          static_cast<std::uint32_t>(i), rng.Uniform(-2.0, 1.0),
          rng.Uniform(-1.0, 1.0), rng.NextDouble()));
    }
    const auto decision = method.Allocate(request);
    ASSERT_EQ(decision.selected.size(),
              std::min<std::size_t>(q.n, n));
    ASSERT_EQ(decision.scores.size(), n);
    std::vector<bool> seen(n, false);
    double prev = 1e9;
    for (std::size_t idx : decision.selected) {
      ASSERT_LT(idx, n);
      ASSERT_FALSE(seen[idx]);
      seen[idx] = true;
      ASSERT_LE(decision.scores[idx], prev + 1e-12);  // best-first order
      prev = decision.scores[idx];
    }
    // No unselected candidate strictly beats a selected one.
    double worst_selected = prev;
    for (std::size_t i = 0; i < n; ++i) {
      if (!seen[i]) {
        ASSERT_LE(decision.scores[i], worst_selected + 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRequests, SqlbSelectionPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace sqlb
