// Cross-method contract tests: every AllocationMethod implementation must
// honour the Section 2 allocation semantics — min(q.n, N) distinct
// selections (strict economic brokers may select fewer, never more), with
// scores aligned to the candidate vector.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/allocation.h"
#include "experiments/experiments.h"

namespace sqlb {
namespace {

using experiments::MakeMethod;
using experiments::MethodKind;

TEST(SelectionCountTest, MinOfNAndCandidates) {
  Query q;
  q.n = 3;
  AllocationRequest request;
  request.query = &q;
  request.candidates.resize(5);
  EXPECT_EQ(SelectionCount(request), 3u);
  request.candidates.resize(2);
  EXPECT_EQ(SelectionCount(request), 2u);
  q.n = 1;
  EXPECT_EQ(SelectionCount(request), 1u);
}

TEST(SelectionCountDeathTest, RequiresQuery) {
  AllocationRequest request;  // no query attached
  EXPECT_DEATH(SelectionCount(request), "query");
}

class AllocationContractTest
    : public ::testing::TestWithParam<MethodKind> {};

TEST_P(AllocationContractTest, SelectionsAreDistinctBoundedAndAligned) {
  auto method = MakeMethod(GetParam(), /*seed=*/99);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);

  for (int trial = 0; trial < 50; ++trial) {
    Query q;
    q.id = static_cast<QueryId>(trial);
    q.consumer = ConsumerId(0);
    q.n = 1 + static_cast<std::uint32_t>(rng.NextBounded(6));
    q.units = 130.0;

    AllocationRequest request;
    request.query = &q;
    request.consumer_satisfaction = rng.NextDouble();
    const std::size_t n_candidates = 1 + rng.NextBounded(40);
    for (std::size_t i = 0; i < n_candidates; ++i) {
      CandidateProvider c;
      c.id = ProviderId(static_cast<std::uint32_t>(i));
      c.consumer_intention = rng.Uniform(-1.0, 1.0);
      c.provider_intention = rng.Uniform(-2.0, 1.0);
      c.provider_satisfaction = rng.NextDouble();
      c.utilization = rng.Uniform(0.0, 2.0);
      c.capacity = rng.Uniform(14.0, 100.0);
      c.backlog_seconds = rng.Uniform(0.0, 60.0);
      c.bid_price = rng.Uniform(0.05, 1.05);
      c.estimated_delay = c.backlog_seconds + q.units / c.capacity;
      request.candidates.push_back(c);
    }

    const AllocationDecision decision = method->Allocate(request);
    ASSERT_LE(decision.selected.size(), SelectionCount(request));
    ASSERT_EQ(decision.scores.size(), n_candidates);
    std::set<std::size_t> unique(decision.selected.begin(),
                                 decision.selected.end());
    ASSERT_EQ(unique.size(), decision.selected.size())
        << "duplicate selection";
    for (std::size_t idx : decision.selected) {
      ASSERT_LT(idx, n_candidates);
    }
  }
}

/// The columnar entry point must decide bit-for-bit like the AoS one —
/// whether a method overrides AllocateColumns with an SoA kernel (SQLB,
/// capacity-based, Mariposa) or inherits the materializing adapter. Note:
/// stateful methods (round-robin cursor, random stream) must see the same
/// request sequence on both sides, so each trial runs two freshly seeded
/// twins.
TEST_P(AllocationContractTest, ColumnarDecisionMatchesAoSBitForBit) {
  auto aos_method = MakeMethod(GetParam(), /*seed=*/123);
  auto col_method = MakeMethod(GetParam(), /*seed=*/123);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);

  for (int trial = 0; trial < 40; ++trial) {
    Query q;
    q.id = static_cast<QueryId>(trial);
    q.consumer = ConsumerId(0);
    q.n = 1 + static_cast<std::uint32_t>(rng.NextBounded(5));
    q.units = 130.0;

    AllocationRequest request;
    request.query = &q;
    request.consumer_satisfaction = rng.NextDouble();
    CandidateColumns columns;
    const std::size_t n_candidates = 1 + rng.NextBounded(40);
    for (std::size_t i = 0; i < n_candidates; ++i) {
      CandidateProvider c;
      c.id = ProviderId(static_cast<std::uint32_t>(i));
      c.consumer_intention = rng.Uniform(-1.0, 1.0);
      c.provider_intention = rng.Uniform(-2.0, 1.0);
      c.provider_satisfaction = rng.NextDouble();
      c.utilization = rng.Uniform(0.0, 2.0);
      c.capacity = rng.Uniform(14.0, 100.0);
      c.backlog_seconds = rng.Uniform(0.0, 60.0);
      c.bid_price = rng.Uniform(0.05, 1.05);
      c.estimated_delay = c.backlog_seconds + q.units / c.capacity;
      request.candidates.push_back(c);
      columns.Push(c);
    }
    ColumnarRequest columnar;
    columnar.query = &q;
    columnar.consumer_satisfaction = request.consumer_satisfaction;
    columnar.candidates = &columns;

    const AllocationDecision aos = aos_method->Allocate(request);
    const AllocationDecision col = col_method->AllocateColumns(columnar);
    ASSERT_EQ(aos.selected, col.selected) << "trial " << trial;
    ASSERT_EQ(aos.scores.size(), col.scores.size());
    for (std::size_t i = 0; i < aos.scores.size(); ++i) {
      ASSERT_EQ(aos.scores[i], col.scores[i]) << "trial " << trial
                                              << " score " << i;
    }
  }
}

TEST(CandidateColumnsTest, AtGathersTheExactPushedCandidate) {
  CandidateColumns columns;
  CandidateProvider c;
  c.id = ProviderId(7);
  c.consumer_intention = 0.25;
  c.provider_intention = -1.5;
  c.provider_satisfaction = 0.625;
  c.utilization = 1.125;
  c.capacity = 33.0;
  c.backlog_seconds = 12.5;
  c.bid_price = 0.55;
  c.estimated_delay = 16.4;
  columns.Push(c);
  ASSERT_EQ(columns.size(), 1u);
  const CandidateProvider back = columns.At(0);
  EXPECT_EQ(back.id, c.id);
  EXPECT_EQ(back.consumer_intention, c.consumer_intention);
  EXPECT_EQ(back.provider_intention, c.provider_intention);
  EXPECT_EQ(back.provider_satisfaction, c.provider_satisfaction);
  EXPECT_EQ(back.utilization, c.utilization);
  EXPECT_EQ(back.capacity, c.capacity);
  EXPECT_EQ(back.backlog_seconds, c.backlog_seconds);
  EXPECT_EQ(back.bid_price, c.bid_price);
  EXPECT_EQ(back.estimated_delay, c.estimated_delay);
}

TEST(CandidateColumnsTest, PushListsTheMutuallyWillingPairs) {
  CandidateColumns columns;
  // (PI, CI) per candidate: only both > 0 is willing; 0 is not.
  const double intentions[][2] = {{0.5, 0.5},  {-0.5, 0.5}, {0.5, -0.5},
                                  {0.0, 0.5},  {0.5, 0.0},  {1.0, 1e-300},
                                  {-1.0, -1.0}, {0.25, 0.75}};
  for (const auto& [pi, ci] : intentions) {
    CandidateProvider c;
    c.provider_intention = pi;
    c.consumer_intention = ci;
    columns.Push(c);
  }
  EXPECT_EQ(columns.willing, (std::vector<std::uint32_t>{0, 5, 7}));
  columns.Clear();
  EXPECT_TRUE(columns.willing.empty());
  columns.ResizeRequired(3);
  EXPECT_TRUE(columns.willing.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, AllocationContractTest,
    ::testing::Values(MethodKind::kSqlb, MethodKind::kCapacityBased,
                      MethodKind::kCapacityMaxAvailable,
                      MethodKind::kMariposa, MethodKind::kRandom,
                      MethodKind::kRoundRobin, MethodKind::kKnBest,
                      MethodKind::kSqlbEconomic),
    [](const ::testing::TestParamInfo<MethodKind>& info) {
      std::string name = experiments::MethodName(info.param);
      std::string out;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      }
      return out;
    });

}  // namespace
}  // namespace sqlb
