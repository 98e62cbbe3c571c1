#include "model/windows.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "mem/agent_arena.h"
#include "model/characterization.h"

namespace sqlb {
namespace {

WindowConfig SmallWindow(std::size_t k) {
  WindowConfig config;
  config.capacity = k;
  config.prior = 0.5;
  config.satisfaction_prior_weight = 1.0;
  return config;
}

TEST(ConsumerWindowTest, StartsAtPrior) {
  ConsumerWindow w(SmallWindow(10));
  EXPECT_DOUBLE_EQ(w.Adequation(), 0.5);
  EXPECT_DOUBLE_EQ(w.Satisfaction(), 0.5);
  EXPECT_DOUBLE_EQ(w.AllocationSatisfactionValue(), 1.0);
  EXPECT_EQ(w.recorded(), 0u);
}

TEST(ConsumerWindowTest, PriorWashesOutAsWindowFills) {
  ConsumerWindow w(SmallWindow(4));
  w.Record(1.0, 1.0);
  // (1 + 3 * 0.5) / 4 = 0.625: one observation pulls the blend up a bit.
  EXPECT_DOUBLE_EQ(w.Satisfaction(), 0.625);
  w.Record(1.0, 1.0);
  w.Record(1.0, 1.0);
  w.Record(1.0, 1.0);
  EXPECT_DOUBLE_EQ(w.Satisfaction(), 1.0);  // full window, no prior left
}

TEST(ConsumerWindowTest, EvictionDropsOldEvidence) {
  ConsumerWindow w(SmallWindow(2));
  w.Record(0.0, 0.0);
  w.Record(0.0, 0.0);
  EXPECT_DOUBLE_EQ(w.Satisfaction(), 0.0);
  w.Record(1.0, 1.0);
  w.Record(1.0, 1.0);
  EXPECT_DOUBLE_EQ(w.Satisfaction(), 1.0);
  EXPECT_DOUBLE_EQ(w.Adequation(), 1.0);
  EXPECT_EQ(w.recorded(), 4u);
  EXPECT_EQ(w.size(), 2u);
}

TEST(ConsumerWindowTest, RawValuesMatchDefinitions) {
  ConsumerWindow w(SmallWindow(10));
  EXPECT_DOUBLE_EQ(w.RawAdequation(), 0.0);  // empty, as Defs. 1-2 imply
  w.Record(0.8, 0.4);
  w.Record(0.6, 0.2);
  EXPECT_DOUBLE_EQ(w.RawAdequation(), 0.7);
  EXPECT_DOUBLE_EQ(w.RawSatisfaction(), 0.3);
}

TEST(ConsumerWindowTest, AllocationSatisfactionAboveOneWhenServedWell) {
  ConsumerWindow w(SmallWindow(4));
  for (int i = 0; i < 4; ++i) w.Record(0.6, 0.9);
  EXPECT_NEAR(w.AllocationSatisfactionValue(), 1.5, 1e-12);
}

TEST(ConsumerWindowDeathTest, RejectsOutOfRangeValues) {
  ConsumerWindow w(SmallWindow(4));
  EXPECT_DEATH(w.Record(1.5, 0.5), "adequation");
  EXPECT_DEATH(w.Record(0.5, -0.1), "satisfaction");
}

TEST(ProviderWindowTest, StartsAtPrior) {
  ProviderWindow w(SmallWindow(10));
  EXPECT_DOUBLE_EQ(w.Adequation(ProviderWindow::Channel::kIntention), 0.5);
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kIntention), 0.5);
  EXPECT_DOUBLE_EQ(
      w.AllocationSatisfactionValue(ProviderWindow::Channel::kIntention),
      1.0);
}

TEST(ProviderWindowTest, AdequationAveragesAllProposals) {
  ProviderWindow w(SmallWindow(2));
  w.Record(1.0, 0.5, false);
  w.Record(0.0, -0.5, false);
  // Intention channel: mean((1+1)/2, (0+1)/2) = 0.75.
  EXPECT_DOUBLE_EQ(w.Adequation(ProviderWindow::Channel::kIntention), 0.75);
  // Preference channel: mean(0.75, 0.25) = 0.5.
  EXPECT_DOUBLE_EQ(w.Adequation(ProviderWindow::Channel::kPreference), 0.5);
}

TEST(ProviderWindowTest, SatisfactionOnlyCountsPerformedQueries) {
  ProviderWindow w(SmallWindow(4));
  w.Record(1.0, 1.0, false);   // proposed, not performed
  w.Record(-1.0, -1.0, true);  // performed an unwanted query
  // Performed subset = {intention -1}: raw Def. 5 value is 0.
  EXPECT_DOUBLE_EQ(w.RawSatisfaction(ProviderWindow::Channel::kIntention),
                   0.0);
  // Blended with the 0.5 prior (pseudo-count 1): (0 + 0.5) / 2 = 0.25.
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kIntention),
                   0.25);
}

TEST(ProviderWindowTest, RawSatisfactionZeroWhenNothingPerformed) {
  ProviderWindow w(SmallWindow(4));
  w.Record(0.8, 0.8, false);
  EXPECT_DOUBLE_EQ(w.RawSatisfaction(ProviderWindow::Channel::kIntention),
                   0.0);  // Definition 5's "0 otherwise"
  // The blended value stays at the prior instead.
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kIntention), 0.5);
}

TEST(ProviderWindowTest, EvictionUpdatesPerformedSubset) {
  ProviderWindow w(SmallWindow(2));
  w.Record(1.0, 1.0, true);
  w.Record(0.5, 0.5, false);
  EXPECT_EQ(w.performed_in_window(), 1u);
  w.Record(-1.0, -1.0, true);  // evicts the performed (1.0) entry
  EXPECT_EQ(w.performed_in_window(), 1u);
  EXPECT_DOUBLE_EQ(w.RawSatisfaction(ProviderWindow::Channel::kIntention),
                   0.0);
  EXPECT_EQ(w.performed(), 2u);  // lifetime counter unaffected by eviction
  EXPECT_EQ(w.proposed(), 3u);
}

TEST(ProviderWindowTest, ClampsOvershootingIntentions) {
  ProviderWindow w(SmallWindow(2));
  w.Record(-2.5, 0.0, true);  // Def. 8 overshoot
  EXPECT_DOUBLE_EQ(w.RawAdequation(ProviderWindow::Channel::kIntention),
                   0.0);
}

TEST(ProviderWindowTest, SatisfactionIsStickyWhenSubsetEmpties) {
  // Strict Def. 5 (prior weight 0): the satisfaction holds its last known
  // value while the performed subset is empty, instead of snapping to the
  // literal 0 (DESIGN.md fidelity decision; WindowConfig doc).
  WindowConfig config;
  config.capacity = 2;
  config.satisfaction_prior_weight = 0.0;
  ProviderWindow w(config);
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kIntention),
                   0.5);  // initial prior
  w.Record(0.8, 0.8, true);  // performed: unit value 0.9
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kIntention), 0.9);
  // Two non-performed proposals evict the performed entry.
  w.Record(0.0, 0.0, false);
  w.Record(0.0, 0.0, false);
  EXPECT_EQ(w.performed_in_window(), 0u);
  EXPECT_DOUBLE_EQ(w.RawSatisfaction(ProviderWindow::Channel::kIntention),
                   0.0);  // literal Definition 5
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kIntention),
                   0.9);  // sticky
  // New evidence replaces the held value.
  w.Record(-1.0, -1.0, true);
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kIntention), 0.0);
}

TEST(ProviderWindowTest, StickinessIsPerChannel) {
  WindowConfig config;
  config.capacity = 1;
  config.satisfaction_prior_weight = 0.0;
  ProviderWindow w(config);
  w.Record(1.0, -1.0, true);  // intention unit 1, preference unit 0
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kIntention), 1.0);
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kPreference),
                   0.0);
  w.Record(0.0, 0.0, false);  // evicts; both channels hold their values
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kIntention), 1.0);
  EXPECT_DOUBLE_EQ(w.Satisfaction(ProviderWindow::Channel::kPreference),
                   0.0);
}

TEST(ProviderWindowTest, TwoChannelsAreIndependent) {
  ProviderWindow w(SmallWindow(3));
  // Shown intention positive while private preference negative (a loaded
  // but satisfied provider accepting unwanted work).
  w.Record(0.8, -0.6, true);
  EXPECT_GT(w.Satisfaction(ProviderWindow::Channel::kIntention),
            w.Satisfaction(ProviderWindow::Channel::kPreference));
}

// Property sweep: all window outputs stay in range under random streams.
class WindowRangeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowRangeTest, BoundedOutputs) {
  Rng rng(GetParam());
  ProviderWindow pw(SmallWindow(1 + rng.NextBounded(20)));
  ConsumerWindow cw(SmallWindow(1 + rng.NextBounded(20)));
  for (int i = 0; i < 500; ++i) {
    pw.Record(rng.Uniform(-3.0, 1.5), rng.Uniform(-1.0, 1.0),
              rng.Bernoulli(0.3));
    cw.Record(rng.NextDouble(), rng.NextDouble());
    for (auto channel : {ProviderWindow::Channel::kIntention,
                         ProviderWindow::Channel::kPreference}) {
      ASSERT_GE(pw.Adequation(channel), 0.0);
      ASSERT_LE(pw.Adequation(channel), 1.0);
      ASSERT_GE(pw.Satisfaction(channel), 0.0);
      ASSERT_LE(pw.Satisfaction(channel), 1.0);
      ASSERT_GE(pw.AllocationSatisfactionValue(channel), 0.0);
    }
    ASSERT_GE(cw.Satisfaction(), 0.0);
    ASSERT_LE(cw.Satisfaction(), 1.0);
    ASSERT_GE(cw.Adequation(), 0.0);
    ASSERT_LE(cw.Adequation(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, WindowRangeTest,
                         ::testing::Range<std::uint64_t>(0, 20));

// Reference for ProviderWindow: the entries as a deque of {intention unit,
// preference unit, performed} and running sums added and subtracted in the
// same order, with Definitions 4-6 and the sticky satisfaction written out.
class ReferenceProviderWindow {
 public:
  explicit ReferenceProviderWindow(const WindowConfig& config)
      : config_(config), last_{config.prior, config.prior} {}

  void Record(double intention, double preference, bool performed) {
    const Entry entry{IntentionToUnit(intention), IntentionToUnit(preference),
                      performed};
    bool perf_changed = performed;
    if (entries_.size() == config_.capacity) {
      const Entry evicted = entries_.front();
      entries_.pop_front();
      sum_[0] -= evicted.units[0];
      sum_[1] -= evicted.units[1];
      if (evicted.performed) {
        perf_sum_[0] -= evicted.units[0];
        perf_sum_[1] -= evicted.units[1];
        --performed_;
        perf_changed = true;
      }
    }
    if (perf_changed) ++revision_;
    entries_.push_back(entry);
    sum_[0] += entry.units[0];
    sum_[1] += entry.units[1];
    if (performed) {
      perf_sum_[0] += entry.units[0];
      perf_sum_[1] += entry.units[1];
      ++performed_;
    }
  }

  double Adequation(int c) const {
    const double k = static_cast<double>(config_.capacity);
    const double m = static_cast<double>(entries_.size());
    return Clamp((sum_[c] + (k - m) * config_.prior) / k, 0.0, 1.0);
  }
  double Satisfaction(int c) const {
    const double s = static_cast<double>(performed_);
    const double w = config_.satisfaction_prior_weight;
    if (s + w <= 0.0) return last_[c];
    const double value =
        Clamp((perf_sum_[c] + w * config_.prior) / (s + w), 0.0, 1.0);
    if (performed_ > 0) last_[c] = value;
    return value;
  }
  double RawAdequation(int c) const {
    return entries_.empty() ? 0.0
                            : sum_[c] / static_cast<double>(entries_.size());
  }
  double RawSatisfaction(int c) const {
    return performed_ == 0 ? 0.0
                           : perf_sum_[c] / static_cast<double>(performed_);
  }
  std::size_t size() const { return entries_.size(); }
  std::size_t performed() const { return performed_; }
  std::uint64_t revision() const { return revision_; }

 private:
  struct Entry {
    double units[2];  // intention, preference
    bool performed;
  };
  WindowConfig config_;
  std::deque<Entry> entries_;
  double sum_[2] = {0.0, 0.0};
  double perf_sum_[2] = {0.0, 0.0};
  std::size_t performed_ = 0;
  std::uint64_t revision_ = 0;
  mutable double last_[2];
};

std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

void ExpectMatchesReference(ProviderWindow& window,
                            const ReferenceProviderWindow& reference) {
  ASSERT_EQ(window.size(), reference.size());
  ASSERT_EQ(window.performed_in_window(), reference.performed());
  ASSERT_EQ(window.satisfaction_revision(), reference.revision());
  const ProviderWindow::Channel channels[] = {
      ProviderWindow::Channel::kIntention,
      ProviderWindow::Channel::kPreference};
  for (int c = 0; c < 2; ++c) {
    const ProviderWindow::Channel channel = channels[c];
    ASSERT_EQ(Bits(window.RawAdequation(channel)),
              Bits(reference.RawAdequation(c)));
    ASSERT_EQ(Bits(window.RawSatisfaction(channel)),
              Bits(reference.RawSatisfaction(c)));
    ASSERT_EQ(Bits(window.Adequation(channel)), Bits(reference.Adequation(c)));
    ASSERT_EQ(Bits(window.Satisfaction(channel)),
              Bits(reference.Satisfaction(c)));
    ASSERT_EQ(Bits(window.AllocationSatisfactionValue(channel)),
              Bits(AllocationSatisfaction(reference.Satisfaction(c),
                                          reference.Adequation(c))));
  }
}

TEST(ProviderWindowTest, PackedEntriesMatchReferenceOnEveryBacking) {
  Rng rng(2024);
  mem::AgentPoolConfig pool_config;
  pool_config.enabled = true;
  mem::AgentArena arena(pool_config);
  // 31 entries fill one 512-byte chunk; 500 is the paper's provider k.
  for (std::size_t capacity : {1, 2, 31, 32, 37, 500}) {
    for (double prior_weight : {0.0, 1.0}) {
      SCOPED_TRACE(::testing::Message() << "capacity " << capacity
                                        << " prior weight " << prior_weight);
      WindowConfig config = SmallWindow(capacity);
      config.satisfaction_prior_weight = prior_weight;
      ReferenceProviderWindow reference(config);
      ProviderWindow eager(config, /*lazy=*/false);
      ProviderWindow lazy_heap(config, /*lazy=*/true);
      ProviderWindow lazy_pooled(config, /*lazy=*/true);
      lazy_pooled.set_chunk_pool(arena.slabs());
      ProviderWindow* windows[] = {&eager, &lazy_heap, &lazy_pooled};
      const std::size_t records = 2 * capacity + 64;
      for (std::size_t r = 0; r < records; ++r) {
        // Intention and preference -1 map to the unit +0.0, whose sign bit
        // is the performed flag once negated.
        double intention = rng.Uniform(-3.0, 1.5);
        double preference = rng.Uniform(-1.0, 1.0);
        switch (rng.NextBounded(4)) {
          case 0: intention = -1.0; break;
          case 1: preference = -1.0; break;
          case 2: intention = -1.0; preference = -1.0; break;
          default: break;
        }
        const bool performed = rng.Bernoulli(0.4);
        reference.Record(intention, preference, performed);
        for (ProviderWindow* window : windows) {
          window->Record(intention, preference, performed);
          ExpectMatchesReference(*window, reference);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sqlb
