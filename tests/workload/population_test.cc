#include "workload/population.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

namespace sqlb {
namespace {

PopulationConfig SmallConfig() {
  PopulationConfig config;
  config.num_consumers = 20;
  config.num_providers = 40;
  return config;
}

TEST(AssignLevelsTest, ExactCountsViaLargestRemainder) {
  Rng rng(1);
  const auto levels =
      AssignLevels(400, {0.10, 0.60, 0.30}, rng);
  std::map<Level, int> counts;
  for (Level l : levels) ++counts[l];
  EXPECT_EQ(counts[Level::kLow], 40);
  EXPECT_EQ(counts[Level::kMedium], 240);
  EXPECT_EQ(counts[Level::kHigh], 120);
}

TEST(AssignLevelsTest, HandlesNonDivisibleTotals) {
  Rng rng(2);
  const auto levels = AssignLevels(7, {0.10, 0.60, 0.30}, rng);
  EXPECT_EQ(levels.size(), 7u);
}

TEST(AssignLevelsDeathTest, FractionsMustSumToOne) {
  Rng rng(3);
  EXPECT_DEATH(AssignLevels(10, {0.5, 0.2, 0.2}, rng), "sum to 1");
}

TEST(PopulationTest, CapacityClassSpeedRatios) {
  // Section 6.1: high = 3x medium = 7x low, high performs a 130-unit query
  // in 1.3 s (capacity 100 units/s).
  Population population(PopulationConfig{}, 42);
  std::array<int, 3> counts{};
  for (const ProviderProfile& p : population.providers()) {
    ++counts[static_cast<std::size_t>(p.capacity_class)];
    switch (p.capacity_class) {
      case Level::kHigh:
        EXPECT_DOUBLE_EQ(p.capacity, 100.0);
        break;
      case Level::kMedium:
        EXPECT_DOUBLE_EQ(p.capacity, 100.0 / 3.0);
        break;
      case Level::kLow:
        EXPECT_DOUBLE_EQ(p.capacity, 100.0 / 7.0);
        break;
    }
  }
  EXPECT_EQ(counts[0], 40);   // 10% low
  EXPECT_EQ(counts[1], 240);  // 60% medium
  EXPECT_EQ(counts[2], 120);  // 30% high
}

TEST(PopulationTest, TotalCapacityIsAggregate) {
  Population population(PopulationConfig{}, 42);
  const double expected =
      40 * (100.0 / 7.0) + 240 * (100.0 / 3.0) + 120 * 100.0;
  EXPECT_NEAR(population.total_capacity(), expected, 1e-6);
}

TEST(PopulationTest, MeanQueryUnits) {
  Population population(PopulationConfig{}, 42);
  EXPECT_DOUBLE_EQ(population.mean_query_units(), 140.0);  // (130+150)/2
  EXPECT_DOUBLE_EQ(population.QueryUnits(0), 130.0);
  EXPECT_DOUBLE_EQ(population.QueryUnits(1), 150.0);
}

TEST(PopulationTest, ConsumerPreferencesRespectInterestClassRanges) {
  Population population(SmallConfig(), 7);
  for (std::uint32_t c = 0; c < 20; ++c) {
    for (std::uint32_t p = 0; p < 40; ++p) {
      const double pref =
          population.ConsumerPreference(ConsumerId(c), ProviderId(p));
      const Level level = population.provider(ProviderId(p)).interest_class;
      switch (level) {
        case Level::kHigh:
          EXPECT_GE(pref, 0.34);
          EXPECT_LE(pref, 1.0);
          break;
        case Level::kMedium:
          EXPECT_GE(pref, -0.54);
          EXPECT_LE(pref, 0.34);
          break;
        case Level::kLow:
          EXPECT_GE(pref, -1.0);
          EXPECT_LE(pref, -0.54);
          break;
      }
    }
  }
}

TEST(PopulationTest, ProviderPreferencesRespectAdaptationClassRanges) {
  Population population(SmallConfig(), 7);
  for (std::uint32_t p = 0; p < 40; ++p) {
    const Level level = population.provider(ProviderId(p)).adaptation_class;
    for (QueryId q = 0; q < 200; ++q) {
      const double pref = population.ProviderPreference(ProviderId(p), q);
      switch (level) {
        case Level::kHigh:
          ASSERT_GE(pref, -0.2);
          ASSERT_LE(pref, 1.0);
          break;
        case Level::kMedium:
          ASSERT_GE(pref, -0.6);
          ASSERT_LE(pref, 0.6);
          break;
        case Level::kLow:
          ASSERT_GE(pref, -1.0);
          ASSERT_LE(pref, 0.2);
          break;
      }
    }
  }
}

TEST(PopulationTest, ProviderPreferenceIsStableAcrossCalls) {
  Population population(SmallConfig(), 7);
  const double first = population.ProviderPreference(ProviderId(3), 17);
  (void)population.ProviderPreference(ProviderId(9), 99);
  EXPECT_EQ(population.ProviderPreference(ProviderId(3), 17), first);
}

TEST(PopulationTest, BatchDrawsEqualThePerIdCalls) {
  // ids in scattered order, with repeats.
  std::vector<ProviderId> ids;
  for (std::uint32_t i = 0; i < 40; ++i) ids.push_back(ProviderId(i * 17 % 40));
  ids.push_back(ProviderId(5));
  ids.push_back(ProviderId(0));
  for (bool lazy : {false, true}) {
    PopulationConfig config = SmallConfig();
    config.lazy_consumer_preferences = lazy;
    Population population(config, 31);
    std::vector<double> batch(ids.size());
    for (std::uint32_t c : {0u, 7u, 19u}) {
      population.ConsumerPreferences(ConsumerId(c), ids.data(), ids.size(),
                                     batch.data());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(batch[i],
                  population.ConsumerPreference(ConsumerId(c), ids[i]))
            << (lazy ? "lazy " : "eager ") << c << " " << i;
      }
    }
    for (QueryId q : {QueryId{0}, QueryId{3}, QueryId{123456789}}) {
      population.ProviderPreferences(ids.data(), ids.size(), q, batch.data());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(batch[i], population.ProviderPreference(ids[i], q))
            << q << " " << i;
      }
    }
  }
}

TEST(PopulationDeathTest, BatchDrawsCheckEveryId) {
  Population population(SmallConfig(), 3);
  const std::vector<ProviderId> ids = {ProviderId(1), ProviderId(40)};
  std::vector<double> out(ids.size());
  EXPECT_DEATH(population.ProviderPreferences(ids.data(), ids.size(), 0,
                                              out.data()),
               "unknown provider id");
  EXPECT_DEATH(population.ConsumerPreferences(ConsumerId(0), ids.data(),
                                              ids.size(), out.data()),
               "unknown provider id");
}

TEST(PopulationTest, SameSeedSamePopulation) {
  Population a(SmallConfig(), 123), b(SmallConfig(), 123);
  for (std::uint32_t p = 0; p < 40; ++p) {
    EXPECT_EQ(a.provider(ProviderId(p)).capacity,
              b.provider(ProviderId(p)).capacity);
    EXPECT_EQ(a.provider(ProviderId(p)).interest_class,
              b.provider(ProviderId(p)).interest_class);
    EXPECT_EQ(a.ConsumerPreference(ConsumerId(1), ProviderId(p)),
              b.ConsumerPreference(ConsumerId(1), ProviderId(p)));
  }
}

TEST(PopulationTest, DifferentSeedsDiffer) {
  Population a(SmallConfig(), 1), b(SmallConfig(), 2);
  int identical = 0;
  for (std::uint32_t p = 0; p < 40; ++p) {
    if (a.ConsumerPreference(ConsumerId(0), ProviderId(p)) ==
        b.ConsumerPreference(ConsumerId(0), ProviderId(p))) {
      ++identical;
    }
  }
  EXPECT_LT(identical, 3);
}

TEST(LevelNameTest, HumanReadable) {
  EXPECT_STREQ(LevelName(Level::kLow), "low");
  EXPECT_STREQ(LevelName(Level::kMedium), "medium");
  EXPECT_STREQ(LevelName(Level::kHigh), "high");
}

}  // namespace
}  // namespace sqlb
