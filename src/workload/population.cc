#include "workload/population.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/status.h"

namespace sqlb {

const char* LevelName(Level level) {
  switch (level) {
    case Level::kLow:
      return "low";
    case Level::kMedium:
      return "medium";
    case Level::kHigh:
      return "high";
  }
  return "?";
}

std::vector<Level> AssignLevels(std::size_t total,
                                const std::array<double, 3>& fractions,
                                Rng& rng) {
  const double sum = fractions[0] + fractions[1] + fractions[2];
  SQLB_CHECK(std::fabs(sum - 1.0) < 1e-9, "class fractions must sum to 1");

  // Largest-remainder rounding so counts match fractions exactly.
  std::array<std::size_t, 3> counts{};
  std::array<double, 3> remainders{};
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const double exact = fractions[i] * static_cast<double>(total);
    counts[i] = static_cast<std::size_t>(exact);
    remainders[i] = exact - static_cast<double>(counts[i]);
    assigned += counts[i];
  }
  while (assigned < total) {
    const std::size_t i = static_cast<std::size_t>(std::distance(
        remainders.begin(),
        std::max_element(remainders.begin(), remainders.end())));
    ++counts[i];
    remainders[i] = -1.0;
    ++assigned;
  }

  std::vector<Level> levels;
  levels.reserve(total);
  for (std::size_t i = 0; i < 3; ++i) {
    levels.insert(levels.end(), counts[i], static_cast<Level>(i));
  }
  rng.Shuffle(levels);
  return levels;
}

Population::Population(const PopulationConfig& config, std::uint64_t seed)
    : config_(config),
      provider_pref_rng_(seed ^ 0xa11c0de5ULL),
      consumer_pref_rng_(seed ^ 0x10e6c0deULL) {
  SQLB_CHECK(config_.num_consumers >= 1, "need at least one consumer");
  SQLB_CHECK(config_.num_providers >= 1, "need at least one provider");
  SQLB_CHECK(!config_.query_class_units.empty(), "need >= 1 query class");
  SQLB_CHECK(config_.high_capacity_units_per_second > 0.0,
             "capacity must be positive");
  SQLB_CHECK(config_.medium_capacity_ratio >= 1.0 &&
                 config_.low_capacity_ratio >= config_.medium_capacity_ratio,
             "capacity ratios must satisfy high >= medium >= low");

  Rng rng(seed);
  Rng capacity_rng = rng.Fork(1);
  Rng interest_rng = rng.Fork(2);
  Rng adaptation_rng = rng.Fork(3);
  Rng pref_rng = rng.Fork(4);

  const auto capacity_levels =
      AssignLevels(config_.num_providers, config_.capacity_fractions,
                   capacity_rng);
  const auto interest_levels =
      AssignLevels(config_.num_providers, config_.interest_fractions,
                   interest_rng);
  const auto adaptation_levels =
      AssignLevels(config_.num_providers, config_.adaptation_fractions,
                   adaptation_rng);

  const double high = config_.high_capacity_units_per_second;
  providers_.reserve(config_.num_providers);
  for (std::size_t i = 0; i < config_.num_providers; ++i) {
    ProviderProfile profile;
    profile.id = ProviderId(static_cast<std::uint32_t>(i));
    profile.capacity_class = capacity_levels[i];
    profile.interest_class = interest_levels[i];
    profile.adaptation_class = adaptation_levels[i];
    switch (profile.capacity_class) {
      case Level::kHigh:
        profile.capacity = high;
        break;
      case Level::kMedium:
        profile.capacity = high / config_.medium_capacity_ratio;
        break;
      case Level::kLow:
        profile.capacity = high / config_.low_capacity_ratio;
        break;
    }
    total_capacity_ += profile.capacity;
    providers_.push_back(profile);
  }

  // Persistent consumer preferences, drawn within each provider's
  // interest-class range. Lazy mode skips the C x P matrix entirely and
  // serves each cell from the keyed counter RNG on demand.
  if (!config_.lazy_consumer_preferences) {
    consumer_pref_.resize(config_.num_consumers * config_.num_providers);
    for (std::size_t c = 0; c < config_.num_consumers; ++c) {
      for (std::size_t p = 0; p < config_.num_providers; ++p) {
        const PrefRange range =
            config_.interest_ranges[static_cast<std::size_t>(
                providers_[p].interest_class)];
        consumer_pref_[c * config_.num_providers + p] =
            pref_rng.Uniform(range.lo, range.hi);
      }
    }
  }

  mean_query_units_ =
      std::accumulate(config_.query_class_units.begin(),
                      config_.query_class_units.end(), 0.0) /
      static_cast<double>(config_.query_class_units.size());
}

const ProviderProfile& Population::provider(ProviderId id) const {
  SQLB_CHECK(id.index() < providers_.size(), "unknown provider id");
  return providers_[id.index()];
}

double Population::ConsumerPreference(ConsumerId c, ProviderId p) const {
  double pref;
  ConsumerPreferences(c, &p, 1, &pref);
  return pref;
}

double Population::ProviderPreference(ProviderId p, QueryId q) const {
  double pref;
  ProviderPreferences(&p, 1, q, &pref);
  return pref;
}

void Population::ConsumerPreferences(ConsumerId c, const ProviderId* ids,
                                     std::size_t n, double* out) const {
  SQLB_CHECK(c.index() < config_.num_consumers, "unknown consumer id");
  if (config_.lazy_consumer_preferences) {
    for (std::size_t i = 0; i < n; ++i) {
      SQLB_CHECK(ids[i].index() < providers_.size(), "unknown provider id");
      const PrefRange range = config_.interest_ranges[static_cast<std::size_t>(
          providers_[ids[i].index()].interest_class)];
      out[i] = consumer_pref_rng_.Uniform(range.lo, range.hi, c.index(),
                                          ids[i].index());
    }
    return;
  }
  const double* row = consumer_pref_.data() +
                      static_cast<std::size_t>(c.index()) *
                          config_.num_providers;
  for (std::size_t i = 0; i < n; ++i) {
    SQLB_CHECK(ids[i].index() < providers_.size(), "unknown provider id");
    out[i] = row[ids[i].index()];
  }
}

void Population::ProviderPreferences(const ProviderId* ids, std::size_t n,
                                     QueryId q, double* out) const {
  for (std::size_t i = 0; i < n; ++i) {
    SQLB_CHECK(ids[i].index() < providers_.size(), "unknown provider id");
    const PrefRange range = config_.adaptation_ranges[static_cast<std::size_t>(
        providers_[ids[i].index()].adaptation_class)];
    out[i] = provider_pref_rng_.Uniform(range.lo, range.hi, ids[i].index(), q);
  }
}

double Population::QueryUnits(std::uint32_t class_index) const {
  SQLB_CHECK(class_index < config_.query_class_units.size(),
             "unknown query class");
  return config_.query_class_units[class_index];
}

}  // namespace sqlb
