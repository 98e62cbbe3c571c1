#ifndef SQLB_WORKLOAD_POPULATION_H_
#define SQLB_WORKLOAD_POPULATION_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

/// \file
/// The participant population of Section 6.1 / Table 2.
///
/// Providers carry three independent class labels:
///  - capacity class (from [20]): 10% low / 60% medium / 30% high, with
///    speed ratio high = 3x medium = 7x low;
///  - consumer-interest class: 60% high / 30% medium / 10% low, fixing the
///    range each consumer draws its persistent preference for the provider
///    from ([.34, 1], [-.54, .34], [-1, -.54] respectively);
///  - adaptation class: 35% high / 60% medium / 5% low, fixing the range
///    the provider draws its per-query preference from ([-.2, 1],
///    [-.6, .6], [-1, .2] respectively).
///
/// Consumer preferences are persistent (drawn once per run: long-term
/// interests); provider preferences are drawn per (provider, query) with an
/// order-independent counter RNG (DESIGN.md fidelity decision 5).

namespace sqlb {

/// Three-level class label; the semantics depend on the dimension.
enum class Level : std::uint8_t { kLow = 0, kMedium = 1, kHigh = 2 };

/// Human-readable label ("low", "medium", "high").
const char* LevelName(Level level);

/// Inclusive value range for preference draws.
struct PrefRange {
  double lo;
  double hi;
};

struct PopulationConfig {
  std::size_t num_consumers = 200;
  std::size_t num_providers = 400;

  /// Capacity classes: fractions must sum to 1.
  std::array<double, 3> capacity_fractions{0.10, 0.60, 0.30};
  /// Units/second of a high-capacity provider. 100 performs the paper's
  /// 130-unit query in 1.3 s and the 150-unit one in 1.5 s.
  double high_capacity_units_per_second = 100.0;
  /// high = medium_ratio x medium = low_ratio x low.
  double medium_capacity_ratio = 3.0;
  double low_capacity_ratio = 7.0;

  /// Consumer-interest classes over providers (low, medium, high).
  std::array<double, 3> interest_fractions{0.10, 0.30, 0.60};
  std::array<PrefRange, 3> interest_ranges{
      PrefRange{-1.0, -0.54}, PrefRange{-0.54, 0.34}, PrefRange{0.34, 1.0}};

  /// Adaptation classes over providers (low, medium, high).
  std::array<double, 3> adaptation_fractions{0.05, 0.60, 0.35};
  std::array<PrefRange, 3> adaptation_ranges{
      PrefRange{-1.0, 0.2}, PrefRange{-0.6, 0.6}, PrefRange{-0.2, 1.0}};

  /// Query classes: treatment units, uniformly chosen per query.
  std::vector<double> query_class_units{130.0, 150.0};

  /// When true, the persistent consumer->provider preference matrix is
  /// never materialized: each prf_c(p) is drawn on demand from an
  /// order-independent counter RNG keyed on (c, p), still uniform within
  /// the provider's interest-class range and stable across calls. The
  /// draws differ in value from the eager matrix's sequential fill, so
  /// this is an opt-in for populations where C x P doubles cannot fit in
  /// memory (the million-provider scale arm), not a transparent switch.
  bool lazy_consumer_preferences = false;
};

/// Immutable per-provider facts.
struct ProviderProfile {
  ProviderId id;
  Level capacity_class = Level::kMedium;
  Level interest_class = Level::kHigh;
  Level adaptation_class = Level::kMedium;
  /// Processing rate in treatment units per second.
  double capacity = 0.0;
};

/// The generated population: provider profiles, the consumer->provider
/// preference matrix, and the per-query preference source.
class Population {
 public:
  Population(const PopulationConfig& config, std::uint64_t seed);

  const PopulationConfig& config() const { return config_; }
  std::size_t num_consumers() const { return config_.num_consumers; }
  std::size_t num_providers() const { return providers_.size(); }

  const ProviderProfile& provider(ProviderId id) const;
  const std::vector<ProviderProfile>& providers() const { return providers_; }

  /// Aggregate capacity of all providers, in units/second ("total system
  /// capacity", the workload denominator of Section 6.1).
  double total_capacity() const { return total_capacity_; }

  /// Mean treatment units over the query classes (the arrival-rate
  /// conversion factor: rate = fraction * total_capacity / mean_units).
  double mean_query_units() const { return mean_query_units_; }

  /// The persistent preference of consumer `c` for provider `p`
  /// (prf_c(q, p) of Definition 7 with the setup's query-independent
  /// preferences), in the provider's interest-class range.
  double ConsumerPreference(ConsumerId c, ProviderId p) const;

  /// The preference of provider `p` for query `q` (prf_p(q) of
  /// Definition 8), drawn from the provider's adaptation-class range;
  /// stable across calls and call order.
  double ProviderPreference(ProviderId p, QueryId q) const;

  /// The batch forms of the two draws, for a mediation gather: out[i] is
  /// ConsumerPreference(c, ids[i]), resp. ProviderPreference(ids[i], q),
  /// filled in one loop.
  void ConsumerPreferences(ConsumerId c, const ProviderId* ids, std::size_t n,
                           double* out) const;
  void ProviderPreferences(const ProviderId* ids, std::size_t n, QueryId q,
                           double* out) const;

  /// Treatment units of query class `class_index`.
  double QueryUnits(std::uint32_t class_index) const;
  std::size_t num_query_classes() const {
    return config_.query_class_units.size();
  }

 private:
  PopulationConfig config_;
  std::vector<ProviderProfile> providers_;
  std::vector<double> consumer_pref_;  // [c * num_providers + p]; empty
                                       // under lazy_consumer_preferences
  CounterRng provider_pref_rng_;
  CounterRng consumer_pref_rng_;
  double total_capacity_ = 0.0;
  double mean_query_units_ = 0.0;
};

/// Splits `total` into three class counts matching `fractions` exactly
/// (largest-remainder rounding), then returns per-element labels shuffled
/// with `rng` so classes are not correlated with id order.
std::vector<Level> AssignLevels(std::size_t total,
                                const std::array<double, 3>& fractions,
                                Rng& rng);

}  // namespace sqlb

#endif  // SQLB_WORKLOAD_POPULATION_H_
