#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/sqlb_method.h"
#include "runtime/mediation_core.h"

/// \file
/// Unit pins for the event-driven characterization cache
/// (runtime/mediation_core.h): lazy refresh under repeated and advancing
/// `now` values, exact decay-driven refresh when the utilization window
/// slides, and invalidation by reads on *other* paths (metric probes,
/// departure checks) whose windowed-sum evictions would otherwise leave a
/// cached utilization silently stale. The cross-run bit-identity contract
/// lives in tests/shard/cache_parity_test.cc; these tests pin the refresh
/// *mechanics* the contract rests on.

namespace sqlb::runtime {
namespace {

struct Fixture {
  explicit Fixture(bool cache_enabled, std::size_t n_providers = 16) {
    config.population.num_consumers = 4;
    config.population.num_providers = n_providers;
    config.workload = WorkloadSpec::Constant(0.8);
    config.duration = 1000.0;
    config.record_series = false;
    config.characterization_cache = cache_enabled;
    population.emplace(config.population, config.seed);
    reputation.emplace(config.population.num_providers, 0.0, 0.1);
    response_window.emplace(500);
    for (const ProviderProfile& profile : population->providers()) {
      providers.emplace_back(profile, config.provider);
      members.push_back(profile.id.index());
    }
    for (std::size_t c = 0; c < population->num_consumers(); ++c) {
      consumers.emplace_back(ConsumerId(static_cast<std::uint32_t>(c)),
                             config.consumer);
    }
    MediationCore::Shared shared;
    shared.config = &config;
    shared.population = &*population;
    shared.providers = &providers;
    shared.consumers = &consumers;
    shared.reputation = &*reputation;
    shared.result = &result;
    shared.response_window = &*response_window;
    core.emplace(shared, &method, members);
  }

  MediationCore::Outcome AllocateAt(SimTime t, QueryId id) {
    sim.RunUntil(t);
    Query query;
    query.id = id;
    query.consumer = ConsumerId(static_cast<std::uint32_t>(id % 4));
    query.n = 1;
    query.class_index = 0;
    query.units = config.population.query_class_units[0];
    query.issue_time = t;
    return core->Allocate(sim, query);
  }

  SystemConfig config;
  std::optional<Population> population;
  std::vector<ProviderAgent> providers;
  std::vector<ConsumerAgent> consumers;
  std::vector<std::uint32_t> members;
  std::optional<ReputationRegistry> reputation;
  RunResult result;
  std::optional<WindowedMean> response_window;
  SqlbMethod method;
  des::Simulator sim;
  std::optional<MediationCore> core;
};

TEST(CharacterizationCacheTest, RepeatedNowRefreshesOnlyEventTouchedMembers) {
  Fixture fx(/*cache_enabled=*/true);
  const std::size_t n = fx.members.size();

  ASSERT_EQ(fx.AllocateAt(10.0, 0), MediationCore::Outcome::kAllocated);
  const auto after_first = fx.core->cache_stats();
  // Cold start: every member characterized from scratch.
  EXPECT_EQ(after_first.lookups, n);
  EXPECT_EQ(after_first.utilization_refreshes, n);
  EXPECT_EQ(after_first.satisfaction_refreshes, n);

  // Second query at the very same time: the only members whose state an
  // event touched are the selected provider (Enqueue bumped its load and
  // utilization stamps, OnProposed its performed subset); every other
  // member is a pure hit — no refresh of any kind.
  ASSERT_EQ(fx.AllocateAt(10.0, 1), MediationCore::Outcome::kAllocated);
  const auto after_second = fx.core->cache_stats();
  EXPECT_EQ(after_second.lookups, 2 * n);
  EXPECT_LE(after_second.utilization_refreshes,
            after_first.utilization_refreshes + 2);
  EXPECT_LE(after_second.satisfaction_refreshes,
            after_first.satisfaction_refreshes + 2);
  EXPECT_LE(after_second.backlog_refreshes, after_first.backlog_refreshes + 2);
}

TEST(CharacterizationCacheTest, AdvancingNowWithoutDecayStaysCached) {
  Fixture fx(/*cache_enabled=*/true);
  ASSERT_EQ(fx.AllocateAt(10.0, 0), MediationCore::Outcome::kAllocated);
  const auto before = fx.core->cache_stats();

  // 1 second later — far inside the 60-second utilization window, so no
  // allocation can have decayed out: time alone must not refresh anything
  // beyond the members the first query's events touched.
  ASSERT_EQ(fx.AllocateAt(11.0, 1), MediationCore::Outcome::kAllocated);
  const auto after = fx.core->cache_stats();
  EXPECT_LE(after.utilization_refreshes, before.utilization_refreshes + 2);
}

TEST(CharacterizationCacheTest, UtilizationDecayForcesExactRefresh) {
  Fixture fx(/*cache_enabled=*/true);
  // Two queries at t = 10 land work on (at most) two providers; their
  // allocations decay out of the 60-second utilization window at t = 70.
  ASSERT_EQ(fx.AllocateAt(10.0, 0), MediationCore::Outcome::kAllocated);
  ASSERT_EQ(fx.AllocateAt(10.0, 1), MediationCore::Outcome::kAllocated);

  // Just before the decay horizon: no refresh storm.
  fx.AllocateAt(69.9, 2);
  const auto before = fx.core->cache_stats();

  // Past it: exactly the providers holding decayed allocations refresh
  // (the rest hold no windowed events at all — their cached state is
  // timeless until an event arrives).
  fx.AllocateAt(70.1, 3);
  const auto after = fx.core->cache_stats();
  EXPECT_GT(after.utilization_refreshes, before.utilization_refreshes);
  EXPECT_LE(after.utilization_refreshes, before.utilization_refreshes + 4);

  // And the refreshed utilizations agree bit-for-bit with a from-scratch
  // twin that never cached anything.
  Fixture twin(/*cache_enabled=*/false);
  twin.AllocateAt(10.0, 0);
  twin.AllocateAt(10.0, 1);
  twin.AllocateAt(69.9, 2);
  twin.AllocateAt(70.1, 3);
  twin.sim.RunAll();
  fx.sim.RunAll();
  for (std::size_t p = 0; p < fx.providers.size(); ++p) {
    EXPECT_EQ(fx.providers[p].Utilization(80.0),
              twin.providers[p].Utilization(80.0))
        << p;
    EXPECT_EQ(fx.providers[p].SatisfactionOnIntentions(),
              twin.providers[p].SatisfactionOnIntentions())
        << p;
    EXPECT_EQ(fx.providers[p].performed_count(),
              twin.providers[p].performed_count())
        << p;
  }
  EXPECT_EQ(fx.result.response_time_all.sum(),
            twin.result.response_time_all.sum());
}

TEST(CharacterizationCacheTest, ProbePathEvictionsInvalidateCachedUtilization) {
  // A metric probe / departure check reads Utilization directly, outside
  // the mediation path. When that read evicts decayed allocations, the
  // agent's windowed sum changes shape — a cached utilization that failed
  // to notice would serve a stale value at the next mediation. The coarse
  // characterization revision is bumped by the *agent* on any evicting
  // read, so the cache refreshes no matter who triggered the eviction.
  Fixture cached(/*cache_enabled=*/true);
  Fixture twin(/*cache_enabled=*/false);

  for (Fixture* fx : {&cached, &twin}) {
    fx->AllocateAt(10.0, 0);
    fx->AllocateAt(10.0, 1);
    fx->sim.RunUntil(75.0);
    // The out-of-band read at t = 75 pops the t = 10 allocations out of
    // every touched provider's utilization window.
    for (ProviderAgent& agent : fx->providers) {
      (void)agent.Utilization(75.0);
    }
    // Next mediation at the same `now` the probe used: the cached run must
    // see the eviction and re-read, not serve the pre-eviction value.
    fx->AllocateAt(75.0, 2);
    fx->AllocateAt(90.0, 3);
    fx->sim.RunAll();
  }

  EXPECT_EQ(cached.result.queries_completed, twin.result.queries_completed);
  EXPECT_EQ(cached.result.response_time_all.sum(),
            twin.result.response_time_all.sum());
  for (std::size_t p = 0; p < cached.providers.size(); ++p) {
    EXPECT_EQ(cached.providers[p].performed_count(),
              twin.providers[p].performed_count())
        << p;
    EXPECT_EQ(cached.providers[p].SatisfactionOnPreferences(),
              twin.providers[p].SatisfactionOnPreferences())
        << p;
  }
}

TEST(CharacterizationCacheTest, CacheOffForcesFullRecomputationEachQuery) {
  Fixture fx(/*cache_enabled=*/false);
  const std::size_t n = fx.members.size();
  fx.AllocateAt(10.0, 0);
  fx.AllocateAt(10.0, 1);
  const auto stats = fx.core->cache_stats();
  EXPECT_FALSE(fx.core->cache_enabled());
  // The recompute-per-query twin refreshes every member on every gather.
  EXPECT_EQ(stats.utilization_refreshes, 2 * n);
  EXPECT_EQ(stats.satisfaction_refreshes, 2 * n);
  EXPECT_EQ(stats.evaluator_rebuilds, 2 * n);
}

TEST(CharacterizationCacheTest, BatchAndSingleQueryShareOneCache) {
  // A burst characterizes the candidate set once; an immediately following
  // single-query Allocate at the same time hits the same entries.
  Fixture fx(/*cache_enabled=*/true);
  std::vector<Query> burst;
  for (QueryId i = 0; i < 3; ++i) {
    Query query;
    query.id = i;
    query.consumer = ConsumerId(static_cast<std::uint32_t>(i % 4));
    query.n = 1;
    query.class_index = 0;
    query.units = fx.config.population.query_class_units[0];
    query.issue_time = 5.0;
    burst.push_back(query);
  }
  fx.sim.RunUntil(5.0);
  std::vector<MediationCore::Outcome> outcomes;
  fx.core->AllocateBatch(fx.sim, burst, 0.0, &outcomes);
  const auto after_burst = fx.core->cache_stats();
  // One full characterization of the member set, not one per burst query.
  EXPECT_EQ(after_burst.satisfaction_refreshes, fx.members.size());

  fx.AllocateAt(5.0, 99);
  const auto after_single = fx.core->cache_stats();
  // The burst's dispatches dirtied at most the selected providers.
  EXPECT_LE(after_single.satisfaction_refreshes,
            after_burst.satisfaction_refreshes + 3);
}

}  // namespace
}  // namespace sqlb::runtime
