#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/sqlb_method.h"
#include "runtime/mediation_core.h"
#include "sqlb/service.h"

/// \file
/// Unit pins for the MediationCore membership lifecycle and its crash /
/// snapshot / restore machinery (runtime/mediation_core.h): the
/// ExportMember/ImportMember preconditions the handoff and failover
/// protocols rest on (exporting a non-member or non-idle member dies;
/// importing an existing member dies), crash-consistent snapshot
/// round-trips, completion suppression across a crash epoch, and the
/// churn-schedule edge cases (Append ordering, deferred-join annulment)
/// that previously had no direct negative tests.

namespace sqlb::runtime {
namespace {

/// A Mode::kMono service over `scenario` with one SQLB method.
std::unique_ptr<Service> MonoService(const SystemConfig& scenario) {
  sqlb::Config config;
  config.mode = Mode::kMono;
  config.scenario() = scenario;
  return Service::Create(config, [](std::uint32_t) {
    return std::make_unique<SqlbMethod>();
  });
}

struct Fixture {
  explicit Fixture(std::size_t n_providers = 16) {
    config.population.num_consumers = 4;
    config.population.num_providers = n_providers;
    config.workload = WorkloadSpec::Constant(0.8);
    config.duration = 1000.0;
    config.record_series = false;
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

  /// Index of some member whose agent holds unfinished work, or -1.
  int BusyMember() const {
    for (std::uint32_t index : core->active_providers()) {
      if (!providers[index].Idle()) return static_cast<int>(index);
    }
    return -1;
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

// ---------------------------------------------------------------------------
// Export / import preconditions — the contracts handoff and failover obey.
// ---------------------------------------------------------------------------

TEST(MembershipEdgeTest, ExportOfIdleMemberRoundTrips) {
  Fixture fx;
  const std::uint32_t p = fx.members.front();
  ASSERT_TRUE(fx.core->IsMember(p));
  ASSERT_TRUE(fx.providers[p].Idle());

  // Seal first — the handoff order — then export and re-import.
  fx.core->SealMember(p);
  const MediationCore::ProviderHandoff handoff = fx.core->ExportMember(p);
  EXPECT_EQ(handoff.provider_index, p);
  EXPECT_FALSE(fx.core->IsMember(p));
  fx.core->ImportMember(handoff);
  EXPECT_TRUE(fx.core->IsMember(p));
}

TEST(MembershipEdgeDeathTest, ExportOfNonMemberDies) {
  Fixture fx;
  const std::uint32_t p = fx.members.front();
  fx.core->SealMember(p);
  fx.core->ExportMember(p);
  EXPECT_DEATH(fx.core->ExportMember(p), "member");
}

TEST(MembershipEdgeDeathTest, ExportOfBusyMemberDies) {
  Fixture fx;
  ASSERT_EQ(fx.AllocateAt(10.0, 0), MediationCore::Outcome::kAllocated);
  const int busy = fx.BusyMember();
  ASSERT_GE(busy, 0);  // the allocation landed work on some member
  EXPECT_DEATH(fx.core->ExportMember(static_cast<std::uint32_t>(busy)),
               "[Ii]dle");
}

TEST(MembershipEdgeDeathTest, DoubleImportDies) {
  Fixture fx;
  const std::uint32_t p = fx.members.front();
  fx.core->SealMember(p);
  const MediationCore::ProviderHandoff handoff = fx.core->ExportMember(p);
  fx.core->ImportMember(handoff);
  EXPECT_DEATH(fx.core->ImportMember(handoff), "member");
}

TEST(MembershipEdgeDeathTest, ImportOutOfRangeDies) {
  Fixture fx;
  MediationCore::ProviderHandoff bogus;
  bogus.provider_index = 10000;
  EXPECT_DEATH(fx.core->ImportMember(bogus), "");
}

TEST(MembershipEdgeDeathTest, SealOfNonMemberDies) {
  Fixture fx;
  const std::uint32_t p = fx.members.front();
  fx.core->SealMember(p);
  fx.core->ExportMember(p);
  EXPECT_DEATH(fx.core->SealMember(p), "member");
}

// ---------------------------------------------------------------------------
// Crash / snapshot / restore mechanics.
// ---------------------------------------------------------------------------

TEST(CrashRecoveryTest, SnapshotCapturesSortedMemberBaselines) {
  Fixture fx;
  const MediationCore::CoreSnapshot snapshot = fx.core->ExportSnapshot(25.0);
  EXPECT_EQ(snapshot.taken_at, 25.0);
  ASSERT_EQ(snapshot.members.size(), fx.members.size());
  EXPECT_TRUE(std::is_sorted(
      snapshot.members.begin(), snapshot.members.end(),
      [](const MediationCore::ProviderHandoff& a,
         const MediationCore::ProviderHandoff& b) {
        return a.provider_index < b.provider_index;
      }));
}

TEST(CrashRecoveryTest, CrashReportsMembersAndSortedLostQueries) {
  Fixture fx;
  ASSERT_EQ(fx.AllocateAt(10.0, 7), MediationCore::Outcome::kAllocated);
  ASSERT_EQ(fx.AllocateAt(10.0, 3), MediationCore::Outcome::kAllocated);

  const MediationCore::CrashReport report = fx.core->Crash();
  EXPECT_EQ(report.members.size(), fx.members.size());
  EXPECT_TRUE(std::is_sorted(report.members.begin(), report.members.end()));
  ASSERT_EQ(report.lost_queries.size(), 2u);
  EXPECT_EQ(report.lost_queries[0].id, 3u);
  EXPECT_EQ(report.lost_queries[1].id, 7u);
  EXPECT_EQ(fx.core->active_provider_count(), 0u);
  EXPECT_EQ(fx.core->crash_count(), 1u);
}

TEST(CrashRecoveryTest, CompletionsOfDeadIncarnationAreSuppressed) {
  Fixture fx;
  ASSERT_EQ(fx.AllocateAt(10.0, 0), MediationCore::Outcome::kAllocated);
  fx.core->Crash();

  // The dispatched service events still fire — the provider agent drains —
  // but the completion must not reach consumer accounting.
  fx.sim.RunAll();
  EXPECT_GT(fx.core->dropped_completions(), 0u);
  EXPECT_EQ(fx.result.queries_completed, 0u);
  for (std::uint32_t p : fx.members) {
    EXPECT_TRUE(fx.providers[p].Idle()) << p;
  }
}

TEST(CrashRecoveryTest, RestoreReinstallsSnapshotMembers) {
  Fixture fx;
  const MediationCore::CoreSnapshot snapshot = fx.core->ExportSnapshot(20.0);
  fx.core->Crash();
  ASSERT_EQ(fx.core->active_provider_count(), 0u);

  const std::size_t restored = fx.core->RestoreSnapshot(snapshot);
  EXPECT_EQ(restored, fx.members.size());
  EXPECT_EQ(fx.core->active_provider_count(), fx.members.size());
  for (std::uint32_t p : fx.members) {
    EXPECT_TRUE(fx.core->IsMember(p)) << p;
  }
}

TEST(CrashRecoveryTest, RestoreSkipsMembersWhoDepartedSinceSnapshot) {
  Fixture fx;
  const MediationCore::CoreSnapshot snapshot = fx.core->ExportSnapshot(20.0);
  // One member exercises its autonomy between the snapshot and the crash.
  const std::uint32_t leaver = fx.members.front();
  fx.core->DepartMemberForChurn(leaver, 30.0);
  fx.core->Crash();

  const std::size_t restored = fx.core->RestoreSnapshot(snapshot);
  EXPECT_EQ(restored, fx.members.size() - 1);
  EXPECT_FALSE(fx.core->IsMember(leaver));
}

TEST(CrashRecoveryDeathTest, RestoreOverLiveMembershipDies) {
  Fixture fx;
  const MediationCore::CoreSnapshot snapshot = fx.core->ExportSnapshot(20.0);
  EXPECT_DEATH(fx.core->RestoreSnapshot(snapshot), "live membership");
}

// ---------------------------------------------------------------------------
// Churn-schedule edge cases (runtime/departures.h + the engine's deferred
// join machinery).
// ---------------------------------------------------------------------------

TEST(ChurnScheduleEdgeTest, AppendConcatenatesInOrder) {
  ChurnSchedule a = ChurnSchedule::FlashJoin(100.0, /*first=*/0, 2);
  const ChurnSchedule b = ChurnSchedule::MassDeparture(50.0, /*first=*/5, 2);
  a.Append(b);
  ASSERT_EQ(a.events.size(), 4u);
  // Append preserves list order; the engine sorts stably by time at run
  // construction, so same-time events keep their append order.
  EXPECT_EQ(a.events[0].time, 100.0);
  EXPECT_TRUE(a.events[0].join);
  EXPECT_EQ(a.events[2].time, 50.0);
  EXPECT_FALSE(a.events[2].join);
}

TEST(ChurnScheduleEdgeTest, HoldoutsIgnoreLaterRejoins) {
  ChurnSchedule schedule;
  schedule.events.push_back({80.0, /*join=*/false, 2});
  schedule.events.push_back({160.0, /*join=*/true, 2});  // rejoin: not held
  schedule.events.push_back({40.0, /*join=*/true, 7});   // first event: held
  const std::vector<std::uint32_t> holdouts = schedule.InitialHoldouts(10);
  EXPECT_EQ(holdouts, (std::vector<std::uint32_t>{7}));
}

TEST(ChurnScheduleEdgeTest, ScheduledLeaveAnnulsDeferredRejoin) {
  // Saturating load so the leaver holds queued work when its leave fires:
  // the immediate rejoin finds it still draining and defers; the second
  // leave then annuls the waiting join instead of firing.
  SystemConfig config;
  config.population.num_consumers = 20;
  config.population.num_providers = 40;
  config.workload = WorkloadSpec::Constant(1.3);
  config.duration = 300.0;
  config.stats_warmup = 50.0;
  config.seed = 17;
  config.provider_churn.events.push_back({150.0, /*join=*/false, 0});
  config.provider_churn.events.push_back({150.5, /*join=*/true, 0});
  config.provider_churn.events.push_back({151.0, /*join=*/false, 0});

  std::unique_ptr<Service> service = MonoService(config);
  const RunResult result = service->Run().run;

  // The join never applied: the annulment erased it while the provider was
  // still draining, and the second leave itself was a no-op on a
  // non-member.
  EXPECT_EQ(result.provider_joins, 0u);
  EXPECT_EQ(result.tally.ByReason(DepartureReason::kChurn), 1u);
  EXPECT_EQ(result.remaining_providers, 39u);
  EXPECT_FALSE(service->sharded_system()->core(0).IsMember(0));
  // Nothing double-counts: the drained work still completed.
  EXPECT_EQ(result.queries_issued,
            result.queries_completed + result.queries_infeasible);
}

TEST(ChurnScheduleEdgeTest, DeferredRejoinAppliesOnceDrained) {
  // Same shape, but no annulment: the rejoin retries until the drain
  // completes and then applies.
  SystemConfig config;
  config.population.num_consumers = 20;
  config.population.num_providers = 40;
  config.workload = WorkloadSpec::Constant(1.3);
  config.duration = 300.0;
  config.stats_warmup = 50.0;
  config.seed = 17;
  config.provider_churn.events.push_back({150.0, /*join=*/false, 0});
  config.provider_churn.events.push_back({150.5, /*join=*/true, 0});

  std::unique_ptr<Service> service = MonoService(config);
  const RunResult result = service->Run().run;

  EXPECT_EQ(result.provider_joins, 1u);
  EXPECT_EQ(result.remaining_providers, 40u);
  EXPECT_TRUE(service->sharded_system()->core(0).IsMember(0));
}

}  // namespace
}  // namespace sqlb::runtime
