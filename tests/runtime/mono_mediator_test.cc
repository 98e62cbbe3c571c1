#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/sqlb_method.h"
#include "methods/capacity_based.h"
#include "methods/mariposa.h"
#include "runtime/scenario_engine.h"
#include "sqlb/service.h"

/// \file
/// The paper's mono-mediator (Section 6.1) as applications run it:
/// sqlb::Service in Mode::kMono, one Algorithm-1 pipeline over the whole
/// provider population.

namespace sqlb::runtime {
namespace {

sqlb::Config MonoConfig(const SystemConfig& scenario) {
  sqlb::Config config;
  config.mode = Mode::kMono;
  config.scenario() = scenario;
  return config;
}

/// A mono service whose single method instance is a fresh `Method`.
template <typename Method>
std::unique_ptr<Service> MonoService(const SystemConfig& scenario) {
  return Service::Create(MonoConfig(scenario), [](std::uint32_t) {
    return std::make_unique<Method>();
  });
}

template <typename Method>
RunResult RunMono(const SystemConfig& scenario) {
  return MonoService<Method>(scenario)->Run().run;
}

/// A scaled-down Table 2 setup that runs in milliseconds.
SystemConfig SmallConfig(double workload, std::uint64_t seed = 42) {
  SystemConfig config;
  config.population.num_consumers = 20;
  config.population.num_providers = 40;
  config.consumer.window.capacity = 50;
  config.provider.window.capacity = 100;
  config.workload = WorkloadSpec::Constant(workload);
  config.duration = 300.0;
  config.sample_interval = 25.0;
  config.stats_warmup = 50.0;
  config.seed = seed;
  return config;
}

TEST(WorkloadSpecTest, ConstantAndRamp) {
  const auto constant = WorkloadSpec::Constant(0.8);
  EXPECT_DOUBLE_EQ(constant.FractionAt(123.0, 1000.0), 0.8);
  EXPECT_DOUBLE_EQ(constant.MaxFraction(), 0.8);

  const auto ramp = WorkloadSpec::Ramp(0.3, 1.0);
  EXPECT_DOUBLE_EQ(ramp.FractionAt(0.0, 1000.0), 0.3);
  EXPECT_DOUBLE_EQ(ramp.FractionAt(500.0, 1000.0), 0.65);
  EXPECT_DOUBLE_EQ(ramp.FractionAt(2000.0, 1000.0), 1.0);
  EXPECT_DOUBLE_EQ(ramp.MaxFraction(), 1.0);
}

TEST(MonoMediatorTest, EveryIssuedQueryCompletesWhenCaptive) {
  RunResult result = RunMono<SqlbMethod>(SmallConfig(0.5));
  EXPECT_GT(result.queries_issued, 100u);
  EXPECT_EQ(result.queries_infeasible, 0u);
  // The run drains outstanding service, so conservation is exact.
  EXPECT_EQ(result.queries_completed, result.queries_issued);
  EXPECT_EQ(result.method_name, "SQLB");
}

TEST(MonoMediatorTest, DeterministicForFixedSeed) {
  RunResult a = RunMono<SqlbMethod>(SmallConfig(0.6, 7));
  RunResult b = RunMono<SqlbMethod>(SmallConfig(0.6, 7));
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_DOUBLE_EQ(a.response_time.mean(), b.response_time.mean());
}

TEST(MonoMediatorTest, DifferentSeedsProduceDifferentTraffic) {
  RunResult a = RunMono<SqlbMethod>(SmallConfig(0.6, 1));
  RunResult b = RunMono<SqlbMethod>(SmallConfig(0.6, 2));
  EXPECT_NE(a.queries_issued, b.queries_issued);
}

TEST(MonoMediatorTest, ResponseTimesAreAtLeastServiceTime) {
  RunResult result = RunMono<CapacityBasedMethod>(SmallConfig(0.4));
  // The fastest possible response is a 130-unit query on a high-capacity
  // provider: 1.3 seconds.
  EXPECT_GE(result.response_time_all.min(), 1.3 - 1e-9);
}

TEST(MonoMediatorTest, ArrivalCountTracksWorkload) {
  // lambda = fraction * total_capacity / mean_units; with the small
  // population total capacity = 4 * 100/7 + 24 * 100/3 + 12 * 100.
  const double workload = 0.5;
  RunResult result = RunMono<SqlbMethod>(SmallConfig(workload, 3));
  const double capacity = 4 * (100.0 / 7.0) + 24 * (100.0 / 3.0) + 1200.0;
  const double expected = workload * capacity / 140.0 * 300.0;
  EXPECT_NEAR(static_cast<double>(result.queries_issued), expected,
              4.0 * std::sqrt(expected));
}

TEST(MonoMediatorTest, SqlbSatisfiesConsumersBaselinesAreNeutral) {
  // The Figure 4(e) shape: mu(delta_as, C) > 1 under SQLB, ~ 1 under the
  // baselines. Averaged over seeds: with only 40 providers a single draw
  // can correlate capacity and interest classes by chance.
  double sqlb_allocsat = 0.0;
  double capacity_allocsat = 0.0;
  const std::uint64_t seeds[] = {42, 43, 44};
  for (std::uint64_t seed : seeds) {
    RunResult s = RunMono<SqlbMethod>(SmallConfig(0.5, seed));
    sqlb_allocsat += s.series.Find(ScenarioEngine::kSeriesConsAllocSatMean)
                         ->MeanOver(100.0, 300.0);
    RunResult c = RunMono<CapacityBasedMethod>(SmallConfig(0.5, seed));
    capacity_allocsat +=
        c.series.Find(ScenarioEngine::kSeriesConsAllocSatMean)
            ->MeanOver(100.0, 300.0);
  }
  sqlb_allocsat /= 3.0;
  capacity_allocsat /= 3.0;
  EXPECT_GT(sqlb_allocsat, 1.1);
  EXPECT_NEAR(capacity_allocsat, 1.0, 0.12);
  EXPECT_GT(sqlb_allocsat, capacity_allocsat + 0.1);
}

TEST(MonoMediatorTest, CapacityBasedTracksWorkloadUtilization) {
  // DESIGN.md fidelity decision 1: under proportional balancing the mean
  // utilization approaches the workload fraction.
  RunResult result = RunMono<CapacityBasedMethod>(SmallConfig(0.6));
  const double ut_mean = result.series.Find(ScenarioEngine::kSeriesUtMean)
                             ->MeanOver(100.0, 300.0);
  EXPECT_NEAR(ut_mean, 0.6, 0.12);
}

TEST(MonoMediatorTest, SeriesAreSampledAndBounded) {
  RunResult result = RunMono<SqlbMethod>(SmallConfig(0.5));
  for (const char* key :
       {ScenarioEngine::kSeriesProvSatIntMean,
        ScenarioEngine::kSeriesProvSatPrefMean,
        ScenarioEngine::kSeriesConsSatMean,
        ScenarioEngine::kSeriesProvSatIntFair,
        ScenarioEngine::kSeriesConsSatFair}) {
    const auto* series = result.series.Find(key);
    ASSERT_NE(series, nullptr) << key;
    EXPECT_GE(series->size(), 10u) << key;
    for (const auto& [t, v] : series->samples) {
      ASSERT_GE(v, 0.0) << key;
      ASSERT_LE(v, 1.0) << key;
    }
  }
}

TEST(MonoMediatorTest, CaptiveRunsHaveNoDepartures) {
  RunResult result = RunMono<SqlbMethod>(SmallConfig(1.0));
  EXPECT_TRUE(result.departures.empty());
  EXPECT_EQ(result.remaining_providers, result.initial_providers);
  EXPECT_EQ(result.remaining_consumers, result.initial_consumers);
}

TEST(MonoMediatorTest, OverloadTriggersOverutilizationDepartures) {
  // Mariposa at overload concentrates load; with departures enabled some
  // providers must leave by overutilization (the Figure 5(b)/Table 3
  // mechanism).
  SystemConfig config = SmallConfig(0.9);
  config.duration = 600.0;
  config.departures = DepartureConfig::AllEnabled();
  config.departures.grace_period = 150.0;
  config.departures.check_interval = 50.0;
  RunResult result = RunMono<MariposaMethod>(config);
  EXPECT_GT(result.tally.providers_total(), 0u);
  EXPECT_GT(
      result.tally.ByReason(DepartureReason::kOverutilization) +
          result.tally.ByReason(DepartureReason::kDissatisfaction) +
          result.tally.ByReason(DepartureReason::kStarvation),
      0u);
}

TEST(MonoMediatorTest, DepartedProvidersReceiveNothingMore) {
  SystemConfig config = SmallConfig(0.9, 11);
  config.duration = 600.0;
  config.departures = DepartureConfig::AllEnabled();
  config.departures.grace_period = 150.0;
  config.departures.check_interval = 50.0;
  std::unique_ptr<Service> service = MonoService<MariposaMethod>(config);
  RunResult result = service->Run().run;
  // A departed provider left the one core's membership, so no later
  // matchmaking pass could offer it a query.
  const MediationCore& core = service->sharded_system()->core(0);
  ASSERT_GT(result.tally.providers_total(), 0u);
  for (const DepartureEvent& event : result.departures) {
    if (!event.is_provider) continue;
    EXPECT_FALSE(core.IsMember(event.participant_index));
    EXPECT_EQ(std::count(core.active_providers().begin(),
                         core.active_providers().end(),
                         event.participant_index),
              0);
  }
  EXPECT_EQ(result.remaining_providers + result.tally.providers_total(),
            result.initial_providers);
  EXPECT_EQ(core.active_provider_count(), result.remaining_providers);
}

TEST(MonoMediatorTest, MultiProviderQueriesRespectQn) {
  SystemConfig config = SmallConfig(0.3);
  config.query_n = 3;
  RunResult result = RunMono<SqlbMethod>(config);
  // Every query still completes exactly once (response at the last of the
  // three completions), so conservation holds.
  EXPECT_EQ(result.queries_completed, result.queries_issued);
}

/// Forwards to SqlbMethod and logs every decision. With `exact` it keeps
/// the default column needs, so the gather evaluates Definition 8 for every
/// candidate; without, it asks for SqlbMethod's needs, and counts the
/// -infinity refusal placeholders it is handed. It also checks the gather's
/// list of mutually-willing pairs against the columns.
class LoggingSqlb final : public AllocationMethod {
 public:
  struct Entry {
    QueryId query;
    std::vector<std::uint32_t> providers;
    std::vector<double> scores;  // the selected ones', in selection order
    /// The gather's CandidateColumns::willing held exactly the indices i
    /// with PI > 0 and CI > 0, ascending.
    bool willing_listed = false;
  };

  LoggingSqlb(bool exact, std::vector<Entry>* log,
              std::uint64_t* placeholders)
      : exact_(exact), log_(log), placeholders_(placeholders) {}

  std::string name() const override { return sqlb_.name(); }
  AllocationDecision Allocate(const AllocationRequest& request) override {
    return sqlb_.Allocate(request);
  }
  AllocationDecision AllocateColumns(const ColumnarRequest& request) override {
    for (double pi : request.candidates->provider_intention) {
      *placeholders_ += std::isinf(pi) ? 1 : 0;
    }
    const CandidateColumns& columns = *request.candidates;
    std::vector<std::uint32_t> willing;
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (columns.provider_intention[i] > 0.0 &&
          columns.consumer_intention[i] > 0.0) {
        willing.push_back(static_cast<std::uint32_t>(i));
      }
    }
    AllocationDecision decision = sqlb_.AllocateColumns(request);
    Entry entry{request.query->id, {}, {},
                columns.willing == willing};
    for (std::size_t idx : decision.selected) {
      entry.providers.push_back(request.candidates->ids[idx].index());
      entry.scores.push_back(decision.scores[idx]);
    }
    log_->push_back(std::move(entry));
    return decision;
  }
  CandidateColumnNeeds RequiredColumns() const override {
    return exact_ ? CandidateColumnNeeds::All() : sqlb_.RequiredColumns();
  }

 private:
  SqlbMethod sqlb_;
  bool exact_;
  std::vector<Entry>* log_;
  std::uint64_t* placeholders_;
};

std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

struct LoggedRun {
  std::unique_ptr<Service> service;
  RunResult result;
  std::vector<LoggingSqlb::Entry> log;
  std::uint64_t placeholders = 0;
};

void RunLogged(const SystemConfig& scenario, bool exact, LoggedRun* run) {
  run->service = Service::Create(MonoConfig(scenario), [=](std::uint32_t) {
    return std::make_unique<LoggingSqlb>(exact, &run->log, &run->placeholders);
  });
  run->result = run->service->Run().run;
}

/// SqlbMethod drops CandidateColumnNeeds::exact_refusals, so the gather
/// leaves -infinity for provable full refusals whenever k pairs are
/// mutually willing. The run must be bit for bit the run in which every
/// Definition-8 intention is exact: the same results, decisions and
/// provider windows.
void ExpectDeferralInvisible(const SystemConfig& scenario,
                             bool expect_placeholders) {
  LoggedRun deferred, exact;
  RunLogged(scenario, /*exact=*/false, &deferred);
  RunLogged(scenario, /*exact=*/true, &exact);
  EXPECT_EQ(exact.placeholders, 0u);
  if (expect_placeholders) {
    EXPECT_GT(deferred.placeholders, 0u);
  } else {
    EXPECT_EQ(deferred.placeholders, 0u);
  }

  const RunResult& a = deferred.result;
  const RunResult& b = exact.result;
  ASSERT_GT(a.queries_completed, 0u);
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_infeasible, b.queries_infeasible);
  EXPECT_EQ(a.response_time.count(), b.response_time.count());
  EXPECT_EQ(Bits(a.response_time.mean()), Bits(b.response_time.mean()));
  EXPECT_EQ(Bits(a.response_time.variance()),
            Bits(b.response_time.variance()));
  EXPECT_EQ(Bits(a.response_time_all.sum()), Bits(b.response_time_all.sum()));
  EXPECT_EQ(a.departures.size(), b.departures.size());
  ASSERT_EQ(a.series.Names(), b.series.Names());
  for (const std::string& name : a.series.Names()) {
    const auto& sa = a.series.Find(name)->samples;
    const auto& sb = b.series.Find(name)->samples;
    ASSERT_EQ(sa.size(), sb.size()) << name;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(Bits(sa[i].second), Bits(sb[i].second)) << name << " " << i;
    }
  }

  ASSERT_EQ(deferred.log.size(), exact.log.size());
  for (std::size_t i = 0; i < deferred.log.size(); ++i) {
    const LoggingSqlb::Entry& x = deferred.log[i];
    const LoggingSqlb::Entry& y = exact.log[i];
    ASSERT_TRUE(x.willing_listed) << "decision " << i;
    ASSERT_TRUE(y.willing_listed) << "decision " << i;
    ASSERT_EQ(x.query, y.query) << "decision " << i;
    ASSERT_EQ(x.providers, y.providers) << "decision " << i;
    for (std::size_t j = 0; j < x.scores.size(); ++j) {
      ASSERT_EQ(Bits(x.scores[j]), Bits(y.scores[j])) << "decision " << i;
    }
  }

  const auto& pa = deferred.service->sharded_system()->providers();
  const auto& pb = exact.service->sharded_system()->providers();
  ASSERT_EQ(pa.size(), pb.size());
  using Channel = ProviderWindow::Channel;
  for (std::size_t p = 0; p < pa.size(); ++p) {
    const ProviderWindow& wa = pa[p].window();
    const ProviderWindow& wb = pb[p].window();
    for (Channel c : {Channel::kIntention, Channel::kPreference}) {
      ASSERT_EQ(Bits(wa.Sum(c)), Bits(wb.Sum(c))) << "provider " << p;
      ASSERT_EQ(Bits(wa.PerformedSum(c)), Bits(wb.PerformedSum(c)))
          << "provider " << p;
    }
    ASSERT_EQ(wa.performed_in_window(), wb.performed_in_window()) << p;
    ASSERT_EQ(wa.size(), wb.size()) << p;
    ASSERT_EQ(wa.proposed(), wb.proposed()) << p;
  }
}

TEST(MonoMediatorTest, DeferredRefusalsAreBitIdenticalToExactIntentions) {
  // Near saturation, with two providers per query: overloaded and
  // unwilling providers are full refusals under the paper's eps = 1.
  SystemConfig config = SmallConfig(1.0, 13);
  config.query_n = 2;
  ExpectDeferralInvisible(config, /*expect_placeholders=*/true);
}

TEST(MonoMediatorTest, NoMutuallyWillingPairFallsBackToExactIntentions) {
  // Definition 7 as written, with every reputation at its initial 0 and no
  // feedback: each consumer intention takes the negative branch, so no
  // pair is mutually willing and the gather must evaluate every deferred
  // refusal before SQLB ranks the negative scores.
  SystemConfig config = SmallConfig(0.8, 17);
  config.consumer.intention.mode = ConsumerIntentionMode::kFormula;
  ASSERT_FALSE(config.reputation_feedback);
  ExpectDeferralInvisible(config, /*expect_placeholders=*/false);
}

TEST(MonoMediatorDeathTest, RunTwiceAborts) {
  std::unique_ptr<Service> service = MonoService<SqlbMethod>(SmallConfig(0.3));
  (void)service->Run();
  EXPECT_DEATH((void)service->Run(), "once");
}

}  // namespace
}  // namespace sqlb::runtime
