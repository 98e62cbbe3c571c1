#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sqlb_method.h"
#include "des/hw_topo.h"
#include "obs/metrics.h"
#include "runtime/serving_mediator.h"
#include "sqlb/service.h"

/// \file
/// Intake edges of the serving tier (runtime/serving_mediator.h): the
/// max_queued_per_shard bound enforced exactly at the boundary, every
/// SubmitMany request validated, shed accounting staying conserved under
/// concurrent producers, Stop() racing in-flight Submit/SubmitMany (the
/// TSan target of this suite), and idle behavior: the poll window Start()
/// picks, spaced submissions served without parking, a prompt Stop() of a
/// polling group, and parking and CPU time surfacing as counters.

namespace sqlb::runtime {
namespace {

SystemConfig SmallScenario() {
  SystemConfig config;
  config.population.num_consumers = 12;
  config.population.num_providers = 24;
  config.seed = 7;
  config.record_series = false;
  return config;
}

ServingMediator::MethodFactory SqlbFactory() {
  return [](std::uint32_t) { return std::make_unique<SqlbMethod>(); };
}

TEST(ServingIntakeTest, QueueBoundIsExactAtTheBoundary) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 1;
  serving.max_queued_per_shard = 16;

  ServingMediator mediator(scenario, serving, SqlbFactory());
  ServingProducer* producer = mediator.RegisterProducer();
  // Before Start nothing drains: the first max_queued_per_shard submissions
  // are accepted, the very next one sheds — no chunk-granularity slack.
  for (std::size_t i = 0; i < serving.max_queued_per_shard; ++i) {
    EXPECT_TRUE(mediator.Submit(producer, 0, 0)) << "submission " << i;
  }
  EXPECT_FALSE(mediator.Submit(producer, 0, 0));
  EXPECT_EQ(producer->submitted(), serving.max_queued_per_shard);
  EXPECT_EQ(producer->shed(), 1u);

  mediator.Start();
  mediator.Drain();
  const ServingReport report = mediator.Stop();
  EXPECT_EQ(report.served, serving.max_queued_per_shard);
}

TEST(ServingIntakeTest, SubmitManyAcceptsExactlyThePrefixThatFits) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 1;
  serving.max_queued_per_shard = 20;

  ServingMediator mediator(scenario, serving, SqlbFactory());
  ServingProducer* producer = mediator.RegisterProducer();
  std::vector<ServingRequest> requests(64);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].consumer = static_cast<std::uint32_t>(i % 12);
    requests[i].class_index = 0;
  }
  // Single shard: every request routes to shard 0, so exactly the first 20
  // fit and the remaining 44 are shed as one suffix.
  const std::size_t accepted =
      mediator.SubmitMany(producer, requests.data(), requests.size());
  EXPECT_EQ(accepted, serving.max_queued_per_shard);
  EXPECT_EQ(producer->submitted(), serving.max_queued_per_shard);
  EXPECT_EQ(producer->shed(), requests.size() - accepted);

  mediator.Start();
  mediator.Drain();
  const ServingReport report = mediator.Stop();
  EXPECT_EQ(report.served, accepted);
  EXPECT_EQ(report.submitted + report.shed, requests.size());
}

TEST(ServingIntakeDeathTest, SubmitManyValidatesEveryRequest) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 4;
  ServingMediator mediator(scenario, serving, SqlbFactory());
  ServingProducer* producer = mediator.RegisterProducer();
  // The second request shares the first one's shard residue (16 % 4 == 0),
  // so both fall into one same-shard run; it must be refused all the same.
  const ServingRequest bad_consumer[] = {{0, 0}, {16, 0}};
  EXPECT_DEATH(mediator.SubmitMany(producer, bad_consumer, 2),
               "consumer index out of range");
  const ServingRequest bad_class[] = {{0, 0}, {4, 99}};
  EXPECT_DEATH(mediator.SubmitMany(producer, bad_class, 2),
               "query class out of range");
}

TEST(ServingIntakeTest, ShedAccountingConservesUnderConcurrentProducers) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 1;
  serving.max_queued_per_shard = 128;
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kAttempts = 2000;

  ServingMediator mediator(scenario, serving, SqlbFactory());
  std::vector<ServingProducer*> handles;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    handles.push_back(mediator.RegisterProducer());
  }
  // Concurrent flood before Start: the reservation counter is the only
  // admission, so exactly max_queued_per_shard submissions win globally and
  // every producer's tally stays conserved.
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kAttempts; ++i) {
        mediator.Submit(handles[p], static_cast<std::uint32_t>(i % 12),
                        static_cast<std::uint32_t>(i % 2));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::uint64_t submitted = 0;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(handles[p]->submitted() + handles[p]->shed(), kAttempts);
    submitted += handles[p]->submitted();
  }
  EXPECT_EQ(submitted, serving.max_queued_per_shard);

  mediator.Start();
  mediator.Drain();
  const ServingReport report = mediator.Stop();
  EXPECT_EQ(report.submitted, submitted);
  EXPECT_EQ(report.served, submitted);
  EXPECT_EQ(report.submitted + report.shed, kProducers * kAttempts);
}

TEST(ServingIntakeTest, StopRacesInFlightSubmissionsSafely) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 4;
  serving.mediator_threads = 2;
  serving.time_scale = 200.0;
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kAttempts = 20000;

  ServingMediator mediator(scenario, serving, SqlbFactory());
  std::vector<ServingProducer*> handles;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    handles.push_back(mediator.RegisterProducer());
  }
  mediator.Start();
  // Producers keep submitting straight through Stop(): everything accepted
  // before the intake closed is served, everything after sheds — nothing
  // blocks, crashes, or leaks a query. Half the producers use the batched
  // path so SubmitMany races the close too.
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      if (p % 2 == 0) {
        for (std::uint64_t i = 0; i < kAttempts; ++i) {
          mediator.Submit(handles[p], static_cast<std::uint32_t>(i % 12),
                          static_cast<std::uint32_t>(i % 2));
        }
      } else {
        ServingRequest chunk[32];
        for (std::uint64_t i = 0; i < kAttempts; i += 32) {
          for (std::uint64_t j = 0; j < 32; ++j) {
            chunk[j].consumer = static_cast<std::uint32_t>((i + j) % 12);
            chunk[j].class_index = static_cast<std::uint32_t>((i + j) % 2);
          }
          mediator.SubmitMany(handles[p], chunk, 32);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const ServingReport report = mediator.Stop();
  for (std::thread& t : threads) t.join();

  // The report folded the producer counters after the intake closed and
  // every in-flight call drained, so its submitted tally is final — and
  // Stop's end-drain serves all of it.
  EXPECT_EQ(report.served, report.submitted);
  EXPECT_EQ(report.run.queries_completed + report.run.queries_infeasible,
            report.run.queries_issued);
  EXPECT_EQ(report.run.queries_issued, report.served);
  // Post-join, every presented request was counted exactly once.
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(handles[p]->submitted() + handles[p]->shed(), kAttempts);
  }
}

TEST(ServingIntakeTest, IdleGroupsParkAndSurfaceTheCounters) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 2;
  serving.housekeeping_interval = 0.005;

  ServingMediator mediator(scenario, serving, SqlbFactory());
  mediator.RegisterProducer();
  mediator.Start();
  // No traffic at all: the group burns through the spin and yield passes
  // and parks until the housekeeping deadline, repeatedly.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const ServingReport report = mediator.Stop();

  EXPECT_GE(report.idle_parks, 1u);
  EXPECT_EQ(report.run.metrics.CounterValue(obs::kMetricServingIdleParks),
            report.idle_parks);
  EXPECT_EQ(
      report.run.metrics.CounterValue(obs::kMetricServingSpuriousWakes),
      report.spurious_wakes);
  EXPECT_EQ(report.served, 0u);
}

TEST(ServingIntakeTest, StartPollsOnlyWhenGroupsAndProducersFitTheCpus) {
  const SystemConfig scenario = SmallScenario();
  const ServingConfig serving;
  {
    ServingMediator mediator(scenario, serving, SqlbFactory());
    mediator.RegisterProducer();
    EXPECT_EQ(mediator.idle_poll_window(), std::chrono::nanoseconds::zero());
    mediator.Start();
    // One group plus one producer: two threads.
    if (des::UsableCpuCount() >= 2) {
      EXPECT_EQ(mediator.idle_poll_window(), ServingMediator::kIdlePollWindow);
    } else {
      EXPECT_EQ(mediator.idle_poll_window(), std::chrono::nanoseconds::zero());
    }
    mediator.Stop();
  }
  {
    ServingMediator mediator(scenario, serving, SqlbFactory());
    const unsigned producers =
        std::max(1u, std::thread::hardware_concurrency()) + 1;
    for (unsigned p = 0; p < producers; ++p) mediator.RegisterProducer();
    mediator.Start();
    EXPECT_EQ(mediator.idle_poll_window(), std::chrono::nanoseconds::zero());
    mediator.Stop();
  }
}

TEST(ServingIntakeTest, SpacedSubmissionsInsideTheWindowAreServedUnparked) {
  using SteadyClock = std::chrono::steady_clock;
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.time_scale = 200.0;
  ServingMediator mediator(scenario, serving, SqlbFactory());
  ServingProducer* producer = mediator.RegisterProducer();
  SteadyClock::time_point previous_submit = SteadyClock::now();
  mediator.Start();
  if (mediator.idle_poll_window() == std::chrono::nanoseconds::zero()) {
    mediator.Stop();
    GTEST_SKIP() << "fewer than 2 usable CPUs: Start() chose not to poll";
  }
  // Submissions a tenth of the window apart, each once the previous one
  // was mediated. A group that parks once a gap outlasts a few dozen
  // passes parks at least once per submission here; one that polls for the
  // window can park only in a gap that outlasts it. A loaded host (or a
  // sanitizer build) stretches some gaps: each one longer than the window,
  // measured from the previous Submit's start to this Submit's return (the
  // group's idle time in the gap lies inside), is counted and allowed two
  // parks (a DES deadline can wake a parked group, which then parks again).
  constexpr std::uint64_t kSubmissions = 200;
  const auto spacing = ServingMediator::kIdlePollWindow / 10;
  std::uint64_t late_gaps = 0;
  for (std::uint64_t i = 0; i < kSubmissions; ++i) {
    std::this_thread::sleep_for(spacing);
    const SteadyClock::time_point submit = SteadyClock::now();
    ASSERT_TRUE(mediator.Submit(producer, static_cast<std::uint32_t>(i % 12),
                                0));
    if (SteadyClock::now() - previous_submit >
        ServingMediator::kIdlePollWindow) {
      ++late_gaps;
    }
    previous_submit = submit;
    producer->AwaitMediated(i + 1);
  }
  const ServingReport report = mediator.Stop();
  EXPECT_EQ(report.served, kSubmissions);
  // The tail between the last mediation and Stop may park once.
  EXPECT_LE(report.idle_parks, kSubmissions / 4 + 2 * late_gaps + 1)
      << late_gaps << " gaps outlasted the window";
}

TEST(ServingIntakeTest, StopOnAPollingGroupReturnsPromptly) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 2;
  serving.mediator_threads = 2;
  // A group that waited for its next deadline instead of seeing the stop
  // flag would hold Stop() for the whole housekeeping interval.
  serving.housekeeping_interval = 30.0;
  ServingMediator mediator(scenario, serving, SqlbFactory());
  ServingProducer* producer = mediator.RegisterProducer();
  mediator.Start();
  ASSERT_TRUE(mediator.Submit(producer, 0, 0));
  ASSERT_TRUE(mediator.Submit(producer, 1, 0));
  producer->AwaitMediated(2);
  // Both groups just did work, so (CPUs permitting) they are polling now.
  const auto begin = std::chrono::steady_clock::now();
  const ServingReport report = mediator.Stop();
  const double stop_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - begin)
                                  .count();
  EXPECT_LT(stop_seconds, 2.0);
  EXPECT_EQ(report.served, 2u);
}

TEST(ServingIntakeTest, MediatorCpuTimeIsCountedWithinTheWallBound) {
  const SystemConfig scenario = SmallScenario();
  ServingConfig serving;
  serving.shards = 2;
  serving.mediator_threads = 2;
  serving.time_scale = 200.0;
  ServingMediator mediator(scenario, serving, SqlbFactory());
  ServingProducer* producer = mediator.RegisterProducer();
  mediator.Start();
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(mediator.Submit(producer, i % 12, i % 2));
  }
  mediator.Drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const ServingReport report = mediator.Stop();

  // Every group thread ran, and none can have used more CPU than the
  // Start -> Stop wall time it lived within.
  const std::uint64_t cpu_ns =
      report.run.metrics.CounterValue(obs::kMetricServingMediatorCpu);
  EXPECT_GT(cpu_ns, 0u);
  EXPECT_LE(static_cast<double>(cpu_ns),
            static_cast<double>(serving.mediator_threads) *
                report.wall_seconds * 1e9);
}

TEST(ServingIntakeTest, ValidateRejectsNonDividingMediatorThreads) {
  sqlb::Config config;
  config.mode = sqlb::Mode::kServing;
  config.scenario() = SmallScenario();
  config.serving.shards = 4;
  config.serving.mediator_threads = 3;
  const Status status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("mediator_threads"), std::string::npos)
      << status.message();

  config.serving.mediator_threads = 0;
  EXPECT_FALSE(config.Validate().ok());

  config.serving.mediator_threads = 4;
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().message();
}

}  // namespace
}  // namespace sqlb::runtime
