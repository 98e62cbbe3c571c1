#include "runtime/scenario_engine.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/status.h"
#include "des/arrival_process.h"
#include "model/characterization.h"
#include "model/metrics.h"

namespace sqlb::runtime {

void ScenarioEngine::Driver::Execute(des::Simulator& sim, SimTime duration) {
  sim.RunUntil(duration);
  // Drain in-flight service so every allocated query completes.
  sim.RunAll();
}

ScenarioEngine::ScenarioEngine(const SystemConfig& config,
                               std::size_t shard_lanes)
    : config_(config),
      population_(config.population, config.seed),
      rng_(config.seed ^ 0x5e5703a7ULL),
      query_class_rng_(rng_.Fork(11)),
      consumer_pick_rng_(rng_.Fork(12)),
      agent_store_(config.agent_pool),
      reputation_(config.population.num_providers, 0.0, 0.1),
      response_window_(500),
      recorder_(std::make_unique<obs::FlightRecorder>(config.observability,
                                                      shard_lanes)) {
  // One validated config path (runtime/scenario.h): drivers that surface
  // recoverable errors run ValidateSystemConfig via sqlb::Config::Validate()
  // before construction; reaching here with an invalid config is a
  // programming error.
  const Status valid = ValidateSystemConfig(config);
  SQLB_CHECK(valid.ok(), valid.message().c_str());

  agent_store_.Resize(population_.num_providers());
  providers_.reserve(population_.num_providers());
  for (const ProviderProfile& profile : population_.providers()) {
    providers_.emplace_back(profile, &config_.provider, &agent_store_,
                            static_cast<std::uint32_t>(providers_.size()));
  }
  consumers_.reserve(population_.num_consumers());
  for (std::size_t c = 0; c < population_.num_consumers(); ++c) {
    consumers_.emplace_back(ConsumerId(static_cast<std::uint32_t>(c)),
                            config_.consumer);
    active_consumers_.push_back(static_cast<std::uint32_t>(c));
  }

  // Scheduled churn: providers whose first event is a join start outside
  // the system (inactive, no membership anywhere) and enter at that time.
  initial_holdouts_ = config_.provider_churn.InitialHoldouts(providers_.size());
  held_out_.assign(providers_.size(), false);
  for (std::uint32_t index : initial_holdouts_) {
    held_out_[index] = true;
    providers_[index].Depart();
  }
  churn_events_ = config_.provider_churn.events;
  std::stable_sort(churn_events_.begin(), churn_events_.end(),
                   [](const ProviderChurnEvent& a,
                      const ProviderChurnEvent& b) { return a.time < b.time; });

  fault_events_ = config_.shard_faults.events;
  std::stable_sort(fault_events_.begin(), fault_events_.end(),
                   [](const ShardFaultEvent& a, const ShardFaultEvent& b) {
                     return a.time < b.time;
                   });
  result_.duration = config_.duration;
  result_.initial_providers = providers_.size() - initial_holdouts_.size();
  result_.initial_consumers = consumers_.size();
}

MediationCore::Shared ScenarioEngine::CoreSharedState() {
  MediationCore::Shared shared;
  shared.config = &config_;
  shared.population = &population_;
  shared.providers = &providers_;
  shared.consumers = &consumers_;
  shared.reputation = &reputation_;
  shared.result = &result_;
  shared.response_window = &response_window_;
  shared.arena = agent_store_.arena(0);
  return shared;
}

double ScenarioEngine::ArrivalRateAt(SimTime t) const {
  return ScaledArrivalRate(config_, population_, active_consumers_.size(),
                           result_.initial_consumers, t);
}

RunResult ScenarioEngine::Run(Driver& driver) {
  SQLB_CHECK(!ran_, "ScenarioEngine::Run may only be called once");
  ran_ = true;

  // Arrival process over the whole run (fork 13 of the shared stream).
  const double max_rate = NominalMaxArrivalRate(config_, population_);
  des::PoissonArrivalProcess arrivals(
      [this](SimTime t) { return ArrivalRateAt(t); }, max_rate,
      rng_.Fork(13));
  arrivals.Start(sim_, 0.0, config_.duration,
                 [this, &driver](des::Simulator& sim) {
                   OnArrival(sim, driver);
                 });

  // Metric probes, auxiliary tasks (gossip) and departure checks all read
  // (and, for departures, mutate) cross-core state, so under parallel
  // execution each firing is an epoch barrier: the lanes drain up to the
  // event's time and merge before the callback runs.
  const bool barrier = driver.TasksAreBarriers();
  des::PeriodicTask probe;
  if (config_.record_series) {
    probe.Start(sim_, config_.sample_interval, config_.sample_interval,
                config_.duration,
                [this, &driver](des::Simulator& sim) {
                  SampleMetrics(sim, driver);
                },
                barrier);
  }

  driver.StartAuxiliaryTasks(sim_);

  des::PeriodicTask departure_task;
  const DepartureConfig& dep = config_.departures;
  const bool departures_enabled =
      dep.consumers_may_leave || dep.provider_dissatisfaction ||
      dep.provider_starvation || dep.provider_overutilization;
  if (departures_enabled) {
    departure_task.Start(sim_, dep.grace_period, dep.check_interval,
                         config_.duration,
                         [this, &driver](des::Simulator& sim) {
                           RunDepartureChecks(sim, driver);
                         },
                         barrier);
  }

  // The churn script: each event is an epoch barrier under parallel
  // execution (membership mutates only over quiescent, merged lanes).
  // Events at one time fire in schedule order (stable sort + ascending
  // event ids).
  if (!churn_events_.empty()) {
    join_waiting_.assign(providers_.size(), 0);
  }
  for (const ProviderChurnEvent& event : churn_events_) {
    if (event.time > config_.duration) continue;  // beyond the horizon
    sim_.ScheduleAt(event.time,
                    [this, &driver, event, barrier](des::Simulator& sim) {
                      FireChurnEvent(sim, driver, event, barrier,
                                     /*retry=*/false);
                    },
                    barrier);
  }

  // The fault script: every kill is a kFailover barrier — the lanes are
  // quiescent and merged when the crash fires, and the barrier kind
  // licenses the driver to move membership between lanes (kFailover is
  // semantically inert under serial execution, so it is passed
  // unconditionally).
  for (const ShardFaultEvent& event : fault_events_) {
    if (event.time > config_.duration) continue;  // beyond the horizon
    sim_.ScheduleBarrierAt(event.time,
                           [&driver, event](des::Simulator& sim) {
                             driver.OnShardFault(sim, event);
                           },
                           des::BarrierKind::kFailover);
  }

  driver.Execute(sim_, config_.duration);

  result_.remaining_providers = driver.ActiveProviderCount();
  result_.remaining_consumers = active_consumers_.size();

  // Seal the flight recorder: remaining spans drained and sorted into the
  // deterministic (start, lane, seq) stream, per-lane registries folded in
  // fixed lane order into the run-level snapshot.
  result_.trace_spans = recorder_->FinishSpans();
  result_.trace_spans_dropped = recorder_->DroppedSpans();
  result_.metrics = recorder_->MergedMetrics();

  return std::move(result_);
}

void ScenarioEngine::FireChurnEvent(des::Simulator& sim, Driver& driver,
                                    const ProviderChurnEvent& event,
                                    bool barrier, bool retry) {
  const std::uint32_t p = event.provider_index;
  if (retry && !join_waiting_[p]) {
    return;  // a scheduled leave annulled this pending join meanwhile
  }
  if (!event.join && join_waiting_[p]) {
    // The provider never managed to rejoin (still draining) and now leaves
    // again: the join/leave pair annihilates. The live retry event finds
    // the flag cleared and dies.
    join_waiting_[p] = 0;
    return;
  }

  switch (driver.OnProviderChurn(sim, event)) {
    case ChurnOutcome::kApplied:
      join_waiting_[p] = 0;
      if (event.join) ++result_.provider_joins;
      break;
    case ChurnOutcome::kNoOp:
      join_waiting_[p] = 0;
      break;
    case ChurnOutcome::kDeferred: {
      SQLB_CHECK(event.join, "only joins may be deferred");
      join_waiting_[p] = 1;
      const SimTime next = sim.Now() + config_.churn_retry_interval;
      if (next <= config_.duration) {
        sim.ScheduleAt(next,
                       [this, &driver, event, barrier](des::Simulator& s) {
                         FireChurnEvent(s, driver, event, barrier,
                                        /*retry=*/true);
                       },
                       barrier);
      }
      // Past the horizon: the provider never drained in time — it simply
      // does not return this run (deterministic in every execution mode).
      break;
    }
  }
}

void ScenarioEngine::OnArrival(des::Simulator& sim, Driver& driver) {
  if (active_consumers_.empty()) return;
  const Query query =
      DrawArrivalQuery(config_, population_, active_consumers_,
                       consumer_pick_rng_, query_class_rng_,
                       next_query_id_++, sim.Now());

  ++result_.queries_issued;

  // Intake span: the query exists. Recorded on the coordinator lane — the
  // arrival pump runs there in every execution mode.
  if (obs::TraceLane* lane =
          recorder_->trace_lane(recorder_->coordinator_lane());
      lane != nullptr && lane->SamplesQuery(query.id)) {
    lane->RecordInstant(obs::SpanKind::kIntake, sim.Now(), query.id,
                        static_cast<double>(query.consumer.index()));
  }

  driver.OnQueryArrival(sim, query);
}

void ScenarioEngine::SampleMetrics(des::Simulator& sim, Driver& driver) {
  const SimTime now = sim.Now();
  des::SeriesSet& s = result_.series;

  std::vector<double> sat_int, sat_pref, adq_int, adq_pref;
  std::vector<double> allocsat_int, allocsat_pref, ut;
  sat_int.reserve(providers_.size());
  driver.VisitActiveProviders([&](ProviderAgent& p) {
    sat_int.push_back(p.SatisfactionOnIntentions());
    sat_pref.push_back(p.SatisfactionOnPreferences());
    adq_int.push_back(p.AdequationOnIntentions());
    adq_pref.push_back(p.AdequationOnPreferences());
    allocsat_int.push_back(p.window().AllocationSatisfactionValue(
        ProviderWindow::Channel::kIntention));
    allocsat_pref.push_back(p.window().AllocationSatisfactionValue(
        ProviderWindow::Channel::kPreference));
    ut.push_back(p.Utilization(now));
  });
  s.Add(kSeriesProvSatIntMean, now, Mean(sat_int));
  s.Add(kSeriesProvSatPrefMean, now, Mean(sat_pref));
  s.Add(kSeriesProvAdqIntMean, now, Mean(adq_int));
  s.Add(kSeriesProvAdqPrefMean, now, Mean(adq_pref));
  s.Add(kSeriesProvAllocSatIntMean, now, Mean(allocsat_int));
  s.Add(kSeriesProvAllocSatPrefMean, now, Mean(allocsat_pref));
  s.Add(kSeriesProvSatIntFair, now, JainFairness(sat_int));
  s.Add(kSeriesProvSatPrefFair, now, JainFairness(sat_pref));
  s.Add(kSeriesUtMean, now, Mean(ut));
  s.Add(kSeriesUtFair, now, JainFairness(ut));

  std::vector<double> csat, cadq, callocsat;
  csat.reserve(active_consumers_.size());
  for (std::uint32_t index : active_consumers_) {
    ConsumerAgent& c = consumers_[index];
    csat.push_back(c.Satisfaction());
    cadq.push_back(c.Adequation());
    callocsat.push_back(c.AllocationSatisfactionValue());
  }
  s.Add(kSeriesConsSatMean, now, Mean(csat));
  s.Add(kSeriesConsAdqMean, now, Mean(cadq));
  s.Add(kSeriesConsAllocSatMean, now, Mean(callocsat));
  s.Add(kSeriesConsSatFair, now, JainFairness(csat));

  s.Add(kSeriesResponseTime, now, response_window_.Mean());
  s.Add(kSeriesActiveProviders, now,
        static_cast<double>(driver.ActiveProviderCount()));
  s.Add(kSeriesActiveConsumers, now,
        static_cast<double>(active_consumers_.size()));
  s.Add(kSeriesWorkloadFraction, now,
        config_.workload.FractionAt(now, config_.duration));

  driver.ExtendMetricsSample(now, s);
}

void ScenarioEngine::RunDepartureChecks(des::Simulator& sim, Driver& driver) {
  const SimTime now = sim.Now();
  const double optimal_ut =
      config_.workload.FractionAt(now, config_.duration);

  driver.RunProviderDepartureChecks(now, optimal_ut);
  RunConsumerDepartureChecks(config_.departures, consumers_,
                             active_consumers_, consumer_violations_, now,
                             &result_);
}

}  // namespace sqlb::runtime
