#include "shard/sharded_mediation_system.h"

#include <algorithm>
#include <any>
#include <string>
#include <utility>

#include "common/status.h"
#include "des/worker_pool.h"
#include "model/metrics.h"

namespace sqlb::shard {
namespace {

/// Protocol message kinds for shard <-> router gossip.
constexpr std::uint32_t kLoadReportKind = 1;
constexpr std::uint32_t kRingUpdateKind = 2;

/// Gossip payload: one shard's self-measured load at `measured_at`. By the
/// time the network delivers it, the measurement is already stale — which
/// is the point: routing decisions run on the same bounded-staleness view a
/// real mediator fleet would have. `ring_epoch` is the partition epoch the
/// shard had acknowledged when measuring; the router discounts reports that
/// describe a superseded partition.
struct LoadReport {
  std::uint32_t shard = 0;
  double utilization = 0.0;
  std::size_t active_providers = 0;
  SimTime measured_at = 0.0;
  std::uint64_t ring_epoch = 0;
};

/// Gossip payload announcing a partition-ring rebalance to one shard. Until
/// it is delivered, the shard keeps stamping its old epoch onto load
/// reports — the propagation window during which load-aware routing runs on
/// the hash fallback.
struct RingUpdate {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
};

}  // namespace

/// Router-side network node: folds delivered load reports into the router's
/// load table. Also lends its OnMessage-less shard sender addresses their
/// identity (the per-shard mediation loops are not message-driven nodes;
/// only their reports travel the network).
class ShardedMediationSystem::GossipSink final : public msg::Node {
 public:
  GossipSink(ShardRouter* router, ShardedMediationSystem* system)
      : router_(router), system_(system) {}

  void OnMessage(msg::Network& network, const msg::Message& message) override {
    (void)network;
    if (message.kind == kLoadReportKind) {
      // A report addressed to a shard (not the router-side sink) is an
      // aggregation-tree hop: the shard forwards it one hop up.
      if (message.to != system_->sink_address_) {
        system_->RelayLoadReport(system_->ShardOfAddress(message.to),
                                 message);
        return;
      }
      const auto& report = std::any_cast<const LoadReport&>(message.payload);
      router_->ReportLoad(report.shard, report.utilization,
                          report.active_providers, report.measured_at,
                          report.ring_epoch);
    } else if (message.kind == kRingUpdateKind) {
      const auto& update = std::any_cast<const RingUpdate&>(message.payload);
      system_->OnRingEpochSeen(update.shard, update.epoch);
    }
  }

 private:
  ShardRouter* router_;
  ShardedMediationSystem* system_;
};

double ShardedRunResult::RouteImbalance() const {
  std::vector<double> routed;
  routed.reserve(shards.size());
  for (const ShardStats& s : shards) {
    routed.push_back(static_cast<double>(s.routed));
  }
  return LoadImbalance(routed);
}

ShardedMediationSystem::ShardedMediationSystem(
    const ShardedSystemConfig& config, MethodFactory factory)
    : config_(config),
      // The engine owns the shared streams and forks them in one fixed
      // order at every shard count. Everything shard-tier (ring hashing,
      // network latency) draws from independent generators. One flight-
      // recorder lane per shard plus the coordinator lane.
      engine_(config.base, config.router.num_shards),
      router_(config.router),
      network_(engine_.sim(), config.gossip_latency,
               Rng(config.base.seed ^ 0x60551bULL)) {
  SQLB_CHECK(factory != nullptr, "sharded system needs a method factory");
  SQLB_CHECK(config.router.num_shards >= 1, "need at least one shard");

  // Partition the provider population and raise one pipeline per shard.
  // Scheduled joiners (engine holdouts) stay out of every initial member
  // list; they enter through OnProviderChurn at their join time.
  std::vector<std::vector<std::uint32_t>> partition =
      router_.PartitionProviders(engine_.population().providers());
  for (std::vector<std::uint32_t>& members : partition) {
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [this](std::uint32_t index) {
                                   return engine_.held_out()[index];
                                 }),
                  members.end());
  }

  const std::size_t num_shards = config_.router.num_shards;
  obs::FlightRecorder& recorder = engine_.recorder();
  const std::size_t coord = recorder.coordinator_lane();
  coord_trace_ = recorder.trace_lane(coord);
  router_.SetMetricsRegistry(recorder.hot_metrics(coord));
  {
    obs::MetricsRegistry& coord_registry = recorder.registry(coord);
    reroutes_counter_ = &coord_registry.GetCounter(obs::kMetricReroutes);
    rescues_counter_ = &coord_registry.GetCounter(obs::kMetricRerouteRescues);
    handoffs_started_counter_ =
        &coord_registry.GetCounter(obs::kMetricHandoffsStarted);
    handoffs_completed_counter_ =
        &coord_registry.GetCounter(obs::kMetricHandoffsCompleted);
    handoffs_cancelled_counter_ =
        &coord_registry.GetCounter(obs::kMetricHandoffsCancelled);
    rebalances_damped_counter_ =
        &coord_registry.GetCounter(obs::kMetricRebalancesDamped);
    ring_rebalances_counter_ =
        &coord_registry.GetCounter(obs::kMetricRingRebalances);
    // Failover accounting lives on the coordinator lane: crashes,
    // adoptions and re-issues all happen in barrier context.
    shard_crashes_counter_ =
        &coord_registry.GetCounter(obs::kMetricShardCrashes);
    reissued_counter_ =
        &coord_registry.GetCounter(obs::kMetricReissuedQueries);
    for (std::size_t r = 0; r < runtime::kNumReissueReasons; ++r) {
      reissued_reason_counters_[r] = &coord_registry.GetCounter(
          std::string(obs::kMetricReissuedPrefix) +
          runtime::ReissueReasonName(static_cast<runtime::ReissueReason>(r)));
    }
    restored_counter_ =
        &coord_registry.GetCounter(obs::kMetricRestoredProviders);
    orphaned_counter_ =
        &coord_registry.GetCounter(obs::kMetricOrphanedProviders);
    drain_ticks_counter_ =
        &coord_registry.GetCounter(obs::kMetricFailoverDrainTicks);
    snapshots_counter_ = &coord_registry.GetCounter(obs::kMetricSnapshots);
    ring_retries_counter_ =
        &coord_registry.GetCounter(obs::kMetricGossipRingRetries);
    gossip_load_messages_counter_ =
        &coord_registry.GetCounter(obs::kMetricGossipLoadMessages);
    relay_forwards_counter_ =
        &coord_registry.GetCounter(obs::kMetricGossipRelayForwards);
    relay_drops_counter_ =
        &coord_registry.GetCounter(obs::kMetricGossipRelayDrops);
    if (obs::MetricsRegistry* hot = recorder.hot_metrics(coord)) {
      handoff_drain_hist_ = &hot->GetHistogram(obs::kMetricHandoffDrain);
      reissue_delay_hist_ = &hot->GetHistogram(obs::kMetricReissueDelay);
    }
  }
  flush_counters_.resize(num_shards);
  batched_query_counters_.resize(num_shards);
  batch_wait_hists_.assign(num_shards, nullptr);
  for (std::size_t s = 0; s < num_shards; ++s) {
    // Lane-side tallies go to the shard's own registry (single writer per
    // lane thread); the run-level totals come out of the merged snapshot.
    flush_counters_[s] =
        &recorder.registry(s).GetCounter(obs::kMetricBatchFlushes);
    batched_query_counters_[s] =
        &recorder.registry(s).GetCounter(obs::kMetricBatchedQueries);
    if (obs::MetricsRegistry* hot = recorder.hot_metrics(s)) {
      batch_wait_hists_[s] = &hot->GetHistogram(obs::kMetricBatchWait);
    }
  }

  parallel_ = config_.worker_threads > 0;
  batching_enabled_ =
      config_.batch_window > 0.0 || config_.adaptive_batch.enabled;
  if (config_.adaptive_batch.enabled) {
    window_controllers_.assign(
        num_shards, runtime::BatchWindowController(config_.adaptive_batch));
  }
  if (parallel_) {
    lane_sims_.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      lane_sims_.push_back(std::make_unique<des::Simulator>());
    }
    effect_logs_.resize(num_shards);
  }
  batch_buffers_.resize(num_shards);
  flush_due_.assign(num_shards, -kSimTimeInfinity);
  flush_scratch_.resize(num_shards);
  outcome_scratch_.resize(num_shards);

  // One agent arena per shard lane (pooled storage only): each core homes
  // its members' chunks on its own arena, so a lane thread allocates and
  // frees from lane-local pages. Must precede core construction — the
  // cores re-home their initial members in their constructors.
  engine_.agent_store().ConfigureArenas(num_shards);

  runtime::MediationCore::Shared shared = engine_.CoreSharedState();
  methods_.reserve(num_shards);
  cores_.reserve(num_shards);
  result_.shards.resize(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    methods_.push_back(factory(s));
    SQLB_CHECK(methods_.back() != nullptr, "method factory returned null");
    // In parallel mode each core sinks its cross-shard effects into its
    // own log, merged at epoch barriers; in serial mode it writes the
    // shared sinks directly.
    shared.effects = parallel_ ? &effect_logs_[s] : nullptr;
    // Each core records spans and histograms into its own shard lane, in
    // serial and parallel mode alike — the lane's record sequence is the
    // trace-determinism contract.
    shared.trace = recorder.trace_lane(s);
    shared.metrics = recorder.hot_metrics(s);
    shared.arena = engine_.agent_store().arena(s);
    cores_.push_back(std::make_unique<runtime::MediationCore>(
        shared, methods_.back().get(), partition[s]));
    result_.shards[s].initial_providers = partition[s].size();
  }

  // Gossip endpoints: one sender address per shard, one router-side sink.
  gossip_sink_ = std::make_unique<GossipSink>(&router_, this);
  shard_addresses_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shard_addresses_.push_back(network_.Register(gossip_sink_.get()));
  }
  sink_address_ = network_.Register(gossip_sink_.get());
  shard_epoch_seen_.assign(num_shards, 0);
  if (config_.network_faults.enabled()) {
    network_.SetFaultPolicy(config_.network_faults);
  }

  // Failover state: one (initially empty) snapshot slot per shard — a kill
  // before the first snapshot tick re-admits every member fresh. The
  // engine validates times and cadences; only this driver knows M.
  snapshots_.resize(num_shards);
  for (const runtime::ShardFaultEvent& event :
       config_.base.shard_faults.events) {
    SQLB_CHECK(event.shard < num_shards,
               "fault event names an unknown shard");
  }

  engine_.SetMethodName(methods_.front()->name());
}

ShardedMediationSystem::~ShardedMediationSystem() = default;

ParallelRunShape ParallelShapeOf(const ShardedSystemConfig& config) {
  ParallelRunShape shape;
  shape.num_shards = config.router.num_shards;
  shape.routing = config.router.policy;
  shape.rerouting_enabled = config.rerouting_enabled;
  shape.reputation_feedback = config.base.reputation_feedback;
  return shape;
}

ShardedRunResult ShardedMediationSystem::Run() {
  SQLB_CHECK(!ran_, "ShardedMediationSystem::Run may only be called once");
  ran_ = true;

  // The parity policy decides which configurations a parallel run admits:
  // strict parity demands state-disjoint lanes (shard/parity.h).
  if (parallel_) {
    const Status admitted =
        ValidateParallelRun(config_.parity, ParallelShapeOf(config_));
    SQLB_CHECK(admitted.ok(), admitted.message().c_str());
  }

  result_.run = engine_.Run(*this);

  // (run.remaining_providers is already the cross-shard sum: the engine
  // filled it through ActiveProviderCount().)
  for (std::size_t s = 0; s < cores_.size(); ++s) {
    result_.shards[s].remaining_providers = cores_[s]->active_provider_count();
    result_.shards[s].allocated = cores_[s]->allocated_queries();
  }
  result_.gossip_sent = network_.sent_messages();
  result_.gossip_delivered = network_.delivered_messages();
  result_.ring_epoch = router_.ring_epoch();

  // Fold the router's internal tallies into the run-level registry, then
  // fill every mirror field from it — the registry is the single source of
  // truth for the bench counters (rows and JSON read the same numbers).
  obs::MetricsRegistry& metrics = result_.run.metrics;
  metrics.GetCounter(obs::kMetricStaleFallbacks).Inc(router_.stale_fallbacks());
  metrics.GetCounter(obs::kMetricEpochLaggedReports)
      .Inc(router_.epoch_lagged_reports());
  result_.stale_fallbacks = metrics.CounterValue(obs::kMetricStaleFallbacks);
  result_.epoch_lagged_reports =
      metrics.CounterValue(obs::kMetricEpochLaggedReports);
  result_.reroutes = metrics.CounterValue(obs::kMetricReroutes);
  result_.reroute_rescues = metrics.CounterValue(obs::kMetricRerouteRescues);
  result_.batch_flushes = metrics.CounterValue(obs::kMetricBatchFlushes);
  result_.batched_queries = metrics.CounterValue(obs::kMetricBatchedQueries);
  result_.ring_rebalances = metrics.CounterValue(obs::kMetricRingRebalances);
  result_.rebalances_damped =
      metrics.CounterValue(obs::kMetricRebalancesDamped);
  result_.handoffs_started = metrics.CounterValue(obs::kMetricHandoffsStarted);
  result_.handoffs_completed =
      metrics.CounterValue(obs::kMetricHandoffsCompleted);
  result_.handoffs_cancelled =
      metrics.CounterValue(obs::kMetricHandoffsCancelled);

  // Failover and message-substrate folds: the core-side suppression tally
  // and the network counters enter the registry here, then every mirror
  // field reads back out of it.
  std::uint64_t dropped_completions = 0;
  for (const auto& core : cores_) {
    dropped_completions += core->dropped_completions();
  }
  metrics.GetCounter(obs::kMetricDroppedCompletions).Inc(dropped_completions);
  metrics.GetCounter(obs::kMetricNetSent).Inc(network_.sent_messages());
  metrics.GetCounter(obs::kMetricNetDelivered)
      .Inc(network_.delivered_messages());
  metrics.GetCounter(obs::kMetricNetDropped).Inc(network_.dropped_messages());
  metrics.GetCounter(obs::kMetricNetInjectedDrops)
      .Inc(network_.injected_drops());
  metrics.GetCounter(obs::kMetricNetInjectedDelays)
      .Inc(network_.injected_delays());
  result_.shard_crashes = metrics.CounterValue(obs::kMetricShardCrashes);
  result_.reissued_queries =
      metrics.CounterValue(obs::kMetricReissuedQueries);
  result_.restored_providers =
      metrics.CounterValue(obs::kMetricRestoredProviders);
  result_.orphaned_providers =
      metrics.CounterValue(obs::kMetricOrphanedProviders);
  result_.failover_drain_ticks =
      metrics.CounterValue(obs::kMetricFailoverDrainTicks);
  result_.dropped_completions =
      metrics.CounterValue(obs::kMetricDroppedCompletions);
  result_.snapshots_taken = metrics.CounterValue(obs::kMetricSnapshots);
  result_.gossip_ring_retries =
      metrics.CounterValue(obs::kMetricGossipRingRetries);
  result_.gossip_load_messages =
      metrics.CounterValue(obs::kMetricGossipLoadMessages);
  result_.gossip_relay_forwards =
      metrics.CounterValue(obs::kMetricGossipRelayForwards);
  result_.gossip_relay_drops =
      metrics.CounterValue(obs::kMetricGossipRelayDrops);
  result_.net_sent = metrics.CounterValue(obs::kMetricNetSent);
  result_.net_delivered = metrics.CounterValue(obs::kMetricNetDelivered);
  result_.net_dropped = metrics.CounterValue(obs::kMetricNetDropped);
  result_.net_injected_drops =
      metrics.CounterValue(obs::kMetricNetInjectedDrops);
  result_.net_injected_delays =
      metrics.CounterValue(obs::kMetricNetInjectedDelays);

  // End-of-run agent-state residency: columns are layout-independent, the
  // per-agent term is where eager heap containers and lazy pooled chunks
  // diverge (the number the memory scale gate divides by the population).
  const runtime::AgentStore& store = engine_.agent_store();
  std::size_t agent_bytes = store.columns_bytes();
  for (const runtime::ProviderAgent& agent : engine_.providers()) {
    agent_bytes += agent.ResidentBytes();
  }
  result_.agent_state_bytes = agent_bytes;
  result_.arena_bytes_reserved = store.arena_bytes_reserved();
  return std::move(result_);
}

void ShardedMediationSystem::Execute(des::Simulator& sim, SimTime duration) {
  if (!parallel_) {
    // Classic single-threaded run: the engine's default loop.
    Driver::Execute(sim, duration);
    return;
  }
  des::WorkerPoolOptions pool_options;
  pool_options.topology_aware = config_.topology_aware_workers;
  pool_options.static_schedule = config_.topology_aware_workers;
  des::WorkerPool pool(config_.worker_threads, pool_options);
  std::vector<des::Simulator*> lanes;
  lanes.reserve(lane_sims_.size());
  for (const auto& lane : lane_sims_) lanes.push_back(lane.get());
  des::LaneGroup group(std::move(lanes), &pool,
                       [this](SimTime, des::BarrierKind kind) {
                         // Record what this sync licenses: only a rebalance
                         // or failover barrier may be followed by membership
                         // moves (the transfer and adoption paths check this
                         // flag).
                         lanes_at_membership_barrier_ =
                             kind == des::BarrierKind::kRebalance ||
                             kind == des::BarrierKind::kFailover;
                         MergeEffects();
                       });
  sim.RunUntilParallel(duration, group);
  // Drain in-flight service past the horizon: lane completions first
  // (deterministic merge), then the coordinator's remaining gossip
  // deliveries — the two sets are disjoint, so the order between them
  // cannot matter.
  group.DrainAll();
  sim.RunAll();
}

void ShardedMediationSystem::OnQueryArrival(des::Simulator& sim,
                                            const Query& query) {
  const SimTime now = sim.Now();
  const std::uint32_t shard = router_.Route(query, now);
  ++result_.shards[shard].routed;
  if (coord_trace_ != nullptr && coord_trace_->SamplesQuery(query.id)) {
    coord_trace_->RecordInstant(obs::SpanKind::kRoute, now, query.id,
                                static_cast<double>(shard));
  }
  if (!window_controllers_.empty()) {
    // Adaptive intake: feed the shard's arrival-rate EWMA (coordinator
    // event — deterministic under any thread count).
    window_controllers_[shard].OnArrival(now);
  }

  if (!parallel_ && !batching_enabled_) {
    // Classic path: mediate inline, inside the arrival event.
    RouteWalk(sim, query, shard, 0);
    return;
  }
  EnqueueForMediation(query, shard, now);
}

void ShardedMediationSystem::RouteWalk(des::Simulator& sim, const Query& query,
                                       std::uint32_t shard,
                                       std::size_t attempt) {
  const SimTime now = sim.Now();
  std::size_t attempts = 1;
  if (config_.rerouting_enabled && cores_.size() > 1) {
    attempts = std::min<std::size_t>(
        std::max<std::size_t>(config_.max_route_attempts, 1), cores_.size());
  }

  // Shards this query has bounced off, so the re-route walk visits each
  // shard at most once (sized lazily: most queries never bounce).
  const bool traced =
      coord_trace_ != nullptr && coord_trace_->SamplesQuery(query.id);
  std::vector<bool> tried;
  if (attempt > 0) {
    // Resuming after a bounced batch attempt on `shard` (attempt 0).
    if (attempt >= attempts) {
      ++engine_.result().queries_infeasible;
      if (traced) {
        coord_trace_->RecordInstant(obs::SpanKind::kReject, now, query.id,
                                    static_cast<double>(shard));
      }
      return;
    }
    tried.assign(cores_.size(), false);
    tried[shard] = true;
    shard = router_.NextShard(shard, now, tried);
    reroutes_counter_->Inc();
    if (traced) {
      coord_trace_->RecordInstant(obs::SpanKind::kReroute, now, query.id,
                                  static_cast<double>(shard));
    }
  }
  for (; attempt < attempts; ++attempt) {
    const bool final_attempt = attempt + 1 == attempts;
    // The last shard tried must mediate even past the saturation bound: a
    // system that is saturated everywhere still has to serve its queries.
    const double saturation_bound =
        final_attempt ? 0.0 : config_.saturation_backlog_seconds;
    const runtime::MediationCore::Outcome outcome =
        cores_[shard]->Allocate(sim, query, saturation_bound);
    switch (outcome) {
      case runtime::MediationCore::Outcome::kAllocated:
        if (attempt > 0) rescues_counter_->Inc();
        return;
      case runtime::MediationCore::Outcome::kUnallocated:
        // The method saw the full candidate set and refused (strict
        // economic broker). That mediation round happened — providers and
        // the consumer recorded it — so replaying the query on another
        // shard would double-count.
        ++engine_.result().queries_infeasible;
        return;
      case runtime::MediationCore::Outcome::kNoCandidates:
      case runtime::MediationCore::Outcome::kSaturated:
        break;  // bounce to the next shard, if any attempt remains
    }
    if (!final_attempt) {
      if (tried.empty()) tried.assign(cores_.size(), false);
      tried[shard] = true;
      shard = router_.NextShard(shard, now, tried);
      reroutes_counter_->Inc();
      if (traced) {
        coord_trace_->RecordInstant(obs::SpanKind::kReroute, now, query.id,
                                    static_cast<double>(shard));
      }
    }
  }
  ++engine_.result().queries_infeasible;
  if (traced) {
    coord_trace_->RecordInstant(obs::SpanKind::kReject, now, query.id,
                                static_cast<double>(shard));
  }
}

double ShardedMediationSystem::BatchWindowFor(std::uint32_t shard) const {
  return window_controllers_.empty() ? config_.batch_window
                                     : window_controllers_[shard].Window();
}

void ShardedMediationSystem::SampleShardBacklogs() {
  // Barrier context (gossip task or the dedicated sampling task): the lanes
  // are quiescent, so reading the member providers' queue state from the
  // coordinator is race-free and deterministic.
  for (std::size_t s = 0; s < cores_.size(); ++s) {
    window_controllers_[s].OnBacklogSample(cores_[s]->MeanBacklogSeconds());
  }
}

void ShardedMediationSystem::EnqueueForMediation(const Query& query,
                                                 std::uint32_t shard,
                                                 SimTime now) {
  // Lane intake: the shard's own queue under parallel execution, the
  // shared kernel otherwise (serial batching).
  des::Simulator& lane = parallel_ ? *lane_sims_[shard] : engine_.sim();
  if (batching_enabled_) {
    std::vector<Query>& buffer = batch_buffers_[shard];
    buffer.push_back(query);
    // Arm a flush when no pending flush covers this arrival: either the
    // buffer was empty, or the pending flush's due time is at or before
    // `now` (under parallel execution the coordinator runs ahead of the
    // lanes, so a flush can be due but not yet executed — it will only
    // consume the arrivals that preceded it).
    if (buffer.size() == 1 || now >= flush_due_[shard]) {
      flush_due_[shard] = now + BatchWindowFor(shard);
      lane.ScheduleAt(flush_due_[shard],
                      [this, shard](des::Simulator& lane_sim) {
                        FlushBatch(lane_sim, shard);
                      });
    }
    return;
  }
  // Parallel, unbatched: one single-query mediation event on the lane, at
  // the arrival time (the lane has not advanced past it — lanes only run
  // up to the coordinator's clock).
  lane.ScheduleAt(now, [this, shard, query](des::Simulator& lane_sim) {
    const runtime::MediationCore::Outcome outcome =
        cores_[shard]->Allocate(lane_sim, query, 0.0);
    if (outcome != runtime::MediationCore::Outcome::kAllocated) {
      CountInfeasible(lane_sim, shard, query);
    }
  });
}

void ShardedMediationSystem::FlushBatch(des::Simulator& sim,
                                        std::uint32_t shard) {
  // Consume only the arrivals this flush covers (issue_time <= flush time);
  // later arrivals already armed their own flush. Arrivals append in time
  // order, so that is a prefix of the buffer.
  std::vector<Query>& buffer = batch_buffers_[shard];
  std::vector<Query>& burst = flush_scratch_[shard];
  burst.clear();
  const SimTime flush_time = sim.Now();
  std::size_t covered = 0;
  while (covered < buffer.size() &&
         buffer[covered].issue_time <= flush_time) {
    ++covered;
  }
  if (covered == 0) return;
  burst.assign(buffer.begin(), buffer.begin() + covered);
  buffer.erase(buffer.begin(), buffer.begin() + covered);
  // Lane-side registry tallies: FlushBatch runs on the shard's lane thread
  // under parallel execution, so these write the shard's own registry; the
  // merged snapshot sums them at Run() end.
  flush_counters_[shard]->Inc();
  batched_query_counters_[shard]->Inc(burst.size());
  obs::TraceLane* lane_trace = engine_.recorder().trace_lane(shard);
  for (const Query& q : burst) {
    const double wait = flush_time - q.issue_time;
    if (batch_wait_hists_[shard] != nullptr) {
      batch_wait_hists_[shard]->Record(wait);
    }
    if (lane_trace != nullptr && lane_trace->SamplesQuery(q.id)) {
      lane_trace->Record(obs::SpanKind::kBatchWait, q.issue_time, flush_time,
                         q.id, static_cast<double>(burst.size()));
    }
  }

  std::size_t attempts = 1;
  if (!parallel_ && config_.rerouting_enabled && cores_.size() > 1) {
    attempts = std::min<std::size_t>(
        std::max<std::size_t>(config_.max_route_attempts, 1), cores_.size());
  }
  // Mirrors the walk's final-attempt rule: without a second attempt the
  // burst must mediate even past the saturation bound.
  const double saturation_bound =
      attempts > 1 ? config_.saturation_backlog_seconds : 0.0;

  std::vector<runtime::MediationCore::Outcome>& outcomes =
      outcome_scratch_[shard];
  cores_[shard]->AllocateBatch(sim, burst, saturation_bound, &outcomes);

  for (std::size_t i = 0; i < burst.size(); ++i) {
    switch (outcomes[i]) {
      case runtime::MediationCore::Outcome::kAllocated:
        break;
      case runtime::MediationCore::Outcome::kUnallocated:
        CountInfeasible(sim, shard, burst[i]);
        break;
      case runtime::MediationCore::Outcome::kNoCandidates:
      case runtime::MediationCore::Outcome::kSaturated:
        if (attempts > 1) {
          // Serial rerouting: resume the walk past the bounced batch
          // attempt, query by query.
          RouteWalk(sim, burst[i], shard, 1);
        } else {
          CountInfeasible(sim, shard, burst[i]);
        }
        break;
    }
  }
}

void ShardedMediationSystem::CountInfeasible(des::Simulator& sim,
                                             std::uint32_t shard,
                                             const Query& query) {
  if (parallel_) {
    effect_logs_[shard].RecordInfeasible(sim.Now());
  } else {
    ++engine_.result().queries_infeasible;
  }
  // Lane-side rejection span: this runs on the shard's lane thread under
  // parallel execution, so it records into the shard's own trace lane.
  if (obs::TraceLane* lane_trace = engine_.recorder().trace_lane(shard);
      lane_trace != nullptr && lane_trace->SamplesQuery(query.id)) {
    lane_trace->RecordInstant(obs::SpanKind::kReject, sim.Now(), query.id,
                              static_cast<double>(shard));
  }
}

void ShardedMediationSystem::MergeEffects() {
  runtime::MergeEffectLogs(effect_logs_, &engine_.result(),
                           &engine_.response_window());
  // Lanes are quiescent at a barrier: move their pending spans into the
  // recorder's merged stream before the rings can overflow.
  engine_.recorder().DrainSpans();
}

void ShardedMediationSystem::StartAuxiliaryTasks(des::Simulator& sim) {
  // Cross-shard load gossip (a barrier under parallel execution: reports
  // read core state, so the lanes drain and merge first).
  if (config_.gossip_enabled) {
    gossip_task_.Start(sim, config_.gossip_interval, config_.gossip_interval,
                       config_.base.duration,
                       [this](des::Simulator& s) { SendLoadReports(s); },
                       /*barrier=*/parallel_);
  } else if (!window_controllers_.empty()) {
    // No gossip to piggyback on: the adaptive controllers still need their
    // queue-debt signal, on the same cadence and with the same barrier
    // semantics the load reports would have had.
    backlog_sample_task_.Start(sim, config_.gossip_interval,
                               config_.gossip_interval, config_.base.duration,
                               [this](des::Simulator&) {
                                 SampleShardBacklogs();
                               },
                               /*barrier=*/parallel_);
  }
  // Crash-consistent snapshots on the fault schedule's cadence, armed only
  // when kills are scheduled. An epoch barrier under parallel execution:
  // the cut reads core state over quiescent, merged lanes.
  if (!config_.base.shard_faults.empty()) {
    const SimTime cadence = config_.base.shard_faults.snapshot_interval;
    snapshot_task_.Start(sim, cadence, cadence, config_.base.duration,
                         [this](des::Simulator& s) { OnSnapshotTick(s); },
                         /*barrier=*/parallel_);
  }
  // The re-partitioning schedule: a kRebalance barrier, so under parallel
  // execution the lanes are quiescent and merged — and the merge hook knows
  // membership may move — before any provider changes hands.
  if (config_.rebalance_enabled && cores_.size() > 1) {
    rebalance_task_.Start(sim, config_.rebalance_interval,
                          config_.rebalance_interval, config_.base.duration,
                          [this](des::Simulator& s) { OnRebalanceTick(s); },
                          parallel_ ? des::BarrierKind::kRebalance
                                    : des::BarrierKind::kNone);
  }
}

std::vector<std::uint32_t> ShardedMediationSystem::LiveShardRanks() const {
  std::vector<std::uint32_t> live;
  live.reserve(cores_.size());
  for (std::uint32_t s = 0; s < cores_.size(); ++s) {
    if (!router_.IsShardDead(s)) live.push_back(s);
  }
  return live;
}

std::uint32_t ShardedMediationSystem::ShardOfAddress(NodeId address) const {
  const auto it =
      std::find(shard_addresses_.begin(), shard_addresses_.end(), address);
  SQLB_CHECK(it != shard_addresses_.end(),
             "load report relayed to an unknown shard address");
  return static_cast<std::uint32_t>(it - shard_addresses_.begin());
}

void ShardedMediationSystem::RelayLoadReport(std::uint32_t shard,
                                             const msg::Message& message) {
  // The relay died with the report in flight: drop it. The origin is still
  // alive and reports again next round, over a tree rebuilt without the
  // corpse — one round of extra staleness, never a lost shard.
  if (router_.IsShardDead(shard)) {
    relay_drops_counter_->Inc();
    return;
  }
  const std::vector<std::uint32_t> live = LiveShardRanks();
  const auto it = std::find(live.begin(), live.end(), shard);
  SQLB_CHECK(it != live.end(), "live relay shard missing from rank list");
  const std::size_t rank = static_cast<std::size_t>(it - live.begin());
  // One hop up the current tree. Hops always move to a strictly smaller
  // shard index, so a report can never cycle even while membership churns
  // under it; rank 0 hands it to the router.
  msg::Message forward;
  forward.from = shard_addresses_[shard];
  forward.to = rank == 0
                   ? sink_address_
                   : shard_addresses_[live[GossipParentRank(
                         rank, config_.gossip_fanout)]];
  forward.kind = kLoadReportKind;
  forward.correlation = message.correlation;
  forward.payload = message.payload;  // measured_at rides through unchanged
  relay_forwards_counter_->Inc();
  gossip_load_messages_counter_->Inc();
  network_.Send(std::move(forward));
}

void ShardedMediationSystem::SendLoadReports(des::Simulator& sim) {
  const SimTime now = sim.Now();
  if (!window_controllers_.empty()) {
    SampleShardBacklogs();
  }
  // In serial runs no barrier merge ever fires; draining on the gossip
  // cadence keeps the per-lane rings from overflowing on long runs.
  engine_.recorder().DrainSpans();
  const std::vector<std::uint32_t> live =
      config_.gossip_topology == GossipTopologyKind::kDirect
          ? std::vector<std::uint32_t>{}
          : LiveShardRanks();
  for (std::uint32_t s = 0; s < cores_.size(); ++s) {
    if (router_.IsShardDead(s)) continue;  // dead mediators report nothing
    LoadReport report;
    report.shard = s;
    report.utilization = cores_[s]->MeanCommittedUtilization(now);
    report.active_providers = cores_[s]->active_provider_count();
    report.measured_at = now;
    report.ring_epoch = shard_epoch_seen_[s];
    if (coord_trace_ != nullptr) {
      // Gossip spans are not query-scoped: ref = reporting shard, detail =
      // the utilization it reported. Always recorded while tracing is on.
      coord_trace_->RecordInstant(obs::SpanKind::kGossip, now, s,
                                  report.utilization);
    }

    msg::Message message;
    message.from = shard_addresses_[s];
    message.to = sink_address_;
    if (config_.gossip_topology == GossipTopologyKind::kHierarchical) {
      // One hop up the round's aggregation tree; the root reports to the
      // router directly. Interior hops happen at delivery time
      // (RelayLoadReport), so every hop costs one network latency of added
      // staleness — surfaced by gossip.staleness_seconds.
      const std::size_t rank = static_cast<std::size_t>(
          std::find(live.begin(), live.end(), s) - live.begin());
      if (rank != 0) {
        message.to = shard_addresses_[live[GossipParentRank(
            rank, config_.gossip_fanout)]];
      }
    }
    message.kind = kLoadReportKind;
    message.correlation = s;
    message.payload = report;
    gossip_load_messages_counter_->Inc();
    network_.Send(std::move(message));
  }

  // The retry half of loss tolerance: a shard still acknowledging an older
  // partition epoch (its ring update was dropped or delayed by the network)
  // gets the current epoch re-announced on this cadence until it converges.
  // Until then its load reports stay epoch-lagged and load-aware routing
  // falls back to hashing for it — stale but safe.
  const std::uint64_t epoch = router_.ring_epoch();
  for (std::uint32_t s = 0; s < cores_.size(); ++s) {
    if (router_.IsShardDead(s) || shard_epoch_seen_[s] >= epoch) continue;
    ring_retries_counter_->Inc();
    SendRingUpdate(s, epoch);
  }
}

void ShardedMediationSystem::VisitActiveProviders(
    const std::function<void(runtime::ProviderAgent&)>& fn) {
  // Shard order, then each shard's active list: the sampling order the
  // serial == parallel pins rely on.
  std::vector<runtime::ProviderAgent>& providers = engine_.providers();
  for (const auto& core : cores_) {
    for (std::uint32_t index : core->active_providers()) {
      fn(providers[index]);
    }
  }
}

std::size_t ShardedMediationSystem::ActiveProviderCount() const {
  std::size_t active = 0;
  for (const auto& core : cores_) active += core->active_provider_count();
  return active;
}

void ShardedMediationSystem::ExtendMetricsSample(SimTime now,
                                                 des::SeriesSet& series) {
  // The shard-tier view: per-shard load and membership, appended after the
  // engine's tier-independent keys.
  for (std::size_t shard = 0; shard < cores_.size(); ++shard) {
    series.Add(kSeriesShardUtPrefix + std::to_string(shard), now,
               cores_[shard]->MeanCommittedUtilization(now));
    series.Add(kSeriesShardActivePrefix + std::to_string(shard), now,
               static_cast<double>(cores_[shard]->active_provider_count()));
  }
}

void ShardedMediationSystem::RunProviderDepartureChecks(SimTime now,
                                                        double optimal_ut) {
  // Section 6.3.2 provider rules, shard by shard: each mediator assesses
  // only its own members; consumers are system-global (the engine runs
  // their rule right after this hook).
  for (const auto& core : cores_) {
    core->RunProviderDepartureChecks(now, optimal_ut);
  }
}

runtime::ChurnOutcome ShardedMediationSystem::OnProviderChurn(
    des::Simulator& sim, const runtime::ProviderChurnEvent& event) {
  // Fires at an epoch barrier under parallel execution: admitting a member
  // touches no lane-pending events, and a leave behaves exactly like a
  // rule-based departure (queued work drains on its lane, nothing new
  // arrives).
  const SimTime now = sim.Now();
  if (event.join) {
    for (const auto& core : cores_) {
      if (core->IsMember(event.provider_index)) {
        return runtime::ChurnOutcome::kNoOp;
      }
    }
    // A dead shard's provider awaiting adoption is a member nowhere, but it
    // is still in the system (active, draining toward its new owner): the
    // join is as redundant as it would have been without the crash.
    if (std::any_of(pending_adoptions_.begin(), pending_adoptions_.end(),
                    [&event](const PendingAdoption& a) {
                      return a.provider == event.provider_index;
                    })) {
      return runtime::ChurnOutcome::kNoOp;
    }
    // A rejoining provider must have drained its previous life's queue
    // first: its in-flight service chain lives on the lane of the shard
    // that enqueued it, and the current ring may home the provider
    // elsewhere — admitting it there would split its state across two
    // lanes, exactly what the handoff protocol's drain rule forbids. The
    // engine retries the join until the drain completes.
    if (!engine_.providers()[event.provider_index].Idle()) {
      return runtime::ChurnOutcome::kDeferred;
    }
    // A handoff sealed for a previous membership incarnation must not
    // attach to this one (the provider may be rejoining the very shard the
    // old seal names as its source, which the IsMember drain check cannot
    // distinguish from the seal never having been resolved).
    DropPendingHandoff(event.provider_index);
    const std::uint32_t shard =
        router_.ShardOfProvider(ProviderId(event.provider_index));
    cores_[shard]->AdmitMember(event.provider_index, now);
    ++result_.shards[shard].joined;
    return runtime::ChurnOutcome::kApplied;
  }
  for (const auto& core : cores_) {
    if (core->DepartMemberForChurn(event.provider_index, now)) {
      // The member this seal was draining is gone; nothing left to move.
      DropPendingHandoff(event.provider_index);
      return runtime::ChurnOutcome::kApplied;
    }
  }
  // A provider awaiting failover adoption is a member of no core, but the
  // scheduled leave still binds: it departs directly (the accounting a
  // DepartMemberForChurn would have done) and the adoption is annulled.
  const auto pending = std::find_if(
      pending_adoptions_.begin(), pending_adoptions_.end(),
      [&event](const PendingAdoption& a) {
        return a.provider == event.provider_index;
      });
  if (pending != pending_adoptions_.end()) {
    pending_adoptions_.erase(pending);
    runtime::ProviderAgent& agent = engine_.providers()[event.provider_index];
    agent.Depart();
    runtime::DepartureEvent departure;
    departure.time = now;
    departure.is_provider = true;
    departure.reason = runtime::DepartureReason::kChurn;
    departure.participant_index = event.provider_index;
    departure.capacity_class = agent.profile().capacity_class;
    departure.interest_class = agent.profile().interest_class;
    departure.adaptation_class = agent.profile().adaptation_class;
    engine_.result().departures.push_back(departure);
    engine_.result().tally.Add(departure);
    return runtime::ChurnOutcome::kApplied;
  }
  // Already gone (departure rules beat the schedule to it).
  return runtime::ChurnOutcome::kNoOp;
}

void ShardedMediationSystem::DropPendingHandoff(std::uint32_t provider) {
  const auto it =
      std::find_if(pending_handoffs_.begin(), pending_handoffs_.end(),
                   [provider](const PendingHandoff& h) {
                     return h.provider == provider;
                   });
  if (it == pending_handoffs_.end()) return;
  pending_handoffs_.erase(it);
  handoffs_cancelled_counter_->Inc();
}

void ShardedMediationSystem::OnRebalanceTick(des::Simulator& sim) {
  // Pass 1: transfer whatever drained since the last tick (and drop
  // handoffs whose provider departed mid-drain); learn current ownership.
  std::vector<std::uint32_t> owner = ProcessPendingHandoffs(sim.Now());

  // Effective member counts, with still-pending moves credited to their
  // target shard so an in-progress migration is not corrected twice.
  std::vector<std::size_t> counts(cores_.size(), 0);
  for (std::size_t s = 0; s < cores_.size(); ++s) {
    counts[s] = cores_[s]->active_provider_count();
  }
  for (const PendingHandoff& h : pending_handoffs_) {
    --counts[h.from];
    ++counts[h.to];
  }

  // Reweight the partition ring past the imbalance threshold and gossip
  // the new epoch out — damped two ways. Settle gate: while any handoff of
  // the previous correction is still draining, the member counts are a
  // moving target and a fresh correction would chase them (the reweigh
  // cascade a mass departure used to trigger), so the ring holds still
  // until the moves land. Hysteresis: the imbalance must then persist
  // rebalance_hysteresis_ticks consecutive ticks, and the streak restarts
  // after every applied reweigh.
  if (!pending_handoffs_.empty()) {
    if (router_.RebalancedVnodes(counts) != router_.shard_vnodes()) {
      rebalances_damped_counter_->Inc();
    }
    imbalance_streak_ = 0;
  } else {
    std::vector<std::size_t> vnodes = router_.RebalancedVnodes(counts);
    if (vnodes != router_.shard_vnodes()) {
      ++imbalance_streak_;
      if (imbalance_streak_ >=
          std::max<std::size_t>(1,
                                config_.router.rebalance_hysteresis_ticks)) {
        router_.SetShardVnodes(std::move(vnodes));
        ring_rebalances_counter_->Inc();
        AnnounceRingEpoch();
        imbalance_streak_ = 0;
      } else {
        rebalances_damped_counter_->Inc();
      }
    } else {
      imbalance_streak_ = 0;
    }
  }

  // Reconcile ownership with the (possibly rebuilt) ring: seal new movers
  // at their source, retarget in-flight moves, cancel moves the ring
  // flapped back on. Provider index order keeps the sequence deterministic.
  for (std::uint32_t p = 0; p < owner.size(); ++p) {
    if (owner[p] == kNoShard) continue;
    const std::uint32_t desired = router_.ShardOfProvider(ProviderId(p));
    const auto pending =
        std::find_if(pending_handoffs_.begin(), pending_handoffs_.end(),
                     [p](const PendingHandoff& h) { return h.provider == p; });
    if (desired == owner[p]) {
      if (pending != pending_handoffs_.end()) {
        cores_[owner[p]]->UnsealMember(p);
        pending_handoffs_.erase(pending);
        handoffs_cancelled_counter_->Inc();
      }
      continue;
    }
    if (pending != pending_handoffs_.end()) {
      pending->to = desired;
      continue;
    }
    cores_[owner[p]]->SealMember(p);
    pending_handoffs_.push_back(
        PendingHandoff{p, owner[p], desired, sim.Now()});
    handoffs_started_counter_->Inc();
  }

  // Pass 2: movers that were already idle transfer within this barrier.
  owner = ProcessPendingHandoffs(sim.Now());

  // Ownership digest (FNV-1a over ring epoch + owner of every provider):
  // the determinism pin compares these sequences across thread counts.
  std::uint64_t digest = 1469598103934665603ULL;
  const auto mix = [&digest](std::uint64_t v) {
    digest ^= v;
    digest *= 1099511628211ULL;
  };
  mix(router_.ring_epoch());
  for (std::uint32_t o : owner) mix(o);
  result_.ownership_digests.push_back(digest);
}

std::vector<std::uint32_t> ShardedMediationSystem::ProcessPendingHandoffs(
    SimTime now) {
  // Under parallel execution a transfer is only safe with every lane
  // quiescent at a *membership* barrier (kRebalance or kFailover) — the
  // kind the lane group's merge hook recorded. A plain epoch barrier (or no
  // barrier) must never reach this point with work to move.
  SQLB_CHECK(!parallel_ || pending_handoffs_.empty() ||
                 lanes_at_membership_barrier_,
             "re-partitioning handoffs require a rebalance or failover "
             "barrier");
  std::vector<runtime::ProviderAgent>& providers = engine_.providers();
  for (auto it = pending_handoffs_.begin(); it != pending_handoffs_.end();) {
    if (!cores_[it->from]->IsMember(it->provider)) {
      // Departed (rules or schedule) while draining: nothing left to move.
      it = pending_handoffs_.erase(it);
      handoffs_cancelled_counter_->Inc();
      continue;
    }
    if (!providers[it->provider].Idle()) {
      ++it;  // still draining its queue on the source lane
      continue;
    }
    const runtime::MediationCore::ProviderHandoff handoff =
        cores_[it->from]->ExportMember(it->provider);
    cores_[it->to]->ImportMember(handoff);
    ++result_.shards[it->from].providers_out;
    ++result_.shards[it->to].providers_in;
    handoffs_completed_counter_->Inc();
    // Seal-to-transfer drain latency, and the handoff span covering it
    // (ref = the migrating provider, detail = destination shard).
    if (handoff_drain_hist_ != nullptr) {
      handoff_drain_hist_->Record(now - it->sealed_at);
    }
    if (coord_trace_ != nullptr) {
      coord_trace_->Record(obs::SpanKind::kHandoff, it->sealed_at, now,
                           it->provider, static_cast<double>(it->to));
    }
    it = pending_handoffs_.erase(it);
  }

  std::vector<std::uint32_t> owner(providers.size(), kNoShard);
  for (std::uint32_t s = 0; s < cores_.size(); ++s) {
    for (std::uint32_t index : cores_[s]->active_providers()) {
      owner[index] = s;
    }
  }
  return owner;
}

void ShardedMediationSystem::AnnounceRingEpoch() {
  const std::uint64_t epoch = router_.ring_epoch();
  if (!config_.gossip_enabled) {
    // No gossip substrate to ride: the fleet learns the epoch instantly.
    for (std::uint64_t& seen : shard_epoch_seen_) {
      seen = std::max(seen, epoch);
    }
    return;
  }
  for (std::uint32_t s = 0; s < cores_.size(); ++s) {
    SendRingUpdate(s, epoch);
  }
}

void ShardedMediationSystem::SendRingUpdate(std::uint32_t shard,
                                            std::uint64_t epoch) {
  RingUpdate update;
  update.shard = shard;
  update.epoch = epoch;
  msg::Message message;
  message.from = sink_address_;
  message.to = shard_addresses_[shard];
  message.kind = kRingUpdateKind;
  message.correlation = epoch;
  message.payload = update;
  network_.Send(std::move(message));
}

void ShardedMediationSystem::OnRingEpochSeen(std::uint32_t shard,
                                             std::uint64_t epoch) {
  shard_epoch_seen_[shard] = std::max(shard_epoch_seen_[shard], epoch);
}

void ShardedMediationSystem::OnSnapshotTick(des::Simulator& sim) {
  const SimTime now = sim.Now();
  for (std::uint32_t s = 0; s < cores_.size(); ++s) {
    if (router_.IsShardDead(s)) continue;
    snapshots_[s] = cores_[s]->ExportSnapshot(now);
    snapshots_counter_->Inc();
  }
}

void ShardedMediationSystem::OnShardFault(
    des::Simulator& sim, const runtime::ShardFaultEvent& event) {
  const std::uint32_t dead = event.shard;
  if (router_.IsShardDead(dead)) return;  // killing the dead twice: no-op
  if (router_.live_shard_count() == 1) {
    // No survivor to fail over to (M = 1, or every sibling already died):
    // the mediator crashes and restarts in place.
    RestartShard(sim, dead);
    return;
  }
  const SimTime now = sim.Now();
  shard_crashes_counter_->Inc();
  if (coord_trace_ != nullptr) {
    coord_trace_->RecordInstant(obs::SpanKind::kGossip, now, dead, -1.0);
  }

  // 1. The crash: membership, matchmaking and in-flight tracking die with
  //    the core; completions already scheduled on its providers will drop
  //    against the bumped crash epoch when they fire.
  runtime::MediationCore::CrashReport report = cores_[dead]->Crash();

  // 2. Take the dead shard off every routing surface and off the partition
  //    ring (epoch bump), and tell the fleet. Survivor ownership follows
  //    the rebuilt ring.
  router_.MarkShardDead(dead);
  std::vector<std::size_t> vnodes = router_.shard_vnodes();
  vnodes[dead] = 0;
  router_.SetShardVnodes(std::move(vnodes));
  AnnounceRingEpoch();

  // 3. Cancel handoffs touching the dead shard: a move out of it is moot
  //    (the member died with the core and re-enters through adoption); a
  //    move into it releases the seal so the live source resumes matching.
  for (auto it = pending_handoffs_.begin(); it != pending_handoffs_.end();) {
    if (it->from == dead) {
      it = pending_handoffs_.erase(it);
      handoffs_cancelled_counter_->Inc();
    } else if (it->to == dead) {
      cores_[it->from]->UnsealMember(it->provider);
      it = pending_handoffs_.erase(it);
      handoffs_cancelled_counter_->Inc();
    } else {
      ++it;
    }
  }

  // 4. Queue every lost member for adoption — snapshot baselines when the
  //    last snapshot has them, fresh admission otherwise — and adopt the
  //    already-idle ones within this barrier. Non-idle ones keep draining
  //    their service chains on the dead lane and are retried at kFailover
  //    barriers every drain_retry_interval (the handoff drain rule's twin).
  const runtime::MediationCore::CoreSnapshot& snapshot = snapshots_[dead];
  for (std::uint32_t p : report.members) {
    PendingAdoption adoption;
    adoption.provider = p;
    const auto snap = std::lower_bound(
        snapshot.members.begin(), snapshot.members.end(), p,
        [](const runtime::MediationCore::ProviderHandoff& h,
           std::uint32_t value) { return h.provider_index < value; });
    if (snap != snapshot.members.end() && snap->provider_index == p) {
      adoption.baseline = *snap;
      adoption.restored = true;
    } else {
      adoption.baseline.provider_index = p;  // baseline set at adoption time
      adoption.restored = false;
    }
    pending_adoptions_.push_back(adoption);
  }
  ProcessPendingAdoptions(now);
  if (!pending_adoptions_.empty()) {
    drain_ticks_counter_->Inc();
    ScheduleAdoptionRetry(sim);
  }

  // 5. Re-issue what the crash lost, ascending query id: in-flight
  //    mediations (their completion callbacks died with the core), then the
  //    intake buffer (routed but never mediated).
  for (const Query& q : report.lost_queries) {
    ReissueQuery(sim, q, runtime::ReissueReason::kInFlight);
  }
  std::vector<Query> intake;
  intake.swap(batch_buffers_[dead]);
  flush_due_[dead] = -kSimTimeInfinity;
  for (const Query& q : intake) {
    ReissueQuery(sim, q, runtime::ReissueReason::kIntake);
  }
}

void ShardedMediationSystem::RestartShard(des::Simulator& sim,
                                          std::uint32_t shard) {
  const SimTime now = sim.Now();
  shard_crashes_counter_->Inc();
  runtime::MediationCore::CrashReport report = cores_[shard]->Crash();
  // Same core, same lane: the restart re-installs the snapshot in place, so
  // even non-idle members keep their service chain on the one lane that
  // ever touched them — no drain wait, unlike cross-shard adoption.
  restored_counter_->Inc(cores_[shard]->RestoreSnapshot(snapshots_[shard]));
  // Members the snapshot predates (admitted after it was taken) re-enter
  // fresh: chronic baseline at current totals, departure grace restarted.
  for (std::uint32_t p : report.members) {
    if (cores_[shard]->IsMember(p)) continue;
    if (!engine_.providers()[p].active()) continue;
    runtime::MediationCore::ProviderHandoff fresh;
    fresh.provider_index = p;
    fresh.units_at_last_check =
        engine_.providers()[p].total_allocated_units();
    fresh.member_since = now;
    cores_[shard]->ImportMember(fresh);
    orphaned_counter_->Inc();
  }
  for (const Query& q : report.lost_queries) {
    ReissueQuery(sim, q, runtime::ReissueReason::kInFlight);
  }
  std::vector<Query> intake;
  intake.swap(batch_buffers_[shard]);
  flush_due_[shard] = -kSimTimeInfinity;
  for (const Query& q : intake) {
    ReissueQuery(sim, q, runtime::ReissueReason::kIntake);
  }
}

void ShardedMediationSystem::ProcessPendingAdoptions(SimTime now) {
  // Adoptions move membership between lanes, exactly like handoff
  // transfers: legal only with every lane quiescent at a membership
  // barrier.
  SQLB_CHECK(!parallel_ || pending_adoptions_.empty() ||
                 lanes_at_membership_barrier_,
             "failover adoptions require a failover barrier");
  std::vector<runtime::ProviderAgent>& providers = engine_.providers();
  for (auto it = pending_adoptions_.begin();
       it != pending_adoptions_.end();) {
    runtime::ProviderAgent& agent = providers[it->provider];
    if (!agent.active()) {
      // Departed while waiting (a scheduled leave): nothing to adopt.
      it = pending_adoptions_.erase(it);
      continue;
    }
    if (!agent.Idle()) {
      ++it;  // still draining its dead-lane service chain
      continue;
    }
    const std::uint32_t target =
        router_.ShardOfProvider(ProviderId(it->provider));
    runtime::MediationCore::ProviderHandoff baseline = it->baseline;
    if (it->restored) {
      restored_counter_->Inc();
    } else {
      // Orphan: the crash predates its first snapshot. Fresh admission.
      baseline.units_at_last_check = agent.total_allocated_units();
      baseline.member_since = now;
      orphaned_counter_->Inc();
    }
    cores_[target]->ImportMember(baseline);
    ++result_.shards[target].providers_in;
    if (coord_trace_ != nullptr) {
      coord_trace_->Record(obs::SpanKind::kHandoff, now, now, it->provider,
                           static_cast<double>(target));
    }
    it = pending_adoptions_.erase(it);
  }
}

void ShardedMediationSystem::ScheduleAdoptionRetry(des::Simulator& sim) {
  if (adoption_retry_armed_) return;
  const SimTime next =
      sim.Now() + config_.base.shard_faults.drain_retry_interval;
  // Past the horizon: the drain never completed in time — the providers
  // stay outside every membership this run (deterministic in every
  // execution mode, mirroring deferred churn joins).
  if (next > config_.base.duration) return;
  adoption_retry_armed_ = true;
  sim.ScheduleBarrierAt(next,
                        [this](des::Simulator& s) {
                          adoption_retry_armed_ = false;
                          ProcessPendingAdoptions(s.Now());
                          if (!pending_adoptions_.empty()) {
                            drain_ticks_counter_->Inc();
                            ScheduleAdoptionRetry(s);
                          }
                        },
                        des::BarrierKind::kFailover);
}

void ShardedMediationSystem::ReissueQuery(des::Simulator& sim,
                                          const Query& query,
                                          runtime::ReissueReason reason) {
  // Each re-issue is a fresh issue — that is what keeps the accounting
  // identity exact: completed + infeasible + reissued == issued.
  ++engine_.result().queries_issued;
  ++engine_.result().queries_reissued;
  reissued_counter_->Inc();
  reissued_reason_counters_[static_cast<std::size_t>(reason)]->Inc();
  if (reissue_delay_hist_ != nullptr) {
    reissue_delay_hist_->Record(sim.Now() - query.issue_time);
  }
  if (coord_trace_ != nullptr && coord_trace_->SamplesQuery(query.id)) {
    coord_trace_->RecordInstant(obs::SpanKind::kIntake, sim.Now(), query.id,
                                static_cast<double>(reason));
  }
  // The query keeps its id and original issue time, so the crash-to-
  // reissue gap rides into its response time: the availability penalty is
  // charged, not hidden. Routing sees the post-crash ring (the dead shard
  // is excluded everywhere).
  OnQueryArrival(sim, query);
}

ShardedRunResult RunShardedScenario(
    const ShardedSystemConfig& config,
    ShardedMediationSystem::MethodFactory factory) {
  ShardedMediationSystem system(config, std::move(factory));
  return system.Run();
}

}  // namespace sqlb::shard
