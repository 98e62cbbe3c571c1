#include "runtime/serving_mediator.h"

#include <algorithm>
#include <ctime>
#include <iterator>
#include <string>
#include <utility>

#include "common/status.h"
#include "des/hw_topo.h"
#include "obs/observability.h"
#include "obs/trace.h"

namespace sqlb::runtime {

namespace {

/// Bursts that never reach ApplyDecision (empty candidate set, saturation
/// bounce) still need decision records — appended at the call site, by the
/// recorder and the replayer alike, so the two logs stay comparable.
void AppendCallSiteRecords(const std::vector<Query>& burst,
                           const std::vector<MediationCore::Outcome>& outcomes,
                           DecisionLog* log) {
  if (log == nullptr) return;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (outcomes[i] != MediationCore::Outcome::kNoCandidates &&
        outcomes[i] != MediationCore::Outcome::kSaturated) {
      continue;  // ApplyDecision already recorded it in-core
    }
    DecisionLog::Record record;
    record.query = burst[i].id;
    record.outcome = outcomes[i];
    log->Append(std::move(record));
  }
}

/// Shard membership of the serving partition: provider p -> shard
/// p % shards, initial holdouts excluded. The replayer must build the
/// identical partition, so both go through here.
std::vector<std::vector<std::uint32_t>> PartitionProviders(
    const ScenarioEngine& engine, std::size_t shards) {
  std::vector<std::vector<std::uint32_t>> members(shards);
  const std::vector<ProviderAgent>& providers = engine.providers();
  for (std::uint32_t p = 0; p < providers.size(); ++p) {
    if (engine.held_out()[p]) continue;
    members[p % shards].push_back(p);
  }
  return members;
}

/// Holds in_submit_ non-zero for the duration of one Submit/SubmitMany
/// call, so Stop() can wait out every in-flight producer after closing the
/// intake. seq_cst on the increment pairs with Stop's seq_cst accepting_
/// store: a producer either sees the intake closed, or Stop sees its
/// increment and waits.
class IntakeGuard {
 public:
  explicit IntakeGuard(std::atomic<std::uint64_t>& counter)
      : counter_(counter) {
    counter_.fetch_add(1, std::memory_order_seq_cst);
  }
  ~IntakeGuard() { counter_.fetch_sub(1, std::memory_order_release); }

 private:
  std::atomic<std::uint64_t>& counter_;
};

/// CPU time the calling thread has used, in nanoseconds.
std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

void ServingProducer::AwaitMediated(std::uint64_t n) const {
  while (mediated() < n) {
    std::this_thread::yield();
  }
}

ServingMediator::ServingMediator(const SystemConfig& config,
                                 const ServingConfig& serving,
                                 MethodFactory factory)
    : config_(config),
      serving_(serving),
      engine_(config),
      pages_(mem::PagePool::kDefaultPageBytes, 0),
      slab_(&pages_, des::MpscQueue<Intake>::ChunkBytes()) {
  SQLB_CHECK(serving_.shards >= 1, "serving needs at least one shard");
  SQLB_CHECK(serving_.mediator_threads >= 1,
             "serving needs at least one mediator thread");
  SQLB_CHECK(serving_.shards % serving_.mediator_threads == 0,
             "mediator_threads must divide shards evenly (each group owns "
             "shards/mediator_threads contiguous shards)");
  SQLB_CHECK(serving_.time_scale > 0.0, "time_scale must be positive");
  SQLB_CHECK(serving_.max_burst >= 1, "max_burst must be >= 1");
  const DepartureConfig& dep = config_.departures;
  SQLB_CHECK(!dep.consumers_may_leave && !dep.provider_dissatisfaction &&
                 !dep.provider_starvation && !dep.provider_overutilization,
             "serving mode has no departure-check clock; disable departures");
  SQLB_CHECK(config_.provider_churn.events.empty(),
             "serving mode does not script churn");
  SQLB_CHECK(config_.shard_faults.empty(),
             "serving mode does not script shard faults");

  // Cores capture per-lane recorder pointers, so the recorder must be
  // shaped for `shards` lanes before any core exists. Likewise the agent
  // arenas: each shard's providers are homed on that shard's arena, so two
  // group threads never carve chunks from one pool concurrently.
  engine_.ConfigureObservability(serving_.shards);
  engine_.agent_store().ConfigureArenas(serving_.shards);

  shards_per_group_ = serving_.shards / serving_.mediator_threads;
  for (std::uint32_t g = 0; g < serving_.mediator_threads; ++g) {
    auto group = std::make_unique<GroupState>();
    group->index = g;
    group->first_shard = static_cast<std::uint32_t>(g * shards_per_group_);
    group->shard_count = static_cast<std::uint32_t>(shards_per_group_);
    groups_.push_back(std::move(group));
  }

  std::vector<std::vector<std::uint32_t>> members =
      PartitionProviders(engine_, serving_.shards);
  obs::FlightRecorder& recorder = engine_.recorder();
  for (std::uint32_t s = 0; s < serving_.shards; ++s) {
    GroupState& group = GroupOfShard(s);
    methods_.push_back(factory(s));
    SQLB_CHECK(methods_.back() != nullptr, "method factory returned null");
    MediationCore::Shared shared = engine_.CoreSharedState();
    shared.trace = recorder.trace_lane(s);
    shared.metrics = recorder.hot_metrics(s);
    // Completion accounting sinks straight into the owning group's result
    // and window — group-private, folded in group order at Stop.
    shared.result = &group.result;
    shared.response_window = &group.response_window;
    shared.arena = engine_.agent_store().arena(s);
    if (serving_.record_trace) {
      shared.decisions = &group.trace.decisions;
    }
    cores_.push_back(std::make_unique<MediationCore>(
        shared, methods_.back().get(), std::move(members[s])));
  }
  engine_.SetMethodName(methods_[0]->name());

  // One bounded intake queue per shard. chunks * kNodesPerChunk - 1 live
  // payloads fit (the stub node holds no payload), so size the chunk cap
  // to cover max_queued_per_shard.
  const std::size_t nodes_needed = serving_.max_queued_per_shard + 1;
  const std::size_t max_chunks = std::max<std::size_t>(
      1, (nodes_needed + des::MpscQueue<Intake>::kNodesPerChunk - 1) /
             des::MpscQueue<Intake>::kNodesPerChunk);
  for (std::uint32_t s = 0; s < serving_.shards; ++s) {
    auto state = std::make_unique<ShardState>(serving_.adaptive_batch);
    state->queue =
        std::make_unique<des::MpscQueue<Intake>>(&slab_, max_chunks);
    shards_.push_back(std::move(state));
  }

  // Observability handles, hoisted once (single writer: the owning group's
  // thread, per shard).
  for (std::uint32_t s = 0; s < serving_.shards; ++s) {
    flush_counters_.push_back(
        &recorder.registry(s).GetCounter(obs::kMetricBatchFlushes));
    batched_query_counters_.push_back(
        &recorder.registry(s).GetCounter(obs::kMetricBatchedQueries));
    obs::MetricsRegistry* hot = recorder.hot_metrics(s);
    batch_wait_hists_.push_back(
        hot != nullptr ? &hot->GetHistogram(obs::kMetricBatchWait) : nullptr);
    shard_trace_.push_back(recorder.trace_lane(s));
  }
}

ServingMediator::~ServingMediator() {
  if (started_ && !stopped_) {
    Stop();
  }
}

ServingProducer* ServingMediator::RegisterProducer() {
  SQLB_CHECK(!started_, "register producers before Start");
  auto producer = std::make_unique<ServingProducer>();
  producer->index_ = static_cast<std::uint32_t>(producers_.size());
  producer->group_wall_.resize(groups_.size());
  producers_.push_back(std::move(producer));
  return producers_.back().get();
}

void ServingMediator::Start() {
  SQLB_CHECK(!started_, "Start may only be called once");
  started_ = true;
  // Polling holds a CPU per group while it waits; that only pays when
  // every group and producer has a CPU of its own. Oversubscribed, a
  // polling group takes the CPU a producer or a busy group needs.
  if (groups_.size() + producers_.size() <= des::UsableCpuCount()) {
    poll_window_ = kIdlePollWindow;
  }
  t0_ = Clock::now();
  for (auto& group : groups_) {
    GroupState* g = group.get();
    g->thread = std::thread([this, g] { MediatorLoop(*g); });
  }
}

void ServingMediator::CheckRequest(std::uint32_t consumer_index,
                                   std::uint32_t class_index) const {
  SQLB_CHECK(consumer_index < engine_.population().num_consumers(),
             "consumer index out of range");
  SQLB_CHECK(class_index < engine_.population().num_query_classes(),
             "query class out of range");
}

bool ServingMediator::Submit(ServingProducer* producer,
                             std::uint32_t consumer_index,
                             std::uint32_t class_index) {
  CheckRequest(consumer_index, class_index);
  const IntakeGuard guard(in_submit_);
  if (!accepting_.load(std::memory_order_seq_cst)) {
    producer->shed_.fetch_add(1, std::memory_order_release);
    return false;
  }
  const std::uint32_t shard =
      consumer_index % static_cast<std::uint32_t>(shards_.size());
  ShardState& state = *shards_[shard];
  // Exact admission: reserve a slot against max_queued_per_shard before
  // touching the queue, give it back on refusal. The queue's own chunk cap
  // is sized to always cover a successful reservation.
  const std::int64_t prev =
      state.queued.fetch_add(1, std::memory_order_acq_rel);
  if (prev >= static_cast<std::int64_t>(serving_.max_queued_per_shard)) {
    state.queued.fetch_sub(1, std::memory_order_relaxed);
    producer->shed_.fetch_add(1, std::memory_order_release);
    return false;
  }
  Intake item;
  item.consumer = consumer_index;
  item.class_index = class_index;
  item.producer = producer->index_;
  item.enqueue_wall = Clock::now();
  if (!state.queue->Push(item)) {
    state.queued.fetch_sub(1, std::memory_order_relaxed);
    producer->shed_.fetch_add(1, std::memory_order_release);
    return false;
  }
  producer->submitted_.fetch_add(1, std::memory_order_release);
  WakeIfParked(GroupOfShard(shard));
  return true;
}

std::size_t ServingMediator::SubmitRun(ServingProducer* producer,
                                       std::uint32_t shard,
                                       const ServingRequest* requests,
                                       std::size_t count) {
  ShardState& state = *shards_[shard];
  const std::int64_t prev = state.queued.fetch_add(
      static_cast<std::int64_t>(count), std::memory_order_acq_rel);
  const std::int64_t room =
      static_cast<std::int64_t>(serving_.max_queued_per_shard) - prev;
  std::size_t take = 0;
  if (room > 0) {
    take = std::min<std::size_t>(count, static_cast<std::size_t>(room));
  }
  if (take < count) {
    state.queued.fetch_sub(static_cast<std::int64_t>(count - take),
                           std::memory_order_relaxed);
  }
  if (take == 0) return 0;

  // One clock read per run: every request in the run shares the enqueue
  // timestamp (part of the amortization; the drain clamps arrivals
  // monotonically anyway).
  Intake chunk[kSubmitRunCap];
  const Clock::time_point enqueue_wall = Clock::now();
  for (std::size_t i = 0; i < take; ++i) {
    chunk[i].consumer = requests[i].consumer;
    chunk[i].class_index = requests[i].class_index;
    chunk[i].producer = producer->index_;
    chunk[i].enqueue_wall = enqueue_wall;
  }
  const std::size_t pushed = state.queue->PushMany(chunk, take);
  if (pushed < take) {
    state.queued.fetch_sub(static_cast<std::int64_t>(take - pushed),
                           std::memory_order_relaxed);
  }
  if (pushed > 0) {
    producer->submitted_.fetch_add(pushed, std::memory_order_release);
    WakeIfParked(GroupOfShard(shard));
  }
  return pushed;
}

std::size_t ServingMediator::SubmitMany(ServingProducer* producer,
                                        const ServingRequest* requests,
                                        std::size_t count) {
  if (count == 0) return 0;
  // Every request, not just the first of each same-shard run: a later
  // out-of-range consumer can share the run's shard residue.
  for (std::size_t i = 0; i < count; ++i) {
    CheckRequest(requests[i].consumer, requests[i].class_index);
  }
  const IntakeGuard guard(in_submit_);
  if (!accepting_.load(std::memory_order_seq_cst)) {
    producer->shed_.fetch_add(count, std::memory_order_release);
    return 0;
  }
  const std::uint32_t num_shards = static_cast<std::uint32_t>(shards_.size());
  std::size_t accepted = 0;
  while (accepted < count) {
    const std::uint32_t shard = requests[accepted].consumer % num_shards;
    // Longest same-shard run from here, capped at the stack chunk.
    std::size_t run = 1;
    while (run < kSubmitRunCap && accepted + run < count &&
           requests[accepted + run].consumer % num_shards == shard) {
      ++run;
    }
    const std::size_t got =
        SubmitRun(producer, shard, requests + accepted, run);
    accepted += got;
    if (got < run) break;  // backpressure: shed the rest, keep the prefix
  }
  if (accepted < count) {
    producer->shed_.fetch_add(count - accepted, std::memory_order_release);
  }
  return accepted;
}

void ServingMediator::Drain() {
  for (;;) {
    std::uint64_t submitted = 0;
    for (const auto& producer : producers_) {
      submitted += producer->submitted();
    }
    if (served_.load(std::memory_order_acquire) >= submitted) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

SimTime ServingMediator::SimNowFromWall(Clock::time_point t) const {
  const double elapsed = std::chrono::duration<double>(t - t0_).count();
  return std::max(0.0, elapsed) * serving_.time_scale;
}

bool ServingMediator::GroupQueuesEmpty(const GroupState& group) const {
  for (std::uint32_t s = group.first_shard;
       s < group.first_shard + group.shard_count; ++s) {
    if (!shards_[s]->queue->Empty()) return false;
  }
  return true;
}

void ServingMediator::WakeIfParked(GroupState& group) {
  // Pairs with the parking side's parked-store -> fence -> queue-check:
  // the seq_cst total order puts either our push before its check (it sees
  // the work) or its parked-store before our load (we see the flag and
  // notify). Notifying under the mutex closes the window between the
  // group's predicate re-check and its wait.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (group.parked.load(std::memory_order_relaxed) != 0) {
    std::lock_guard<std::mutex> lk(group.park_mu);
    group.park_cv.notify_one();
  }
}

void ServingMediator::Park(GroupState& group,
                           Clock::time_point next_housekeeping) {
  // The park deadline is the earliest wall time at which this group has
  // work regardless of producers: the housekeeping tick, the group DES's
  // next completion, or a buffered batch whose window expires.
  Clock::time_point deadline = next_housekeeping;
  const auto wall_from_sim = [this](SimTime t) {
    return t0_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t / serving_.time_scale));
  };
  const SimTime next_event = group.sim.NextEventTime();
  if (next_event < kSimTimeInfinity) {
    deadline = std::min(deadline, wall_from_sim(next_event));
  }
  for (std::uint32_t s = group.first_shard;
       s < group.first_shard + group.shard_count; ++s) {
    const ShardState& state = *shards_[s];
    if (!state.buffer.empty()) {
      deadline = std::min(
          deadline, wall_from_sim(state.earliest_arrival + WindowFor(state)));
    }
  }
  if (deadline <= Clock::now()) return;

  group.parked.store(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!GroupQueuesEmpty(group) || stop_.load(std::memory_order_acquire)) {
    group.parked.store(0, std::memory_order_relaxed);
    return;
  }
  ++group.idle_parks;
  std::unique_lock<std::mutex> lk(group.park_mu);
  while (!stop_.load(std::memory_order_acquire) && GroupQueuesEmpty(group) &&
         Clock::now() < deadline) {
    if (group.park_cv.wait_until(lk, deadline) == std::cv_status::no_timeout &&
        !stop_.load(std::memory_order_acquire) && GroupQueuesEmpty(group)) {
      // Notified, but the queues are already empty again (a submit that
      // raced our own pre-park drain, or a stale notification).
      ++group.spurious_wakes;
    }
  }
  group.parked.store(0, std::memory_order_relaxed);
}

void ServingMediator::MediatorLoop(GroupState& group) {
  auto next_housekeeping =
      t0_ + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(serving_.housekeeping_interval));
  // When the last pass that did work ended: the poll window counts idle
  // time from there, however long that pass spent mediating.
  Clock::time_point idle_since = Clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    const Clock::time_point wall = Clock::now();
    const SimTime now = SimNowFromWall(wall);
    // Fire every due DES event (provider service, completion accounting):
    // the wall clock passing a completion's sim time is what "completes" it.
    group.sim.RunUntil(now);
    const std::size_t drained = DrainIntake(group, now);
    const std::size_t flushed = FlushDue(group, now, /*force=*/false);
    if (wall >= next_housekeeping) {
      Housekeep(group);
      next_housekeeping += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(serving_.housekeeping_interval));
    }
    if (drained > 0 || flushed > 0) {
      idle_since = Clock::now();
      continue;
    }
    // Idle: keep polling, yielding between passes, until the poll window
    // has passed with no work; then park until a producer submits or a
    // deadline (housekeeping, DES event, pending window) comes due. A wake
    // that brings no work parks again at once.
    if (wall - idle_since < poll_window_) {
      std::this_thread::yield();
      continue;
    }
    Park(group, next_housekeeping);
  }
  group.cpu_ns = ThreadCpuNs();
}

std::size_t ServingMediator::DrainIntake(GroupState& group, SimTime now) {
  std::size_t drained = 0;
  for (std::uint32_t s = group.first_shard;
       s < group.first_shard + group.shard_count; ++s) {
    ShardState& state = *shards_[s];
    Intake item;
    // Stop at max_burst: a full buffer flushes before more intake drains,
    // which pushes overload back onto the bounded queue.
    while (state.buffer.size() < serving_.max_burst &&
           state.queue->TryPop(&item)) {
      state.queued.fetch_sub(1, std::memory_order_relaxed);
      SimTime arrival = std::min(SimNowFromWall(item.enqueue_wall), now);
      arrival = std::max(arrival, state.last_arrival);
      state.last_arrival = arrival;
      if (serving_.adaptive_batch.enabled) {
        state.controller.OnArrival(arrival);
      }
      Query query;
      // Per-group id sequence: globally unique, deterministic within the
      // group, and the plain 0,1,2,... of the single-thread tier when
      // there is one group.
      query.id = group.next_local_id++ * groups_.size() + group.index;
      query.consumer = ConsumerId(item.consumer);
      query.n = config_.query_n;
      query.units = engine_.population().QueryUnits(item.class_index);
      query.class_index = item.class_index;
      query.issue_time = arrival;
      if (state.buffer.empty()) {
        state.earliest_arrival = arrival;
      }
      state.buffer.push_back(query);
      state.meta.emplace_back(item.enqueue_wall, item.producer);
      ++drained;
    }
  }
  return drained;
}

double ServingMediator::WindowFor(const ShardState& state) const {
  return serving_.adaptive_batch.enabled ? state.controller.Window()
                                         : serving_.batch_window;
}

std::size_t ServingMediator::FlushDue(GroupState& group, SimTime now,
                                      bool force) {
  std::size_t flushed = 0;
  for (std::uint32_t s = group.first_shard;
       s < group.first_shard + group.shard_count; ++s) {
    const ShardState& state = *shards_[s];
    if (state.buffer.empty()) continue;
    if (force || state.buffer.size() >= serving_.max_burst ||
        now >= state.earliest_arrival + WindowFor(state)) {
      FlushShard(group, s, now);
      ++flushed;
    }
  }
  return flushed;
}

void ServingMediator::FlushShard(GroupState& group, std::uint32_t shard,
                                 SimTime now) {
  ShardState& state = *shards_[shard];
  const Clock::time_point flush_wall = Clock::now();

  // Every query in the burst is issued now, and recorded as an intake
  // trace exactly like the DES pump's arrivals — on the query's own shard
  // lane, so the record stays single-writer under group threading.
  obs::TraceLane* lane = shard_trace_[shard];
  for (const Query& query : state.buffer) {
    ++group.result.queries_issued;
    if (lane != nullptr && lane->SamplesQuery(query.id)) {
      lane->RecordInstant(obs::SpanKind::kIntake, query.issue_time, query.id,
                          static_cast<double>(query.consumer.index()));
    }
  }
  if (serving_.record_trace) {
    ServingBurst burst;
    burst.shard = shard;
    burst.flush_time = now;
    burst.first = group.trace.queries.size();
    burst.count = state.buffer.size();
    group.trace.bursts.push_back(burst);
    group.trace.queries.insert(group.trace.queries.end(),
                               state.buffer.begin(), state.buffer.end());
  }

  cores_[shard]->AllocateBatch(group.sim, state.buffer, 0.0, &state.outcomes);
  AppendCallSiteRecords(
      state.buffer, state.outcomes,
      serving_.record_trace ? &group.trace.decisions : nullptr);

  for (std::size_t i = 0; i < state.buffer.size(); ++i) {
    const Query& query = state.buffer[i];
    if (state.outcomes[i] != MediationCore::Outcome::kAllocated) {
      ++group.result.queries_infeasible;
      if (lane != nullptr && lane->SamplesQuery(query.id)) {
        lane->RecordInstant(obs::SpanKind::kReject, now, query.id,
                            static_cast<double>(state.outcomes[i]));
      }
    }
    if (batch_wait_hists_[shard] != nullptr) {
      batch_wait_hists_[shard]->Record(now - query.issue_time);
    }
    // Per-(producer, group) wall latency + the closed-loop mediated ack.
    ServingProducer& producer = *producers_[state.meta[i].second];
    producer.group_wall_[group.index].Record(
        std::chrono::duration<double>(flush_wall - state.meta[i].first)
            .count());
    producer.mediated_.fetch_add(1, std::memory_order_release);
  }
  flush_counters_[shard]->Inc();
  batched_query_counters_[shard]->Inc(state.buffer.size());
  ++group.bursts_flushed;
  served_.fetch_add(state.buffer.size(), std::memory_order_release);

  state.buffer.clear();
  state.meta.clear();
  state.outcomes.clear();
  state.earliest_arrival = kSimTimeInfinity;
}

void ServingMediator::Housekeep(GroupState& group) {
  obs::FlightRecorder& recorder = engine_.recorder();
  for (std::uint32_t s = group.first_shard;
       s < group.first_shard + group.shard_count; ++s) {
    ShardState& state = *shards_[s];
    state.controller.OnBacklogSample(cores_[s]->MeanBacklogSeconds());
    recorder.registry(s)
        .GetGauge(std::string(obs::kMetricBatchWindowPrefix) +
                  std::to_string(s))
        .Set(WindowFor(state));
  }
}

ServingReport ServingMediator::Stop() {
  SQLB_CHECK(started_ && !stopped_, "Stop requires a started, unstopped run");
  stopped_ = true;
  // Close the intake, then wait out every in-flight Submit/SubmitMany: once
  // in_submit_ reaches zero, no producer holds a queue reference and every
  // later call sheds without touching the queues.
  accepting_.store(false, std::memory_order_seq_cst);
  while (in_submit_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  stop_.store(true, std::memory_order_release);
  for (auto& group : groups_) {
    std::lock_guard<std::mutex> lk(group->park_mu);
    group->park_cv.notify_all();
  }
  for (auto& group : groups_) {
    group->thread.join();
  }

  // Final pass on the calling thread (the group threads are gone), one
  // group at a time in group order: catch the clock up, drain whatever is
  // still queued — repeatedly, since one drain pass stops at max_burst per
  // shard — flush it all, and complete in-flight provider service.
  const Clock::time_point end_wall = Clock::now();
  wall_seconds_ = std::chrono::duration<double>(end_wall - t0_).count();
  const SimTime end_sim = SimNowFromWall(end_wall);
  for (auto& group : groups_) {
    group->sim.RunUntil(end_sim);
    while (DrainIntake(*group, end_sim) > 0 ||
           FlushDue(*group, end_sim, /*force=*/true) > 0) {
    }
    group->sim.RunAll();
  }

  ServingReport report;
  report.served = served_.load(std::memory_order_acquire);
  for (const auto& producer : producers_) {
    report.submitted += producer->submitted();
    report.shed += producer->shed();
    // Fold the per-group latency parts in group order; associative, so the
    // merged histogram is independent of how groups interleaved in time.
    for (const obs::Histogram& part : producer->group_wall_) {
      producer->intake_wall_.Merge(part);
    }
    report.intake_wall.Merge(producer->intake_wall_);
  }
  for (const auto& group : groups_) {
    report.bursts += group->bursts_flushed;
    report.idle_parks += group->idle_parks;
    report.spurious_wakes += group->spurious_wakes;
  }
  report.wall_seconds = wall_seconds_;

  // Merge the per-group trace segments in group order, recording the span
  // boundaries so the replayer can re-drive each group independently.
  for (const auto& group : groups_) {
    ServingGroupSpan span;
    span.first_shard = group->first_shard;
    span.shard_count = group->shard_count;
    span.query_begin = trace_.queries.size();
    span.burst_begin = trace_.bursts.size();
    span.decision_begin = trace_.decisions.size();
    const std::size_t query_base = trace_.queries.size();
    trace_.queries.insert(trace_.queries.end(), group->trace.queries.begin(),
                          group->trace.queries.end());
    for (ServingBurst burst : group->trace.bursts) {
      burst.first += query_base;
      trace_.bursts.push_back(burst);
    }
    trace_.decisions.AppendAll(group->trace.decisions);
    span.query_end = trace_.queries.size();
    span.burst_end = trace_.bursts.size();
    span.decision_end = trace_.decisions.size();
    trace_.groups.push_back(span);
  }

  // Finalization mirrors ScenarioEngine::Run: remaining counts, sealed
  // spans, registries folded in fixed lane order. The per-producer
  // histograms, the idle-parking tallies and the group threads' CPU time
  // fold into the coordinator registry first so the merged snapshot
  // carries them under canonical names.
  obs::FlightRecorder& recorder = engine_.recorder();
  obs::MetricsRegistry& coord = recorder.registry(recorder.coordinator_lane());
  coord.GetHistogram(obs::kMetricServingIntakeWall).Merge(report.intake_wall);
  coord.GetCounter(obs::kMetricServingIdleParks).Inc(report.idle_parks);
  coord.GetCounter(obs::kMetricServingSpuriousWakes)
      .Inc(report.spurious_wakes);
  obs::Counter& mediator_cpu = coord.GetCounter(obs::kMetricServingMediatorCpu);
  for (const auto& group : groups_) {
    mediator_cpu.Inc(group->cpu_ns);
  }
  std::size_t active = 0;
  for (const auto& core : cores_) {
    active += core->active_provider_count();
  }
  RunResult& result = engine_.result();
  // Fold the group-local completion sinks, in group order (the counter
  // adds and Welford merges are associative).
  for (const auto& group : groups_) {
    result.queries_issued += group->result.queries_issued;
    result.queries_completed += group->result.queries_completed;
    result.queries_infeasible += group->result.queries_infeasible;
    result.queries_reissued += group->result.queries_reissued;
    result.response_time.Merge(group->result.response_time);
    result.response_time_all.Merge(group->result.response_time_all);
  }
  result.duration = end_sim;
  result.remaining_providers = active;
  result.remaining_consumers = engine_.active_consumers().size();
  result.trace_spans = recorder.FinishSpans();
  result.trace_spans_dropped = recorder.DroppedSpans();
  result.metrics = recorder.MergedMetrics();
  report.run = std::move(result);
  return report;
}

ServingReplayResult ReplayServingTrace(
    const SystemConfig& config, std::size_t shards,
    const ServingMediator::MethodFactory& factory, const ServingTrace& trace) {
  SQLB_CHECK(shards >= 1, "replay needs at least one shard");
  ServingReplayResult replay;

  // Re-drive one group segment at a time. Groups never share providers or
  // consumers (both are shard-affine and shards partition into groups), so
  // each segment replays against a fresh engine exactly as its group
  // evolved in the serving run: same initial agent state, same burst
  // sequence, same DES completion order.
  std::vector<ServingGroupSpan> spans = trace.groups;
  if (spans.empty()) {
    // Hand-built trace with no segmentation: treat it as one group over
    // every shard (the single-thread tier's shape).
    ServingGroupSpan span;
    span.first_shard = 0;
    span.shard_count = static_cast<std::uint32_t>(shards);
    span.query_end = trace.queries.size();
    span.burst_end = trace.bursts.size();
    span.decision_end = trace.decisions.size();
    spans.push_back(span);
  }

  bool first_span = true;
  SimTime duration = 0.0;
  std::size_t remaining_providers = 0;
  for (const ServingGroupSpan& span : spans) {
    SQLB_CHECK(span.first_shard + span.shard_count <= shards,
               "group span exceeds the shard count");
    ScenarioEngine engine(config);
    engine.ConfigureObservability(shards);
    std::vector<std::vector<std::uint32_t>> members =
        PartitionProviders(engine, shards);
    obs::FlightRecorder& recorder = engine.recorder();
    std::vector<std::unique_ptr<AllocationMethod>> methods;
    std::vector<std::unique_ptr<MediationCore>> cores(shards);
    for (std::uint32_t s = span.first_shard;
         s < span.first_shard + span.shard_count; ++s) {
      methods.push_back(factory(s));
      SQLB_CHECK(methods.back() != nullptr, "method factory returned null");
      MediationCore::Shared shared = engine.CoreSharedState();
      shared.trace = recorder.trace_lane(s);
      shared.metrics = recorder.hot_metrics(s);
      shared.decisions = &replay.decisions;
      cores[s] = std::make_unique<MediationCore>(
          shared, methods.back().get(), std::move(members[s]));
    }
    engine.SetMethodName(methods[0]->name());

    std::vector<Query> burst;
    std::vector<MediationCore::Outcome> outcomes;
    SimTime last_flush = 0.0;
    for (std::size_t b = span.burst_begin; b < span.burst_end; ++b) {
      const ServingBurst& recorded = trace.bursts[b];
      SQLB_CHECK(recorded.first + recorded.count <= trace.queries.size(),
                 "burst range out of trace bounds");
      SQLB_CHECK(cores[recorded.shard] != nullptr,
                 "burst shard outside its group span");
      // Advance the DES to the recorded flush time: the completions that
      // fired before this burst in the serving run fire here too, in the
      // same (time, id) order, so provider state matches exactly.
      engine.sim().RunUntil(recorded.flush_time);
      last_flush = recorded.flush_time;
      burst.assign(trace.queries.begin() + recorded.first,
                   trace.queries.begin() + recorded.first + recorded.count);
      obs::TraceLane* lane = recorder.trace_lane(recorded.shard);
      for (const Query& query : burst) {
        ++engine.result().queries_issued;
        if (lane != nullptr && lane->SamplesQuery(query.id)) {
          lane->RecordInstant(obs::SpanKind::kIntake, query.issue_time,
                              query.id,
                              static_cast<double>(query.consumer.index()));
        }
      }
      cores[recorded.shard]->AllocateBatch(engine.sim(), burst, 0.0,
                                           &outcomes);
      AppendCallSiteRecords(burst, outcomes, &replay.decisions);
      for (std::size_t i = 0; i < burst.size(); ++i) {
        if (outcomes[i] != MediationCore::Outcome::kAllocated) {
          ++engine.result().queries_infeasible;
          if (lane != nullptr && lane->SamplesQuery(burst[i].id)) {
            lane->RecordInstant(obs::SpanKind::kReject, recorded.flush_time,
                                burst[i].id,
                                static_cast<double>(outcomes[i]));
          }
        }
      }
    }
    engine.sim().RunAll();

    for (const auto& core : cores) {
      if (core != nullptr) remaining_providers += core->active_provider_count();
    }
    duration = std::max(duration, last_flush);
    RunResult& result = engine.result();
    result.remaining_consumers = engine.active_consumers().size();
    result.trace_spans = recorder.FinishSpans();
    result.trace_spans_dropped = recorder.DroppedSpans();
    result.metrics = recorder.MergedMetrics();
    if (first_span) {
      replay.run = std::move(result);
      first_span = false;
    } else {
      // Group-order fold, mirroring the serve side's Stop().
      replay.run.queries_issued += result.queries_issued;
      replay.run.queries_completed += result.queries_completed;
      replay.run.queries_infeasible += result.queries_infeasible;
      replay.run.queries_reissued += result.queries_reissued;
      replay.run.response_time.Merge(result.response_time);
      replay.run.response_time_all.Merge(result.response_time_all);
      replay.run.metrics.MergeFrom(result.metrics);
      replay.run.trace_spans.insert(
          replay.run.trace_spans.end(),
          std::make_move_iterator(result.trace_spans.begin()),
          std::make_move_iterator(result.trace_spans.end()));
      replay.run.trace_spans_dropped += result.trace_spans_dropped;
    }
  }
  replay.run.duration = duration;
  replay.run.remaining_providers = remaining_providers;
  return replay;
}

}  // namespace sqlb::runtime
