#ifndef SQLB_RUNTIME_SERVING_MEDIATOR_H_
#define SQLB_RUNTIME_SERVING_MEDIATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/allocation.h"
#include "des/mpsc_queue.h"
#include "mem/page_pool.h"
#include "obs/metrics.h"
#include "runtime/batch_window.h"
#include "runtime/mediation_core.h"
#include "runtime/scenario_engine.h"

/// \file
/// The wall-clock serving tier: the same Algorithm-1 pipeline the DES
/// drivers run, fed by real threads instead of the simulated Poisson pump.
///
/// Producer threads submit (consumer, query class) requests into per-shard
/// lock-free MPSC intake queues (des/mpsc_queue.h). Downstream, the shard
/// set is partitioned into ServingConfig::mediator_threads disjoint
/// contiguous *groups*, and each group is owned by one dedicated mediator
/// thread. Routing is consumer-affine (consumer c -> shard c % shards,
/// provider p -> shard p % shards), so a query's shard — and every provider
/// that could serve it — belongs to exactly one group: the mediation path
/// is lock-free across groups by construction, not by synchronization.
///
/// Each group owns the full per-PR9 machinery privately: its own DES event
/// loop (a des::Simulator carrying that group's provider service and
/// completion events), a wall-tracked sim clock (sim_now = wall_elapsed *
/// time_scale, one shared epoch t0 so all groups agree on "now"), the
/// per-shard batch windows (runtime/batch_window.h), group-local RunResult
/// and response-window sinks (MediationCore completion accounting writes
/// them directly, so they must be group-private), and a per-group
/// ServingTrace segment. Stop() folds everything associatively in group
/// order — reports, histograms, counters, traces — so the merged result is
/// deterministic given each group's stream, and mediator_threads = 1
/// reproduces PR 9's single-thread tier bit-for-bit (same query ids, same
/// decision log, same counters).
///
/// Idle behavior: a group thread that finds no work keeps *polling* — it
/// runs its normal pass (DES catch-up, intake drain, due flushes) with a
/// sched yield between passes — until kIdlePollWindow of wall time has
/// passed since its last pass that drained or flushed anything ended, and
/// only then *parks* on a per-group condition variable. Start() polls only
/// when every mediator group and registered producer can hold a CPU the
/// process may run on; otherwise the window is 0 and a group parks on its
/// first empty pass, leaving the CPUs to the threads that have work. Producers
/// wake a parked group on submit (Dekker-style seq_cst fences pair the
/// producer's publish -> parked-flag load with the mediator's parked-flag
/// store -> queue check, so no submit is lost); DES completions and
/// housekeeping are honored by parking only until the earliest of the next
/// housekeeping tick, the group simulator's next event, and the earliest
/// pending batch-window expiry. Parks, empty-handed wakeups and the group
/// threads' CPU time are counted (serving.idle_parks,
/// serving.spurious_wakes and serving.mediator_cpu_ns in the metrics
/// registry).
///
/// Latency is measured in wall time, per (producer, group): group g records
/// each mediated query's enqueue->mediation wall latency into its
/// producer's group-g histogram (single writer), and Stop() folds the
/// per-group histograms associatively in group order (p50/p99/p999 merge
/// exactly).
///
/// Determinism stays a replay-testing tool: every served query, burst and
/// decision is recorded per group, the merged trace carries the group
/// segmentation (ServingTrace::groups), and ReplayServingTrace re-drives
/// each group's segment through its own DES oracle — the replay must
/// reproduce the decision log bit-for-bit per group, hence merged
/// (tests/runtime/serving_replay_test.cc pins this, plus the conservation
/// identity completed + infeasible == issued on both sides).

namespace sqlb::runtime {

/// Serving-mode knobs, on top of the scenario's SystemConfig.
struct ServingConfig {
  /// Logical mediator shards: provider p belongs to shard p % shards,
  /// consumer c routes to shard c % shards (consumer-affine, like the
  /// sharded tier's strict-parity routing).
  std::size_t shards = 1;
  /// Dedicated mediator threads. The shard set is split into this many
  /// disjoint contiguous groups (group g owns shards [g*K, (g+1)*K),
  /// K = shards / mediator_threads — must divide evenly), each owned by
  /// one thread with its own DES loop and trace segment. 1 reproduces the
  /// single-thread tier exactly.
  std::size_t mediator_threads = 1;
  /// Simulated seconds per wall-clock second. The service-time model is
  /// simulated (units / capacity, in sim seconds), so time_scale sets how
  /// fast provider capacity flows relative to real intake: >1 serves a
  /// wall-clock request rate higher than the simulated capacity would
  /// suggest.
  double time_scale = 1.0;
  /// Static coalescing window in sim seconds (0 = flush every loop pass).
  /// Ignored when adaptive_batch.enabled.
  double batch_window = 0.0;
  /// Per-shard adaptive window sizing, exactly as in the sharded DES tier.
  AdaptiveBatchConfig adaptive_batch;
  /// Flush a shard's buffer at this many queries even mid-window, and stop
  /// draining its intake queue past it until the flush (backpressure
  /// toward the bounded queue rather than an unbounded buffer).
  std::size_t max_burst = 64;
  /// Wall seconds between housekeeping ticks (the serving stand-in for the
  /// DES epoch barrier): backlog samples into the adaptive controllers and
  /// per-shard window gauges. Also the park-deadline ceiling — a parked
  /// group wakes at least this often.
  double housekeeping_interval = 0.01;
  /// Bound on queued-but-undrained submissions per shard, enforced exactly
  /// (a per-shard reservation counter, not the queue's chunk-rounded node
  /// budget); Submit returns false (shed) beyond it.
  std::size_t max_queued_per_shard = 65536;
  /// Record the replay trace (queries, bursts, decisions). Off for
  /// pure-throughput benchmarking.
  bool record_trace = true;
};

/// One coalesced burst of a recorded serving run: `count` queries starting
/// at `first` in ServingTrace::queries, mediated on `shard` at sim time
/// `flush_time`.
struct ServingBurst {
  std::uint32_t shard = 0;
  SimTime flush_time = 0.0;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// One mediator group's segment of the merged trace: which contiguous
/// shard range it owned and which [begin, end) slices of the merged
/// queries/bursts/decisions streams it produced. Burst flush times are
/// monotone *within* a span (each group had its own wall-tracked clock),
/// not across spans — the replayer re-drives each span through its own DES.
struct ServingGroupSpan {
  std::uint32_t first_shard = 0;
  std::uint32_t shard_count = 0;
  std::size_t query_begin = 0;
  std::size_t query_end = 0;
  std::size_t burst_begin = 0;
  std::size_t burst_end = 0;
  std::size_t decision_begin = 0;
  std::size_t decision_end = 0;
};

/// Everything a replay needs: the served queries verbatim (ids, issue
/// times, units — wall arrival order is baked into them), the burst
/// structure, the decision log the replay must reproduce, and the group
/// segmentation (one span per mediator group, in group order).
struct ServingTrace {
  std::vector<Query> queries;
  std::vector<ServingBurst> bursts;
  DecisionLog decisions;
  std::vector<ServingGroupSpan> groups;
};

/// What a serving run produced: the familiar RunResult (counters, metrics,
/// spans) plus the wall-clock intake accounting.
struct ServingReport {
  RunResult run;
  /// Successful producer submissions (== served once drained).
  std::uint64_t submitted = 0;
  /// Submissions refused by backpressure or by a closed intake (Stop in
  /// progress) — they never entered the system. Every request presented to
  /// Submit/SubmitMany is counted exactly once: submitted + shed == total
  /// presented.
  std::uint64_t shed = 0;
  /// Queries mediated (mirror of run.queries_issued).
  std::uint64_t served = 0;
  /// Bursts flushed across all shards and groups.
  std::uint64_t bursts = 0;
  /// Times a mediator group parked idle / woke to find no work after all.
  std::uint64_t idle_parks = 0;
  std::uint64_t spurious_wakes = 0;
  /// Start() -> Stop() wall duration in seconds.
  double wall_seconds = 0.0;
  /// Enqueue -> mediation wall latency, merged over every producer's
  /// per-group histograms in group order (p50/p99/p999 via Quantile).
  obs::Histogram intake_wall;
};

/// One producer thread's registration. Submission runs through
/// ServingMediator::Submit/SubmitMany; this handle carries the counters a
/// closed-loop generator waits on and the per-thread wall-latency
/// histograms.
class ServingProducer {
 public:
  /// Successful submissions from this producer.
  std::uint64_t submitted() const {
    return submitted_.load(std::memory_order_acquire);
  }
  /// Submissions refused by backpressure (or a closed intake).
  std::uint64_t shed() const { return shed_.load(std::memory_order_acquire); }
  /// How many of this producer's submissions have been mediated.
  std::uint64_t mediated() const {
    return mediated_.load(std::memory_order_acquire);
  }
  /// Closed-loop wait: spins (yielding) until mediated() >= n.
  void AwaitMediated(std::uint64_t n) const;
  /// This producer's enqueue->mediation wall-latency histogram, folded
  /// over its per-group histograms. Stable only after
  /// ServingMediator::Stop() (the group threads write the parts).
  const obs::Histogram& intake_wall() const { return intake_wall_; }

 private:
  friend class ServingMediator;
  std::uint32_t index_ = 0;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> mediated_{0};
  /// One histogram per mediator group (sized at registration): group g's
  /// thread is the only writer of group_wall_[g]. Stop() folds them into
  /// intake_wall_ in group order.
  std::vector<obs::Histogram> group_wall_;
  obs::Histogram intake_wall_;
};

/// One query request, as presented to SubmitMany.
struct ServingRequest {
  std::uint32_t consumer = 0;
  std::uint32_t class_index = 0;
};

/// The serving-mode mediator. Lifecycle: construct -> RegisterProducer()
/// for each producer thread -> Start() -> producers Submit()/SubmitMany()
/// -> Drain() (optional) -> Stop() -> read the report and trace().
///
/// The scenario SystemConfig must describe a captive, fault-free
/// population: no departures, no churn, no shard faults (serving has no
/// scripted clock to fire them on). sqlb::Config::Validate() reports these
/// as errors; the constructor enforces them, along with mediator_threads
/// dividing the shard count.
class ServingMediator {
 public:
  /// Fresh method instance per shard, as in the sharded tier.
  using MethodFactory =
      std::function<std::unique_ptr<AllocationMethod>(std::uint32_t shard)>;

  ServingMediator(const SystemConfig& config, const ServingConfig& serving,
                  MethodFactory factory);
  ServingMediator(const ServingMediator&) = delete;
  ServingMediator& operator=(const ServingMediator&) = delete;
  ~ServingMediator();

  /// Registers one producer thread. Call before Start(); the handle stays
  /// owned by the mediator and valid for its lifetime.
  ServingProducer* RegisterProducer();

  /// Launches the mediator group threads and starts the wall clock.
  void Start();

  /// Submits one query request from `producer`'s thread: consumer c issues
  /// one query of workload class `class_index` (units drawn from the
  /// population's class table, q.n from the config — exactly how the DES
  /// arrival pump builds queries). Wait-free; false = shed (queue
  /// backpressure, or the intake already closed for Stop — either way the
  /// request never entered the system).
  bool Submit(ServingProducer* producer, std::uint32_t consumer_index,
              std::uint32_t class_index);

  /// Batched submission: presents `requests[0..count)` in order, amortizing
  /// the MPSC enqueue (consecutive same-shard requests share one node-chain
  /// reservation, one tail exchange and one clock read). Returns the number
  /// accepted — always a prefix; the remainder was shed (counted in the
  /// producer's shed tally) because its shard's queue hit
  /// max_queued_per_shard or the intake closed. A retrying caller should
  /// present only the unaccepted suffix again.
  std::size_t SubmitMany(ServingProducer* producer,
                         const ServingRequest* requests, std::size_t count);

  /// Blocks until every successful submission so far has been mediated.
  /// Call only after the producers stopped submitting.
  void Drain();

  /// Stops the mediator groups: closes the intake (concurrent Submit calls
  /// shed from here on; in-flight ones are waited out), joins every group
  /// thread, flushes any remaining intake, drains in-flight provider
  /// service through each group's DES, and finalizes the report — group
  /// results, histograms, counters and trace segments folded associatively
  /// in group order. Call once.
  ServingReport Stop();

  /// The recorded replay trace (merged across groups, with
  /// ServingTrace::groups carrying the segmentation). Stable after Stop().
  const ServingTrace& trace() const { return trace_; }

  std::size_t shards() const { return shards_.size(); }
  std::size_t mediator_threads() const { return groups_.size(); }
  const ScenarioEngine& engine() const { return engine_; }

  /// Wall time an idle group keeps polling, after its last pass that did
  /// work ended, before it parks. Picked from a 200 us / 500 us / 1 ms
  /// sweep on perfbench serve-steady (10k q/s per group, exponential gaps
  /// of 100 us mean; 4-vCPU host): 200 us still parks on 0.16 requests in 1
  /// (decision p50 1.9-4.4 us), 500 us on 0.01 (p50 1.5-1.9 us, against
  /// 16-32 us with a park per gap). 1 ms gives the same p50 there, but at
  /// 2k q/s a group then burns 0.63 of a CPU instead of 0.39 while it waits.
  static constexpr std::chrono::microseconds kIdlePollWindow{500};
  /// The poll window Start() chose: kIdlePollWindow when the mediator
  /// groups plus the registered producers fit in the CPUs the process may
  /// run on (des::UsableCpuCount()), zero (park on the first empty pass)
  /// when they do not. Zero before Start().
  std::chrono::nanoseconds idle_poll_window() const { return poll_window_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Largest same-shard run SubmitMany pushes in one reservation (the
  /// stack-buffer size of the batched enqueue).
  static constexpr std::size_t kSubmitRunCap = 64;

  /// One queued submission, as pushed by a producer thread.
  struct Intake {
    std::uint32_t consumer = 0;
    std::uint32_t class_index = 0;
    std::uint32_t producer = 0;
    Clock::time_point enqueue_wall;
  };

  struct ShardState {
    std::unique_ptr<des::MpscQueue<Intake>> queue;
    /// Accepted-but-undrained submissions; reserves against
    /// max_queued_per_shard exactly, even under concurrent producers.
    std::atomic<std::int64_t> queued{0};
    BatchWindowController controller;
    std::vector<Query> buffer;
    /// Parallel to buffer: (enqueue wall time, producer index) per query.
    std::vector<std::pair<Clock::time_point, std::uint32_t>> meta;
    /// Sim arrival time of the oldest buffered query (+inf when empty).
    SimTime earliest_arrival = kSimTimeInfinity;
    /// Monotone clamp for the controller's OnArrival.
    SimTime last_arrival = 0.0;
    std::vector<MediationCore::Outcome> outcomes;

    explicit ShardState(const AdaptiveBatchConfig& config)
        : controller(config) {}
  };

  /// One mediator group: a contiguous shard range, its own DES, its own
  /// sinks and trace segment, and its own thread + park state.
  struct GroupState {
    std::uint32_t index = 0;
    std::uint32_t first_shard = 0;
    std::uint32_t shard_count = 0;
    /// This group's event loop: completion events for its shards' providers
    /// are scheduled here and fired as the wall clock passes them.
    des::Simulator sim;
    /// Group-local completion sinks (MediationCore writes them directly);
    /// folded into the engine result at Stop.
    RunResult result;
    WindowedMean response_window{500};
    /// Group-local trace segment; concatenated in group order at Stop.
    ServingTrace trace;
    /// Per-group id counter: query id = local * num_groups + group index —
    /// globally unique, deterministic per group, and the plain sequence
    /// 0,1,2,... when there is one group.
    QueryId next_local_id = 0;
    std::uint64_t bursts_flushed = 0;
    std::uint64_t idle_parks = 0;
    std::uint64_t spurious_wakes = 0;
    /// The group thread's CPU time, read by the thread as its loop exits.
    std::uint64_t cpu_ns = 0;
    /// Park/wake state: parked is the producer-visible flag (seq_cst-fence
    /// paired with the queue publish, see MediatorLoop/WakeIfParked).
    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<std::uint32_t> parked{0};
    std::thread thread;
  };

  void MediatorLoop(GroupState& group);
  SimTime SimNowFromWall(Clock::time_point t) const;
  /// Pops the group's queues into their shard buffers (bounded by max_burst
  /// per shard). Returns the number of submissions drained.
  std::size_t DrainIntake(GroupState& group, SimTime now);
  /// Flushes the group's shards whose window elapsed (or buffer filled);
  /// `force` flushes everything non-empty. Returns bursts flushed.
  std::size_t FlushDue(GroupState& group, SimTime now, bool force);
  void FlushShard(GroupState& group, std::uint32_t shard, SimTime now);
  double WindowFor(const ShardState& state) const;
  /// Wall-cadence stand-in for the DES epoch barrier, per group.
  void Housekeep(GroupState& group);
  /// Poll window exhausted: park until a submit, a deadline, or stop.
  void Park(GroupState& group, Clock::time_point next_housekeeping);
  bool GroupQueuesEmpty(const GroupState& group) const;
  void WakeIfParked(GroupState& group);
  GroupState& GroupOfShard(std::uint32_t shard) {
    return *groups_[shard / shards_per_group_];
  }
  /// Aborts on a consumer or query class outside the population.
  void CheckRequest(std::uint32_t consumer_index,
                    std::uint32_t class_index) const;
  /// One same-shard run of a SubmitMany batch: reserve, push, account.
  /// Returns how many of `count` were accepted.
  std::size_t SubmitRun(ServingProducer* producer, std::uint32_t shard,
                        const ServingRequest* requests, std::size_t count);

  SystemConfig config_;
  ServingConfig serving_;
  ScenarioEngine engine_;
  std::vector<std::unique_ptr<AllocationMethod>> methods_;
  std::vector<std::unique_ptr<MediationCore>> cores_;

  /// Node storage behind every intake queue (chunked MPSC nodes).
  mem::PagePool pages_;
  mem::SlabPool slab_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<std::unique_ptr<GroupState>> groups_;
  std::size_t shards_per_group_ = 1;
  std::vector<std::unique_ptr<ServingProducer>> producers_;

  /// The merged trace (built at Stop from the group segments).
  ServingTrace trace_;

  std::atomic<bool> stop_{false};
  /// Intake gate for Stop(): set false first, then in_submit_ is spun to
  /// zero, so no producer can be mid-push when the groups shut down.
  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> in_submit_{0};
  /// Queries mediated so far (Drain's progress signal).
  std::atomic<std::uint64_t> served_{0};
  Clock::time_point t0_;
  std::chrono::nanoseconds poll_window_{0};
  bool started_ = false;
  bool stopped_ = false;

  double wall_seconds_ = 0.0;

  // Hoisted observability handles (single-writer: the owning group's
  // thread, per shard).
  std::vector<obs::Counter*> flush_counters_;
  std::vector<obs::Counter*> batched_query_counters_;
  std::vector<obs::Histogram*> batch_wait_hists_;
  std::vector<obs::TraceLane*> shard_trace_;
};

/// What a DES replay of a recorded serving run produced: its own decision
/// log (compare with ServingTrace::decisions via DecisionLog::IdenticalTo)
/// and the full RunResult for the conservation pins (group results folded
/// in group order, mirroring the serve side).
struct ServingReplayResult {
  RunResult run;
  DecisionLog decisions;
};

/// Replays `trace` through the DES, one group segment at a time: for each
/// ServingGroupSpan it reconstructs the population and that group's
/// per-shard cores exactly as ServingMediator did (same SystemConfig seed,
/// same shard count, same method factory), then re-drives the span's
/// recorded bursts at their recorded sim flush times through AllocateBatch
/// on a fresh simulator. Decisions append in span order, so the merged
/// replay log equals the recorded one iff every group's segment matches
/// bit-for-bit. A trace with no spans (hand-built) is treated as one
/// single-group span over all shards.
ServingReplayResult ReplayServingTrace(const SystemConfig& config,
                                       std::size_t shards,
                                       const ServingMediator::MethodFactory& factory,
                                       const ServingTrace& trace);

}  // namespace sqlb::runtime

#endif  // SQLB_RUNTIME_SERVING_MEDIATOR_H_
