// Scaling the mediation tier, two ways:
//
//  1. Algorithmic (PR 1): 1 vs 2 vs 4 vs 8 shards on the single-threaded
//     kernel. Each shard mediates over ~N/M candidates, so the per-query
//     Algorithm-1 cost shrinks with M and allocation throughput rises.
//  2. Wall-clock (PR 2): the same 8-shard tier under epoch-stepped
//     parallel execution (per-shard lanes on a worker pool, deterministic
//     sink merge at gossip/probe barriers) with batched Algorithm-1 intake
//     (one matchmaking pass + one provider characterization snapshot + one
//     scoring pass per arrival burst).
//  3. Least-loaded routing — which strict parallel mode rejects, since it
//     spreads one consumer across lanes — runs serial only: unbatched,
//     statically batched, and with adaptive per-shard windows (the
//     adaptive gates compare against the static 8-ll-batch row).
//  4. Churn (PR 4): the same 8-shard strict tier under a provider
//     join/leave schedule that guts one shard mid-run, with runtime ring
//     re-partitioning on — the churn arm must stay bit-identical between
//     serial and parallel execution and must not regress allocation
//     throughput vs the no-churn arm by more than the CI gate (20%).
//  5. Chaos (PR 5): random mid-run shard kills with crash-consistent
//     snapshots, survivor adoption of the dead shard's providers, and
//     re-issue of the queries the crash lost. The zero-lost-completions
//     invariant — completed + infeasible + reissued == issued, exactly —
//     is pinned here under the kill schedule, the serial and 4-thread
//     chaos rows must stay bit-identical, and throughput vs the calm
//     8-serial arm is the CI gate (>= 0.70).
//  6. Million-agent scale (this PR): pooled SoA agent state
//     (runtime/agent_store.h + mem/) against the eager heap layout,
//     hierarchical gossip (shard/gossip_topology.h) against the direct
//     baseline at M = 64, and a 1M-provider 64-shard pooled arm. Pins:
//     the pooled twin of 8-serial is bit-identical; the topology-aware
//     parallel twin is bit-identical; per-provider resident bytes drop
//     >= 4x under the pool (and >= 4x again at 1M, where almost every
//     provider is idle and the lazy chunks never materialize); the
//     hierarchical 64-shard arm's wire cost stays under the
//     rounds x M ceil(log2 M) budget the closed form promises.
//
// What to look for:
//   - The 1-shard least-loaded row reproduces the mono row (sqlb::Service's
//     Mode::kMono, one hash-routed shard) exactly, and the
//     parallel rows reproduce the serial locality-routed baseline's
//     workload exactly across every thread count (determinism pin).
//   - Allocation throughput grows with M (>= 2x at M = 8 vs mono), and the
//     parallel+batched rows beat the serial 8-shard baseline in wall clock;
//     the speedup scales with the host's core count (the 3x target needs
//     >= 4 real cores — on fewer cores the batching amortization is the
//     remaining win; CI gates a conservative 1.5x at 4 threads).
//   - Batched rows trade a bounded response-time increase (the coalescing
//     delay) for intake throughput.
//   - The churn arms rebalance the ring (epoch > 0), complete handoffs, and
//     keep the full workload accounted.
//
// Under SQLB_FAST=1 some redundant arms are skipped; the skipped list is
// printed so a smoke log cannot be mistaken for full coverage.
//
// Results land in scale_sharding.csv and BENCH_scale_sharding.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sqlb_method.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/scenario_engine.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"
#include "workload/population.h"

namespace sqlb {
namespace {

using Clock = std::chrono::steady_clock;

struct ScalePoint {
  std::string label;
  std::size_t shards = 0;
  std::size_t threads = 0;       // 0 = serial execution
  double batch_window = 0.0;     // 0 = unbatched intake
  double wall_seconds = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  double mean_rt = 0.0;
  // Response-time tail from the run's merged latency histogram (zero when
  // the metrics registry is disabled for the arm).
  double rt_p50 = 0.0;
  double rt_p99 = 0.0;
  double rt_p999 = 0.0;
  double cons_sat = 0.0;
  double route_imbalance = 1.0;
  std::uint64_t reroutes = 0;
  std::uint64_t gossip = 0;
  // Batched-intake arms only: realized mean burst length.
  std::uint64_t batch_flushes = 0;
  std::uint64_t batched_queries = 0;
  // Churn arms only.
  std::uint64_t joins = 0;
  std::uint64_t ring_epoch = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t rebalances_damped = 0;
  std::uint64_t handoffs = 0;
  // Chaos (fault-injection) arms only.
  std::uint64_t infeasible = 0;
  std::uint64_t reissued = 0;
  std::uint64_t crashes = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t restored = 0;
  std::uint64_t orphaned = 0;
  std::uint64_t dropped_completions = 0;
  // Scale arms: agent-state residency and gossip wire cost.
  std::size_t providers = 0;
  double bytes_per_provider = 0.0;  // SoA columns + resident chunks, / N
  double arena_mb = 0.0;            // pooled arms: arena pages reserved
  std::uint64_t gossip_msgs = 0;    // load-report sends + relay forwards
  std::uint64_t relay_forwards = 0;
  double peak_rss_mb = 0.0;         // process VmHWM (monotonic across arms)
};

/// Peak resident set (VmHWM) of this process in MiB. Monotonic: each row
/// records the high-water mark as of the end of its run, so only the last
/// (largest) arm's reading is a per-arm statement — which is why the
/// 1M-provider arm runs last.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

runtime::SystemConfig BaseConfig() {
  runtime::SystemConfig config = experiments::PaperConfig(/*seed=*/42);
  // Saturating steady load. Series stay on for the satisfaction parity
  // column; the probe cost is identical for every row, so the speedup
  // comparison is unaffected.
  config.workload = runtime::WorkloadSpec::Constant(0.95);
  config.duration = 3000.0;
  config.stats_warmup = 500.0;
  if (FastBenchMode()) {
    config.population.num_consumers /= 4;
    config.population.num_providers /= 4;
    config.duration = 800.0;
    config.stats_warmup = 200.0;
  }
  return config;
}

/// Nominal arrival rate of `config` (queries/second), for sizing the batch
/// window to a target mean burst length. Builds a throwaway Population —
/// the rate depends on the generated capacities, not on any run state.
double NominalArrivalRate(const runtime::SystemConfig& config) {
  const Population population(config.population, config.seed);
  return runtime::NominalMaxArrivalRate(config, population);
}

ScalePoint RunMono(const runtime::SystemConfig& config) {
  Config mono;
  mono.mode = Mode::kMono;
  mono.scenario() = config;
  // The eager layout, like every arm that does not ask for the pool: the
  // mono row is the baseline the eager sharded rows are compared against.
  mono.scenario().agent_pool.enabled = false;
  const std::unique_ptr<Service> service = Service::Create(
      mono, [](std::uint32_t) { return std::make_unique<SqlbMethod>(); });
  // The timed region includes Mode::kMono's driver construction (Run()
  // builds it): under a millisecond at this population, next to a run of
  // seconds.
  const auto start = Clock::now();
  const shard::ShardedRunResult sharded = service->Run();
  const auto end = Clock::now();
  const runtime::RunResult& result = sharded.run;

  ScalePoint point;
  point.label = "mono";
  point.shards = 1;
  point.wall_seconds = std::chrono::duration<double>(end - start).count();
  point.issued = result.queries_issued;
  point.completed = result.queries_completed;
  point.infeasible = result.queries_infeasible;
  point.reissued = result.queries_reissued;
  point.mean_rt = result.response_time.mean();
  point.rt_p50 = result.ResponseTimeQuantile(0.5);
  point.rt_p99 = result.ResponseTimeQuantile(0.99);
  point.rt_p999 = result.ResponseTimeQuantile(0.999);
  point.cons_sat =
      result.series
          .Find(runtime::ScenarioEngine::kSeriesConsAllocSatMean)
          ->samples.back()
          .second;
  point.gossip = sharded.gossip_delivered;
  point.providers = config.population.num_providers;
  point.bytes_per_provider = static_cast<double>(sharded.agent_state_bytes) /
                             static_cast<double>(point.providers);
  point.peak_rss_mb = PeakRssMb();
  return point;
}

struct ShardedOptions {
  std::string label;
  std::size_t shards = 8;
  shard::RoutingPolicy policy = shard::RoutingPolicy::kLeastLoaded;
  bool rerouting = true;
  std::size_t worker_threads = 0;
  double batch_window = 0.0;
  /// Churn arms: a provider join/leave schedule plus ring re-partitioning.
  const runtime::ChurnSchedule* churn = nullptr;
  bool rebalance = false;
  /// Chaos arms: scheduled shard kills (crash, failover, recovery).
  const runtime::FaultSchedule* faults = nullptr;
  /// Adaptive arm: per-shard window controller bounded by
  /// [0, adaptive_max_window] (runtime/batch_window.h).
  bool adaptive = false;
  double adaptive_max_window = 2.0;
  /// Observability arms: metrics registry (histograms) and span tracing.
  bool obs_metrics = true;
  bool obs_trace = false;
  /// Scale arms: gossip dissemination topology (shard/gossip_topology.h),
  /// pooled SoA agent state (runtime/agent_store.h + mem/), and
  /// topology-aware worker placement with the static lane->thread schedule
  /// (des/hw_topo.h).
  shard::GossipTopologyKind gossip_topology =
      shard::GossipTopologyKind::kDirect;
  bool agent_pool = false;
  bool topology_aware = false;
};

ScalePoint RunSharded(const runtime::SystemConfig& base,
                      const ShardedOptions& options,
                      shard::ShardedRunResult* full_out = nullptr) {
  shard::ShardedSystemConfig config;
  config.base = base;
  config.router.num_shards = options.shards;
  config.router.policy = options.policy;
  config.rerouting_enabled = options.rerouting;
  config.worker_threads = options.worker_threads;
  config.batch_window = options.batch_window;
  if (options.churn != nullptr) config.base.provider_churn = *options.churn;
  if (options.faults != nullptr) config.base.shard_faults = *options.faults;
  config.rebalance_enabled = options.rebalance;
  if (options.adaptive) {
    config.adaptive_batch.enabled = true;
    config.adaptive_batch.min_window = 0.0;
    config.adaptive_batch.max_window = options.adaptive_max_window;
  }
  config.base.observability.metrics = options.obs_metrics;
  config.base.observability.trace = options.obs_trace;
  config.gossip_topology = options.gossip_topology;
  config.base.agent_pool.enabled = options.agent_pool;
  config.topology_aware_workers = options.topology_aware;

  shard::ShardedMediationSystem system(
      config, [](std::uint32_t) { return std::make_unique<SqlbMethod>(); });
  const auto start = Clock::now();
  shard::ShardedRunResult result = system.Run();
  const auto end = Clock::now();

  ScalePoint point;
  point.label = options.label;
  point.shards = options.shards;
  point.threads = options.worker_threads;
  point.batch_window = options.batch_window;
  point.wall_seconds = std::chrono::duration<double>(end - start).count();
  point.issued = result.run.queries_issued;
  point.completed = result.run.queries_completed;
  point.mean_rt = result.run.response_time.mean();
  point.rt_p50 = result.run.ResponseTimeQuantile(0.5);
  point.rt_p99 = result.run.ResponseTimeQuantile(0.99);
  point.rt_p999 = result.run.ResponseTimeQuantile(0.999);
  point.cons_sat =
      result.run.series
          .Find(runtime::ScenarioEngine::kSeriesConsAllocSatMean)
          ->samples.back()
          .second;
  point.route_imbalance = result.RouteImbalance();
  point.reroutes = result.reroutes;
  point.gossip = result.gossip_delivered;
  point.batch_flushes = result.batch_flushes;
  point.batched_queries = result.batched_queries;
  point.joins = result.run.provider_joins;
  point.ring_epoch = result.ring_epoch;
  point.rebalances = result.ring_rebalances;
  point.rebalances_damped = result.rebalances_damped;
  point.handoffs = result.handoffs_completed;
  point.infeasible = result.run.queries_infeasible;
  point.reissued = result.reissued_queries;
  point.crashes = result.shard_crashes;
  point.snapshots = result.snapshots_taken;
  point.restored = result.restored_providers;
  point.orphaned = result.orphaned_providers;
  point.dropped_completions = result.dropped_completions;
  point.providers = config.base.population.num_providers;
  point.bytes_per_provider = static_cast<double>(result.agent_state_bytes) /
                             static_cast<double>(point.providers);
  point.arena_mb =
      static_cast<double>(result.arena_bytes_reserved) / (1024.0 * 1024.0);
  point.gossip_msgs = result.gossip_load_messages;
  point.relay_forwards = result.gossip_relay_forwards;
  point.peak_rss_mb = PeakRssMb();
  if (full_out != nullptr) *full_out = std::move(result);
  return point;
}

/// A light-workload, large-population configuration for the memory and
/// gossip scale arms. The absolute query volume is pinned (~target_qps
/// regardless of N: the workload fraction scales as 1/capacity), so these
/// arms measure state residency and gossip wire cost at population scale —
/// not allocation throughput, which the paper-config arms already cover.
/// Consumer preferences are drawn lazily: the eager C x N matrix is a
/// population-level cost that would swamp the per-provider story.
runtime::SystemConfig ScaleBase(std::size_t providers, double duration,
                                double target_qps) {
  runtime::SystemConfig config = experiments::PaperConfig(/*seed=*/42);
  config.population.num_consumers = 256;
  config.population.num_providers = providers;
  config.population.lazy_consumer_preferences = true;
  config.duration = duration;
  config.sample_interval = duration / 4.0;
  config.stats_warmup = duration / 4.0;
  config.workload = runtime::WorkloadSpec::Constant(1.0);
  config.workload = runtime::WorkloadSpec::Constant(
      std::min(1.0, target_qps / NominalArrivalRate(config)));
  return config;
}

const ScalePoint& FindPoint(const std::vector<ScalePoint>& points,
                            const std::string& label) {
  for (const ScalePoint& p : points) {
    if (p.label == label) return p;
  }
  std::fprintf(stderr, "missing bench arm: %s\n", label.c_str());
  std::abort();
}

double Throughput(const ScalePoint& p) {
  return static_cast<double>(p.completed) / p.wall_seconds;
}

}  // namespace
}  // namespace sqlb

int main() {
  using namespace sqlb;
  bench::PrintHeader("scale_sharding",
                     "mediation-tier scaling: shards, lanes, batched intake");

  const runtime::SystemConfig base = BaseConfig();
  const std::size_t kShards = 8;
  // Size the coalescing window for a mean burst of ~8 queries per shard.
  const double batch_window = std::min(
      2.0, 8.0 * static_cast<double>(kShards) / NominalArrivalRate(base));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool fast = FastBenchMode();

  // Arms skipped this run (fast mode trims redundant rows; a host with <= 4
  // cores has no distinct hw-thread row). Printed below: a smoke log must
  // say what it did not cover.
  std::vector<std::string> skipped;

  std::vector<ScalePoint> points;
  // The PR 1 story: algorithmic speedup from partitioning alone.
  points.push_back(RunMono(base));
  for (std::size_t shards : {1, 2, 4, 8}) {
    const std::string label = std::to_string(shards) + "-shard";
    if (fast && (shards == 2 || shards == 4)) {
      skipped.push_back(label);  // interior scaling points: shape only
      continue;
    }
    points.push_back(RunSharded(
        base, {label, shards, shard::RoutingPolicy::kLeastLoaded, true, 0,
               0.0}));
  }

  // The wall-clock story: one consumer-affine serial baseline, then
  // batching and lane parallelism stacked on top of it.
  const ShardedOptions serial_base{"8-serial", kShards,
                                   shard::RoutingPolicy::kLocality, false, 0,
                                   0.0};
  points.push_back(RunSharded(base, serial_base));

  // The observability overhead pair: the same serial 8-shard configuration
  // with everything off (no histograms, no spans — the zero-cost baseline)
  // and with everything on at the default span sampling. CI gates the
  // throughput ratio at >= 0.97 (a <= 3% instrumentation tax).
  ShardedOptions noobs = serial_base;
  noobs.label = "8-noobs";
  noobs.obs_metrics = false;
  points.push_back(RunSharded(base, noobs));

  ShardedOptions traced = serial_base;
  traced.label = "8-trace";
  traced.obs_trace = true;
  shard::ShardedRunResult traced_result;
  points.push_back(RunSharded(base, traced, &traced_result));

  ShardedOptions batched = serial_base;
  batched.label = "8-batch";
  batched.batch_window = batch_window;
  points.push_back(RunSharded(base, batched));

  // Unbatched parallel run: must be bit-identical to 8-serial (parity pin).
  ShardedOptions parity = serial_base;
  parity.label = "8-par-nobatch";
  parity.worker_threads = hw;
  points.push_back(RunSharded(base, parity));

  // Thread ladder: fast mode keeps the endpoints (1 thread for the
  // determinism pin, 4 threads for the CI speedup gates).
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (fast) {
    thread_counts = {1, 4};
    skipped.push_back("8-par-t2");
  }
  if (hw > 4) {
    thread_counts.push_back(hw);
  } else {
    skipped.push_back("8-par-t<hw> (host has " + std::to_string(hw) +
                      " hardware threads: covered by the ladder)");
  }
  std::vector<std::string> parallel_labels;
  for (std::size_t threads : thread_counts) {
    ShardedOptions parallel = batched;
    parallel.label = "8-par-t" + std::to_string(threads);
    parallel.worker_threads = threads;
    points.push_back(RunSharded(base, parallel));
    parallel_labels.push_back(parallel.label);
  }

  // The least-loaded story: load-aware routing, which strict parallel mode
  // rejects, so these rows run serial. Unbatched baseline first.
  const ShardedOptions ll_serial{"8-ll-serial", kShards,
                                 shard::RoutingPolicy::kLeastLoaded, false, 0,
                                 0.0};
  points.push_back(RunSharded(base, ll_serial));

  // Serial batched least-loaded: the static-window baseline of the adaptive
  // row. Documents the cost of coalescing under a herding stale load table.
  ShardedOptions ll_batched = ll_serial;
  ll_batched.label = "8-ll-batch";
  ll_batched.batch_window = batch_window;
  points.push_back(RunSharded(base, ll_batched));

  // Adaptive per-shard windows against the same least-loaded serial
  // configuration: the controller rate-matches each shard's window (EWMA of
  // its arrival rate, gated by its queue debt) inside [0, batch_window], so
  // the stale-gossip herding burst that inflates 8-ll-batch's response time
  // coalesces in target-length bites instead of one epoch-wide gulp. The CI
  // gate: mean rt <= the static row's at equal-or-better alloc/sec.
  ShardedOptions adaptive = ll_serial;
  adaptive.label = "8-adapt";
  adaptive.adaptive = true;
  adaptive.adaptive_max_window = batch_window;
  points.push_back(RunSharded(base, adaptive));

  // The churn story: gut shard 0 (every provider the 8-shard ring assigns
  // it leaves a third into the run and rejoins at two thirds — by then the
  // re-partitioned ring spreads them wherever the current epoch says), with
  // runtime rebalancing on. Serial and 4-thread strict rows must stay
  // bit-identical; throughput vs the no-churn 8-serial arm is the CI gate.
  shard::RouterConfig churn_router;
  churn_router.num_shards = kShards;
  churn_router.policy = shard::RoutingPolicy::kLocality;
  const runtime::ChurnSchedule churn_schedule = shard::ShardChurnSchedule(
      churn_router, /*shard=*/0, base.population.num_providers,
      /*leave_at=*/base.duration / 3.0,
      /*rejoin_at=*/2.0 * base.duration / 3.0);
  ShardedOptions churn_serial = serial_base;
  churn_serial.label = "8-churn-serial";
  churn_serial.churn = &churn_schedule;
  churn_serial.rebalance = true;
  points.push_back(RunSharded(base, churn_serial));

  ShardedOptions churn_parallel = churn_serial;
  churn_parallel.label = "8-churn-t4";
  churn_parallel.worker_threads = 4;
  points.push_back(RunSharded(base, churn_parallel));

  // The chaos story: random shard kills on the strict serial baseline, plus
  // a 4-thread twin for the failover parity pin. Each kill loses the dead
  // shard's un-snapshotted mediation state; survivors adopt its providers
  // through the versioned ring and the lost queries are re-issued with the
  // availability penalty charged to the response-time statistics. The kill
  // schedule is pure data (seeded up front), so the arm is reproducible.
  runtime::FaultSchedule chaos_faults = runtime::FaultSchedule::RandomKills(
      base.stats_warmup, base.duration - 100.0, /*kills_per_1000s=*/3.0,
      static_cast<std::uint32_t>(kShards), /*seed=*/1007);
  // Guarantee at least one mid-run kill even under the trimmed fast-mode
  // horizon (the engine sorts events; killing a dead shard is a no-op).
  chaos_faults.Append(
      runtime::FaultSchedule::KillAt(base.duration / 2.0, /*shard=*/3));
  ShardedOptions chaos_serial = serial_base;
  chaos_serial.label = "8-chaos";
  chaos_serial.faults = &chaos_faults;
  chaos_serial.rebalance = true;
  points.push_back(RunSharded(base, chaos_serial));

  ShardedOptions chaos_parallel = chaos_serial;
  chaos_parallel.label = "8-chaos-t4";
  chaos_parallel.worker_threads = 4;
  points.push_back(RunSharded(base, chaos_parallel));

  // The million-agent scale story. First the two bit-identity twins on the
  // paper workload: pooled SoA agent state and topology-aware parallel
  // placement must each reproduce 8-serial exactly.
  ShardedOptions pooled_twin = serial_base;
  pooled_twin.label = "8-pooled";
  pooled_twin.agent_pool = true;
  points.push_back(RunSharded(base, pooled_twin));

  ShardedOptions topo_twin = serial_base;
  topo_twin.label = "8-par-topo";
  topo_twin.worker_threads = 4;
  topo_twin.topology_aware = true;
  points.push_back(RunSharded(base, topo_twin));

  // 64-shard gossip wire cost: the direct baseline fixes the exact round
  // count (sends are counted at send time: total = rounds x M), then the
  // hierarchical arm must come in under rounds x M ceil(log2 M).
  const std::size_t kGossipShards = 64;
  const runtime::SystemConfig gossip_base =
      ScaleBase(/*providers=*/fast ? 4096 : 16384,
                /*duration=*/fast ? 400.0 : 800.0, /*target_qps=*/50.0);
  ShardedOptions gossip_direct{"64-direct", kGossipShards,
                               shard::RoutingPolicy::kLocality, false, 0,
                               0.0};
  gossip_direct.agent_pool = true;
  points.push_back(RunSharded(gossip_base, gossip_direct));

  ShardedOptions gossip_hier = gossip_direct;
  gossip_hier.label = "64-hier";
  gossip_hier.gossip_topology = shard::GossipTopologyKind::kHierarchical;
  points.push_back(RunSharded(gossip_base, gossip_hier));

  // Per-provider residency: the eager heap layout against the pooled SoA
  // layout on an identical 64-shard run. The query volume is pinned low —
  // every mediation proposes to all of its shard's candidates, so each
  // provider's resident window grows ~16 B per query its shard sees; a
  // near-idle fleet is the provisioned-for-peak shape the pool exists for,
  // and it keeps the eager layout's preallocated rings (the fixed ~10 KB)
  // the dominant term.
  const runtime::SystemConfig mem_base =
      ScaleBase(/*providers=*/fast ? 16384 : 65536,
                /*duration=*/fast ? 240.0 : 480.0, /*target_qps=*/8.0);
  ShardedOptions mem_pooled{"64-pooled", kGossipShards,
                            shard::RoutingPolicy::kLocality, false, 0, 0.0};
  mem_pooled.agent_pool = true;
  mem_pooled.gossip_topology = shard::GossipTopologyKind::kHierarchical;
  points.push_back(RunSharded(mem_base, mem_pooled));

  ShardedOptions mem_aos = mem_pooled;
  mem_aos.label = "64-aos";
  mem_aos.agent_pool = false;
  points.push_back(RunSharded(mem_base, mem_aos));

  // The headline arm: one million providers on 64 shards, pooled state +
  // lazy preferences + hierarchical gossip. Runs LAST so the VmHWM reading
  // is its own high-water mark. Fast mode skips it (and says so).
  bool million_ran = false;
  ScalePoint million_pt;
  if (fast) {
    skipped.push_back("64-pooled-1m (1M providers; full runs only)");
  } else {
    const runtime::SystemConfig million_base =
        ScaleBase(/*providers=*/1'000'000, /*duration=*/300.0,
                  /*target_qps=*/8.0);
    ShardedOptions million = mem_pooled;
    million.label = "64-pooled-1m";
    points.push_back(RunSharded(million_base, million));
    million_pt = points.back();
    million_ran = true;
  }

  const double mono_throughput = Throughput(points.front());

  TablePrinter table({"config", "threads", "batch(s)", "wall(s)", "completed",
                      "alloc/s(wall)", "speedup", "mean rt(s)", "p50 rt",
                      "p99 rt", "p999 rt", "cons sat", "imbalance",
                      "reroutes", "gossip", "handoffs", "B/prov"});
  CsvWriter csv({"config", "shards", "threads", "batch_window",
                 "wall_seconds", "completed", "alloc_per_second", "speedup",
                 "mean_response_time", "rt_p50", "rt_p99", "rt_p999",
                 "consumer_allocsat", "route_imbalance",
                 "reroutes", "gossip_delivered", "provider_joins",
                 "ring_epoch", "ring_rebalances", "handoffs_completed",
                 "providers", "bytes_per_provider", "gossip_load_messages",
                 "peak_rss_mb"});
  bench::JsonArray rows;
  for (const ScalePoint& p : points) {
    const double throughput = Throughput(p);
    const double speedup = throughput / mono_throughput;
    table.AddRow({p.label, std::to_string(p.threads),
                  FormatNumber(p.batch_window, 3),
                  FormatNumber(p.wall_seconds, 3),
                  FormatNumber(static_cast<double>(p.completed)),
                  FormatNumber(throughput, 4), FormatNumber(speedup, 3),
                  FormatNumber(p.mean_rt, 4), FormatNumber(p.rt_p50, 4),
                  FormatNumber(p.rt_p99, 4), FormatNumber(p.rt_p999, 4),
                  FormatNumber(p.cons_sat, 4),
                  FormatNumber(p.route_imbalance, 3),
                  FormatNumber(static_cast<double>(p.reroutes)),
                  FormatNumber(static_cast<double>(p.gossip)),
                  FormatNumber(static_cast<double>(p.handoffs)),
                  FormatNumber(p.bytes_per_provider, 0)});
    csv.BeginRow();
    csv.AddCell(p.label);
    csv.AddCell(p.shards);
    csv.AddCell(p.threads);
    csv.AddCell(p.batch_window);
    csv.AddCell(p.wall_seconds);
    csv.AddCell(static_cast<std::size_t>(p.completed));
    csv.AddCell(throughput);
    csv.AddCell(speedup);
    csv.AddCell(p.mean_rt);
    csv.AddCell(p.rt_p50);
    csv.AddCell(p.rt_p99);
    csv.AddCell(p.rt_p999);
    csv.AddCell(p.cons_sat);
    csv.AddCell(p.route_imbalance);
    csv.AddCell(static_cast<std::size_t>(p.reroutes));
    csv.AddCell(static_cast<std::size_t>(p.gossip));
    csv.AddCell(static_cast<std::size_t>(p.joins));
    csv.AddCell(static_cast<std::size_t>(p.ring_epoch));
    csv.AddCell(static_cast<std::size_t>(p.rebalances));
    csv.AddCell(static_cast<std::size_t>(p.handoffs));
    csv.AddCell(p.providers);
    csv.AddCell(p.bytes_per_provider);
    csv.AddCell(static_cast<std::size_t>(p.gossip_msgs));
    csv.AddCell(p.peak_rss_mb);

    bench::JsonObject row;
    row.Add("config", p.label)
        .Add("shards", p.shards)
        .Add("threads", p.threads)
        .Add("batch_window", p.batch_window)
        .Add("wall_seconds", p.wall_seconds)
        .Add("queries_issued", p.issued)
        .Add("queries_completed", p.completed)
        .Add("alloc_per_second", throughput)
        .Add("speedup_vs_mono", speedup)
        .Add("mean_response_time", p.mean_rt)
        .Add("rt_p50", p.rt_p50)
        .Add("rt_p99", p.rt_p99)
        .Add("rt_p999", p.rt_p999)
        .Add("consumer_allocsat", p.cons_sat)
        .Add("batch_flushes", p.batch_flushes)
        .Add("batched_queries", p.batched_queries)
        .Add("provider_joins", p.joins)
        .Add("ring_epoch", p.ring_epoch)
        .Add("ring_rebalances", p.rebalances)
        .Add("ring_rebalances_damped", p.rebalances_damped)
        .Add("handoffs_completed", p.handoffs)
        .Add("queries_infeasible", p.infeasible)
        .Add("queries_reissued", p.reissued)
        .Add("shard_crashes", p.crashes)
        .Add("snapshots_taken", p.snapshots)
        .Add("restored_providers", p.restored)
        .Add("orphaned_providers", p.orphaned)
        .Add("dropped_completions", p.dropped_completions)
        .Add("providers", p.providers)
        .Add("bytes_per_provider", p.bytes_per_provider)
        .Add("arena_mb", p.arena_mb)
        .Add("gossip_load_messages", p.gossip_msgs)
        .Add("gossip_relay_forwards", p.relay_forwards)
        .Add("peak_rss_mb", p.peak_rss_mb);
    rows.Add(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  if (fast || !skipped.empty()) {
    std::string list;
    for (std::size_t i = 0; i < skipped.size(); ++i) {
      if (i > 0) list += ", ";
      list += skipped[i];
    }
    std::printf("skipped arms%s: %s\n", fast ? " (SQLB_FAST=1)" : "",
                skipped.empty() ? "none" : list.c_str());
  }

  // --- Hardware-independent pins -------------------------------------------

  bool obs_transparent_pin = false;

  // 1. The M = 1 sharded run must BE the mono run.
  const ScalePoint& mono = points[0];
  const ScalePoint& one = FindPoint(points, "1-shard");
  const bool mono_parity = mono.issued == one.issued &&
                           mono.completed == one.completed &&
                           mono.mean_rt == one.mean_rt &&
                           mono.cons_sat == one.cons_sat;
  std::printf("M=1 parity with mono-mediator: %s\n",
              mono_parity ? "EXACT" : "BROKEN (investigate!)");

  // 2. Observability must be observation only: the metrics-off arm and the
  //    fully-traced arm replay the default arm's workload bit for bit
  //    (instrumentation never touches RNG draws, schedules, or float state).
  const ScalePoint& serial8 = FindPoint(points, "8-serial");
  {
    const ScalePoint& noobs_pt = FindPoint(points, "8-noobs");
    const ScalePoint& trace_pt = FindPoint(points, "8-trace");
    const bool obs_transparent =
        serial8.issued == noobs_pt.issued &&
        serial8.completed == noobs_pt.completed &&
        serial8.mean_rt == noobs_pt.mean_rt &&
        serial8.cons_sat == noobs_pt.cons_sat &&
        serial8.issued == trace_pt.issued &&
        serial8.completed == trace_pt.completed &&
        serial8.mean_rt == trace_pt.mean_rt &&
        serial8.cons_sat == trace_pt.cons_sat;
    std::printf("observability transparency (off/traced vs default): %s\n",
                obs_transparent ? "EXACT" : "BROKEN (investigate!)");
    obs_transparent_pin = obs_transparent;
  }

  // 3. Unbatched parallel execution must BE the serial locality run.
  const ScalePoint& par_nobatch = FindPoint(points, "8-par-nobatch");
  const bool parallel_parity = serial8.issued == par_nobatch.issued &&
                               serial8.completed == par_nobatch.completed &&
                               serial8.mean_rt == par_nobatch.mean_rt &&
                               serial8.cons_sat == par_nobatch.cons_sat;
  std::printf("parallel (unbatched) parity with 8-serial: %s\n",
              parallel_parity ? "EXACT" : "BROKEN (investigate!)");

  // 4. The batched parallel rows must agree with each other bit-for-bit
  //    across thread counts (determinism of the epoch merge).
  bool thread_determinism = true;
  const ScalePoint& first_parallel = FindPoint(points, parallel_labels.front());
  for (const std::string& label : parallel_labels) {
    const ScalePoint& p = FindPoint(points, label);
    thread_determinism = thread_determinism &&
                         p.issued == first_parallel.issued &&
                         p.completed == first_parallel.completed &&
                         p.mean_rt == first_parallel.mean_rt &&
                         p.cons_sat == first_parallel.cons_sat;
  }
  std::printf("parallel determinism across thread counts: %s\n",
              thread_determinism ? "EXACT" : "BROKEN (investigate!)");

  // 5. Churn: the strict parallel churn row must BE the serial churn row,
  //    the ring must actually re-partition, and the accounting must stay
  //    conserved under the handoffs.
  const ScalePoint& churn0 = FindPoint(points, "8-churn-serial");
  const ScalePoint& churn4 = FindPoint(points, "8-churn-t4");
  const bool churn_parity = churn0.issued == churn4.issued &&
                            churn0.completed == churn4.completed &&
                            churn0.mean_rt == churn4.mean_rt &&
                            churn0.cons_sat == churn4.cons_sat &&
                            churn0.ring_epoch == churn4.ring_epoch &&
                            churn0.handoffs == churn4.handoffs;
  const bool churn_repartitioned =
      churn0.rebalances > 0 && churn0.handoffs > 0 && churn0.joins > 0;
  std::printf("churn parity (serial vs 4 threads): %s\n",
              churn_parity ? "EXACT" : "BROKEN (investigate!)");
  std::printf(
      "churn re-partitioning active: %s (epoch %llu, %llu rebalances, %llu "
      "handoffs, %llu rejoins)\n",
      churn_repartitioned ? "YES" : "NO (investigate!)",
      static_cast<unsigned long long>(churn0.ring_epoch),
      static_cast<unsigned long long>(churn0.rebalances),
      static_cast<unsigned long long>(churn0.handoffs),
      static_cast<unsigned long long>(churn0.joins));

  // 6. Chaos: zero lost completions under the kill schedule — every issued
  //    query is completed, declared infeasible, or declared re-issued,
  //    exactly — the failover machinery actually fired (crashes and
  //    snapshots happened), and the strict 4-thread chaos row must BE the
  //    serial chaos row, failover counters included.
  const ScalePoint& chaos0 = FindPoint(points, "8-chaos");
  const ScalePoint& chaos4 = FindPoint(points, "8-chaos-t4");
  const std::int64_t chaos_lost_completions =
      static_cast<std::int64_t>(chaos0.issued) -
      static_cast<std::int64_t>(chaos0.completed) -
      static_cast<std::int64_t>(chaos0.infeasible) -
      static_cast<std::int64_t>(chaos0.reissued);
  const bool chaos_zero_lost = chaos_lost_completions == 0;
  const bool chaos_parity = chaos0.issued == chaos4.issued &&
                            chaos0.completed == chaos4.completed &&
                            chaos0.reissued == chaos4.reissued &&
                            chaos0.crashes == chaos4.crashes &&
                            chaos0.restored == chaos4.restored &&
                            chaos0.orphaned == chaos4.orphaned &&
                            chaos0.mean_rt == chaos4.mean_rt &&
                            chaos0.cons_sat == chaos4.cons_sat;
  const bool chaos_active = chaos0.crashes > 0 && chaos0.snapshots > 0;
  std::printf(
      "chaos zero-lost-completions: %s (issued %llu = completed %llu + "
      "infeasible %llu + reissued %llu, delta %lld)\n",
      chaos_zero_lost ? "EXACT" : "BROKEN (investigate!)",
      static_cast<unsigned long long>(chaos0.issued),
      static_cast<unsigned long long>(chaos0.completed),
      static_cast<unsigned long long>(chaos0.infeasible),
      static_cast<unsigned long long>(chaos0.reissued),
      static_cast<long long>(chaos_lost_completions));
  std::printf("chaos failover parity (serial vs 4 threads): %s\n",
              chaos_parity ? "EXACT" : "BROKEN (investigate!)");
  std::printf(
      "chaos activity (%s): %llu crashes, %llu snapshots, %llu restored, "
      "%llu orphaned, %llu dropped completions\n",
      chaos_active ? "YES" : "NO (investigate!)",
      static_cast<unsigned long long>(chaos0.crashes),
      static_cast<unsigned long long>(chaos0.snapshots),
      static_cast<unsigned long long>(chaos0.restored),
      static_cast<unsigned long long>(chaos0.orphaned),
      static_cast<unsigned long long>(chaos0.dropped_completions));

  // 7. Pooled agent state must be storage-only: the pooled twin replays
  //    8-serial bit for bit, and so does the topology-aware parallel twin
  //    (placement moves threads, never the schedule within a lane).
  const ScalePoint& pooled_pt = FindPoint(points, "8-pooled");
  const bool pooled_parity = serial8.issued == pooled_pt.issued &&
                             serial8.completed == pooled_pt.completed &&
                             serial8.mean_rt == pooled_pt.mean_rt &&
                             serial8.cons_sat == pooled_pt.cons_sat;
  std::printf("pooled-state parity with 8-serial: %s\n",
              pooled_parity ? "EXACT" : "BROKEN (investigate!)");
  const ScalePoint& topo_pt = FindPoint(points, "8-par-topo");
  const bool topo_parity = serial8.issued == topo_pt.issued &&
                           serial8.completed == topo_pt.completed &&
                           serial8.mean_rt == topo_pt.mean_rt &&
                           serial8.cons_sat == topo_pt.cons_sat;
  std::printf("topology-aware parallel parity with 8-serial: %s\n",
              topo_parity ? "EXACT" : "BROKEN (investigate!)");

  // 8. Gossip wire cost at M = 64: the direct arm counts rounds exactly
  //    (sends only, at send time), and the hierarchical arm must stay
  //    under the O(M log M) budget for those rounds. Its own counter obeys
  //    the audit identity total = rounds x M + relay forwards, up to the
  //    final round's relays still in flight at the horizon.
  const ScalePoint& g_direct = FindPoint(points, "64-direct");
  const ScalePoint& g_hier = FindPoint(points, "64-hier");
  const std::uint64_t gossip_rounds = g_direct.gossip_msgs / kGossipShards;
  const std::uint64_t gossip_budget =
      gossip_rounds * kGossipShards *
      static_cast<std::uint64_t>(
          std::ceil(std::log2(static_cast<double>(kGossipShards))));
  const bool gossip_budget_ok = gossip_rounds > 0 &&
                                g_direct.gossip_msgs % kGossipShards == 0 &&
                                g_hier.gossip_msgs <= gossip_budget;
  std::printf(
      "64-shard gossip: %llu rounds, direct %llu msgs, hierarchical %llu "
      "(%llu relay forwards) vs budget %llu (M ceil(log2 M) per round): %s\n",
      static_cast<unsigned long long>(gossip_rounds),
      static_cast<unsigned long long>(g_direct.gossip_msgs),
      static_cast<unsigned long long>(g_hier.gossip_msgs),
      static_cast<unsigned long long>(g_hier.relay_forwards),
      static_cast<unsigned long long>(gossip_budget),
      gossip_budget_ok ? "UNDER" : "OVER (investigate!)");

  // 9. Per-provider residency: the pooled layout must cut resident bytes
  //     per provider >= 4x vs the eager heap twin of the same run, and the
  //     1M arm (full runs) must hold the same factor vs that AoS baseline
  //     while finishing inside container memory.
  const ScalePoint& mem_aos_pt = FindPoint(points, "64-aos");
  const ScalePoint& mem_pooled_pt = FindPoint(points, "64-pooled");
  const double memory_ratio =
      mem_pooled_pt.bytes_per_provider > 0.0
          ? mem_aos_pt.bytes_per_provider / mem_pooled_pt.bytes_per_provider
          : 0.0;
  const bool memory_ratio_ok = memory_ratio >= 4.0;
  std::printf(
      "agent-state residency at %zu providers: %.0f B/provider eager heap "
      "vs %.0f B/provider pooled (%.1fx, CI gate >= 4x): %s\n",
      mem_aos_pt.providers, mem_aos_pt.bytes_per_provider,
      mem_pooled_pt.bytes_per_provider, memory_ratio,
      memory_ratio_ok ? "OK" : "BROKEN (investigate!)");

  double million_ratio = 0.0;
  bool million_ok = true;  // vacuously true when the arm is skipped
  if (million_ran) {
    million_ratio =
        million_pt.bytes_per_provider > 0.0
            ? mem_aos_pt.bytes_per_provider / million_pt.bytes_per_provider
            : 0.0;
    million_ok = million_pt.completed > 0 && million_ratio >= 4.0;
    std::printf(
        "1M-provider arm: %llu completed, %.0f B/provider (%.1fx vs the "
        "%zu-provider eager baseline, gate >= 4x), %.0f MiB peak RSS, "
        "%.1f MiB arena, %llu gossip msgs: %s\n",
        static_cast<unsigned long long>(million_pt.completed),
        million_pt.bytes_per_provider, million_ratio, mem_aos_pt.providers,
        million_pt.peak_rss_mb, million_pt.arena_mb,
        static_cast<unsigned long long>(million_pt.gossip_msgs),
        million_ok ? "OK" : "BROKEN (investigate!)");
  }

  // --- Hardware-dependent wall-clock numbers -------------------------------

  const ScalePoint& eight = FindPoint(points, "8-shard");
  const double speedup8 = Throughput(eight) / mono_throughput;
  std::printf("8-shard allocation speedup over mono: %.2fx %s\n", speedup8,
              speedup8 >= 2.0 ? "(>= 2x target met)" : "(below 2x target)");

  double best_parallel_wall = first_parallel.wall_seconds;
  double wall_4t = best_parallel_wall;
  for (const std::string& label : parallel_labels) {
    const ScalePoint& p = FindPoint(points, label);
    best_parallel_wall = std::min(best_parallel_wall, p.wall_seconds);
    if (p.threads == 4) wall_4t = p.wall_seconds;
  }
  const double parallel_speedup_4t = serial8.wall_seconds / wall_4t;
  const double parallel_speedup_best =
      serial8.wall_seconds / best_parallel_wall;
  std::printf(
      "parallel+batched speedup over 8-serial: %.2fx at 4 threads, %.2fx "
      "best (%u hardware threads%s)\n",
      parallel_speedup_4t, parallel_speedup_best, hw,
      hw < 4 ? "; the >= 3x target needs >= 4 cores" : "");

  // Adaptive batch windows vs the static window under the same routing:
  // the adaptive controller must close (most of) the coalescing response-
  // time penalty without giving back intake throughput. CI gates both.
  const ScalePoint& ll_twin = FindPoint(points, "8-ll-batch");
  const ScalePoint& adapt = FindPoint(points, "8-adapt");
  const double adapt_rt_ratio =
      ll_twin.mean_rt > 0.0 ? adapt.mean_rt / ll_twin.mean_rt : 1.0;
  const double adapt_throughput_ratio =
      Throughput(adapt) / Throughput(ll_twin);
  const double adapt_burst = adapt.batch_flushes > 0
                                 ? static_cast<double>(adapt.batched_queries) /
                                       static_cast<double>(adapt.batch_flushes)
                                 : 0.0;
  const double static_burst =
      ll_twin.batch_flushes > 0
          ? static_cast<double>(ll_twin.batched_queries) /
                static_cast<double>(ll_twin.batch_flushes)
          : 0.0;
  std::printf(
      "adaptive windows vs 8-ll-batch: rt %.4fs vs %.4fs (%.2fx, gate <= "
      "1.0), alloc/s ratio %.2fx (gate >= 1.0), mean burst %.1f vs %.1f\n",
      adapt.mean_rt, ll_twin.mean_rt, adapt_rt_ratio, adapt_throughput_ratio,
      adapt_burst, static_burst);

  // Rebalance damping: reweigh/handoff counts of the churn arm (the
  // hysteresis + step cap should hold reweighs to a couple per mass
  // departure; the JSON records the trajectory).
  std::printf(
      "churn re-partitioning damping: %llu reweighs (%llu damped), %llu "
      "handoffs\n",
      static_cast<unsigned long long>(churn0.rebalances),
      static_cast<unsigned long long>(churn0.rebalances_damped),
      static_cast<unsigned long long>(churn0.handoffs));

  // Churn overhead: allocation throughput of the churn arm relative to the
  // identically-configured no-churn arm. CI fails below 0.8 (a > 20%
  // regression); the wall-clock ratio is also reported for context.
  const double churn_throughput_ratio =
      Throughput(churn0) / Throughput(serial8);
  std::printf(
      "churn arm throughput vs 8-serial: %.2fx (CI gate: >= 0.80)\n",
      churn_throughput_ratio);

  // Chaos overhead: allocation throughput under the kill schedule relative
  // to the identically-configured calm arm. Crashes cost re-mediation of
  // everything re-issued plus the adoption drain, so some loss is expected;
  // CI fails below 0.7 (a > 30% regression).
  const double chaos_throughput_ratio =
      Throughput(chaos0) / Throughput(serial8);
  std::printf(
      "chaos arm throughput vs 8-serial: %.2fx (CI gate: >= 0.70)\n",
      chaos_throughput_ratio);

  // Observability overhead: the fully-instrumented arm (histograms + spans
  // at the default 1-in-16 sampling) against the uninstrumented twin.
  const ScalePoint& noobs_pt = FindPoint(points, "8-noobs");
  const ScalePoint& trace_pt = FindPoint(points, "8-trace");
  const double obs_throughput_ratio =
      Throughput(trace_pt) / Throughput(noobs_pt);
  std::printf(
      "observability overhead: traced/uninstrumented alloc/s ratio %.3fx "
      "(CI gate: >= 0.97), %zu spans kept, %llu dropped\n\n",
      obs_throughput_ratio, traced_result.run.trace_spans.size(),
      static_cast<unsigned long long>(traced_result.run.trace_spans_dropped));

  bench::JsonObject summary;
  summary.Add("serial_8shard_wall_seconds", serial8.wall_seconds)
      .Add("batched_8shard_wall_seconds",
           FindPoint(points, "8-batch").wall_seconds)
      .Add("parallel_8shard_4t_wall_seconds", wall_4t)
      .Add("parallel_8shard_best_wall_seconds", best_parallel_wall)
      .Add("speedup_8shard_4threads", parallel_speedup_4t)
      .Add("speedup_8shard_best", parallel_speedup_best)
      .Add("algorithmic_speedup_8shard_vs_mono", speedup8)
      .Add("batch_window_seconds", batch_window)
      .Add("mono_parity_exact", mono_parity)
      .Add("parallel_parity_exact", parallel_parity)
      .Add("thread_determinism_exact", thread_determinism)
      .Add("ll_serial_wall_seconds",
           FindPoint(points, "8-ll-serial").wall_seconds)
      .Add("churn_parity_exact", churn_parity)
      .Add("churn_repartitioned", churn_repartitioned)
      .Add("churn_throughput_ratio", churn_throughput_ratio)
      .Add("churn_ring_epoch", churn0.ring_epoch)
      .Add("churn_rebalances", churn0.rebalances)
      .Add("churn_rebalances_damped", churn0.rebalances_damped)
      .Add("churn_handoffs_completed", churn0.handoffs)
      .Add("churn_provider_joins", churn0.joins)
      .AddRaw("chaos_lost_completions",
              std::to_string(chaos_lost_completions))
      .Add("chaos_zero_lost", chaos_zero_lost)
      .Add("chaos_parity_exact", chaos_parity)
      .Add("chaos_active", chaos_active)
      .Add("chaos_throughput_ratio", chaos_throughput_ratio)
      .Add("chaos_shard_crashes", chaos0.crashes)
      .Add("chaos_snapshots_taken", chaos0.snapshots)
      .Add("chaos_reissued_queries", chaos0.reissued)
      .Add("chaos_restored_providers", chaos0.restored)
      .Add("chaos_orphaned_providers", chaos0.orphaned)
      .Add("chaos_dropped_completions", chaos0.dropped_completions)
      .Add("adaptive_mean_rt", adapt.mean_rt)
      .Add("static_batch_mean_rt", ll_twin.mean_rt)
      .Add("adaptive_rt_ratio", adapt_rt_ratio)
      .Add("adaptive_throughput_ratio", adapt_throughput_ratio)
      .Add("adaptive_mean_burst", adapt_burst)
      .Add("static_mean_burst", static_burst)
      .Add("observability_transparent", obs_transparent_pin)
      .Add("observability_throughput_ratio", obs_throughput_ratio)
      .Add("trace_spans",
           static_cast<std::uint64_t>(traced_result.run.trace_spans.size()))
      .Add("trace_spans_dropped", traced_result.run.trace_spans_dropped)
      .Add("serial_rt_p50", serial8.rt_p50)
      .Add("serial_rt_p99", serial8.rt_p99)
      .Add("serial_rt_p999", serial8.rt_p999)
      .Add("pooled_parity_exact", pooled_parity)
      .Add("topology_parity_exact", topo_parity)
      .Add("gossip_shards", kGossipShards)
      .Add("gossip_rounds", gossip_rounds)
      .Add("gossip_direct_messages", g_direct.gossip_msgs)
      .Add("gossip_hier_messages", g_hier.gossip_msgs)
      .Add("gossip_hier_relay_forwards", g_hier.relay_forwards)
      .Add("gossip_budget_messages", gossip_budget)
      .Add("gossip_budget_ok", gossip_budget_ok)
      .Add("aos_bytes_per_provider", mem_aos_pt.bytes_per_provider)
      .Add("pooled_bytes_per_provider", mem_pooled_pt.bytes_per_provider)
      .Add("memory_bytes_ratio", memory_ratio)
      .Add("memory_ratio_ok", memory_ratio_ok)
      .Add("million_arm_ran", million_ran)
      .Add("million_bytes_per_provider",
           million_ran ? million_pt.bytes_per_provider : 0.0)
      .Add("million_memory_ratio", million_ratio)
      .Add("million_peak_rss_mb", million_ran ? million_pt.peak_rss_mb : 0.0)
      .Add("million_completed", million_ran ? million_pt.completed : 0)
      .Add("million_ok", million_ok);

  std::string skipped_json;
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    if (i > 0) skipped_json += ", ";
    skipped_json += "\"" + skipped[i] + "\"";
  }

  bench::JsonObject report;
  report.Add("bench", "scale_sharding")
      .Add("fast_mode", FastBenchMode())
      .Add("hardware_threads", static_cast<std::uint64_t>(hw))
      .AddRaw("skipped_arms", "[" + skipped_json + "]")
      .AddRaw("rows", rows.ToString())
      .AddRaw("summary", summary.ToString());
  bench::WriteBenchJson("scale_sharding", report);

  auto path = EnsureOutputPath(ResultsDirectory(), "scale_sharding.csv");
  if (path.ok() && csv.WriteFile(path.value()).ok()) {
    std::printf("wrote %s\n", path.value().c_str());
  }

  // Flight-recorder artifacts of the fully-instrumented arm: the merged
  // metrics snapshot and the Perfetto/chrome://tracing span stream. CI
  // uploads both next to the bench JSON.
  auto metrics_path =
      EnsureOutputPath(ResultsDirectory(), "METRICS_scale_sharding.json");
  if (metrics_path.ok()) {
    std::ofstream out(metrics_path.value());
    if (out) {
      out << traced_result.run.metrics.ToJson() << "\n";
      std::printf("wrote %s\n", metrics_path.value().c_str());
    }
  }
  auto trace_path =
      EnsureOutputPath(ResultsDirectory(), "TRACE_scale_sharding.json");
  if (trace_path.ok()) {
    std::ofstream out(trace_path.value());
    if (out) {
      out << obs::ChromeTraceJson(traced_result.run.trace_spans, kShards)
          << "\n";
      std::printf("wrote %s\n", trace_path.value().c_str());
    }
  }

  return mono_parity && obs_transparent_pin && parallel_parity &&
                 thread_determinism && churn_parity &&
                 churn_repartitioned && chaos_zero_lost && chaos_parity &&
                 chaos_active && speedup8 >= 2.0 && pooled_parity &&
                 topo_parity && gossip_budget_ok && memory_ratio_ok &&
                 million_ok
             ? 0
             : 1;
}
