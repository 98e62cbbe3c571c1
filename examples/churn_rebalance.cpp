// Churn + runtime re-partitioning: a mediator fleet that survives its
// providers leaving and returning.
//
// Runs an 8-shard fleet under a churn schedule that guts one shard — every
// provider the epoch-0 ring assigns to shard 0 leaves a third into the run
// and rejoins at two thirds — with ring rebalancing on. Watch the partition
// adapt to imbalance from *any* source: the very first rebalance tick
// already reweights the ring (the seed hash partition is lopsided — one
// shard draws ~4x the members of another), providers seal, drain their
// queues and hand their mediation state to the new owning shard at
// rebalance barriers, and the mid-run rejoiners land wherever the *current*
// ring epoch puts them, not where they started. A coda reruns the same
// scenario wall-clock-parallel under strict parity: the result is
// bit-identical, churn, reweighs and handoffs included.
//
//   $ ./build/churn_rebalance

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "core/sqlb_method.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

int main() {
  using namespace sqlb;

  // 1. The scenario: a steady near-capacity grid, strict-parity shape
  //    (consumer-affine routing, no rerouting) so the parallel coda can be
  //    compared bit for bit.
  shard::ShardedSystemConfig config;
  config.base.population.num_consumers = 100;
  config.base.population.num_providers = 200;
  config.base.workload = runtime::WorkloadSpec::Constant(0.9);
  config.base.duration = 600.0;
  config.base.stats_warmup = 100.0;
  config.base.seed = 7;

  config.router.num_shards = 8;
  config.router.policy = shard::RoutingPolicy::kLocality;
  config.rerouting_enabled = false;

  // 2. Re-partitioning on: every 30 simulated seconds the fleet checks the
  //    per-shard member counts and reweights the ring past a 1.5x
  //    imbalance.
  config.rebalance_enabled = true;
  config.rebalance_interval = 30.0;

  // 3. The churn script: shard 0's members (scheduled off the same ring
  //    geometry the system builds) all leave at t = 200 and rejoin at
  //    t = 400.
  config.base.provider_churn = shard::ShardChurnSchedule(
      config.router, /*shard=*/0, /*num_providers=*/200,
      /*leave_at=*/200.0, /*rejoin_at=*/400.0);

  Config service_config;
  service_config.mode = Mode::kSharded;
  service_config.sharded = config;
  const shard::ShardedRunResult result =
      Service::Create(service_config, [](std::uint32_t) {
        return std::make_unique<SqlbMethod>();
      })->Run();

  std::printf("method               : %s on %zu shards (%s routing)\n",
              result.run.method_name.c_str(), result.shards.size(),
              RoutingPolicyName(config.router.policy));
  std::printf("churn events         : %zu (leave+rejoin of shard 0's %llu "
              "members)\n",
              config.base.provider_churn.events.size(),
              static_cast<unsigned long long>(result.run.provider_joins));
  std::printf("queries issued       : %llu\n",
              static_cast<unsigned long long>(result.run.queries_issued));
  std::printf("queries completed    : %llu (infeasible %llu)\n",
              static_cast<unsigned long long>(result.run.queries_completed),
              static_cast<unsigned long long>(result.run.queries_infeasible));
  std::printf("mean response time   : %.2f s\n",
              result.run.response_time.mean());
  std::printf("ring epoch / reweighs: %llu / %llu\n",
              static_cast<unsigned long long>(result.ring_epoch),
              static_cast<unsigned long long>(result.ring_rebalances));
  std::printf("handoffs             : %llu started, %llu completed, %llu "
              "cancelled\n",
              static_cast<unsigned long long>(result.handoffs_started),
              static_cast<unsigned long long>(result.handoffs_completed),
              static_cast<unsigned long long>(result.handoffs_cancelled));
  std::printf("epoch-lagged reports : %llu (gossip still in flight when the "
              "ring moved)\n\n",
              static_cast<unsigned long long>(result.epoch_lagged_reports));

  // 4. The shard-tier view: migrations in/out and where the rejoiners
  //    landed.
  std::printf("shard  initial  in  out  joined  remaining  allocated\n");
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    const shard::ShardStats& stats = result.shards[s];
    std::printf("%5zu  %7zu  %2llu  %3llu  %6llu  %9zu  %9llu\n", s,
                stats.initial_providers,
                static_cast<unsigned long long>(stats.providers_in),
                static_cast<unsigned long long>(stats.providers_out),
                static_cast<unsigned long long>(stats.joined),
                stats.remaining_providers,
                static_cast<unsigned long long>(stats.allocated));
  }

  // 5. The parity coda: same scenario on worker threads, strict parity —
  //    churn, rebalances and handoffs must replay bit-identically.
  shard::ShardedSystemConfig parallel_config = config;
  parallel_config.worker_threads =
      std::max(2u, std::thread::hardware_concurrency());
  Config parallel_service_config;
  parallel_service_config.mode = Mode::kSharded;
  parallel_service_config.sharded = parallel_config;
  const shard::ShardedRunResult parallel =
      Service::Create(parallel_service_config, [](std::uint32_t) {
        return std::make_unique<SqlbMethod>();
      })->Run();

  const bool identical =
      parallel.run.queries_issued == result.run.queries_issued &&
      parallel.run.queries_completed == result.run.queries_completed &&
      parallel.run.response_time.mean() == result.run.response_time.mean() &&
      parallel.ring_epoch == result.ring_epoch &&
      parallel.handoffs_completed == result.handoffs_completed &&
      parallel.ownership_digests == result.ownership_digests;
  std::printf(
      "\nstrict-parity rerun on %zu worker threads: %s (issued %llu, "
      "completed %llu, epoch %llu, %llu handoffs)\n",
      parallel_config.worker_threads,
      identical ? "BIT-IDENTICAL" : "DIVERGED (bug!)",
      static_cast<unsigned long long>(parallel.run.queries_issued),
      static_cast<unsigned long long>(parallel.run.queries_completed),
      static_cast<unsigned long long>(parallel.ring_epoch),
      static_cast<unsigned long long>(parallel.handoffs_completed));
  return identical ? 0 : 1;
}
