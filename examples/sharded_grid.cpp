// Sharded grid: a mediator fleet over one provider population.
//
// Runs the Table-2-style scenario of examples/compute_grid.cpp on the
// sharded mediation tier instead of the mono-mediator: 8 mediators over a
// consistent-hash partition of 200 providers, least-loaded routing fed by
// periodic load-report gossip over the simulated network, and re-routing
// when a shard's candidate set is empty or saturated. Least-loaded routing
// runs serial only: a wall-clock-parallel run needs consumer-affine routing
// (examples/churn_rebalance.cpp shows one).
//
//   $ ./build/sharded_grid

#include <cstdio>
#include <memory>
#include <string>

#include "core/sqlb_method.h"
#include "runtime/scenario_engine.h"
#include "shard/sharded_mediation_system.h"
#include "sqlb/service.h"

int main() {
  using namespace sqlb;

  // 1. The scenario: same knobs as a mono-mediator run (the `base` field
  //    IS a SystemConfig), plus the shard-tier topology.
  shard::ShardedSystemConfig config;
  config.base.population.num_consumers = 100;
  config.base.population.num_providers = 200;
  config.base.workload = runtime::WorkloadSpec::Constant(0.85);
  config.base.duration = 600.0;
  config.base.stats_warmup = 100.0;
  config.base.seed = 7;

  config.router.num_shards = 8;
  config.router.policy = shard::RoutingPolicy::kLeastLoaded;
  config.router.report_staleness = 30.0;

  config.gossip_interval = 5.0;           // load reports every 5 s...
  config.gossip_latency = {0.01, 0.02};   // ...delivered 10-30 ms later
  config.rerouting_enabled = true;
  config.saturation_backlog_seconds = 20.0;  // bounce off drowning shards

  // 2. One allocation method instance per shard (they are stateful); the
  //    facade validates the config and builds the sharded driver.
  Config service_config;
  service_config.mode = Mode::kSharded;
  service_config.sharded = config;
  std::unique_ptr<Service> service = Service::Create(
      service_config,
      [](std::uint32_t) { return std::make_unique<SqlbMethod>(); });

  // 3. Run: Poisson arrivals -> router -> per-shard Algorithm 1 -> FIFO
  //    service, with gossip and departure checks on the same clock.
  const shard::ShardedRunResult result = service->Run();

  std::printf("method             : %s on %zu shards (%s routing)\n",
              result.run.method_name.c_str(), result.shards.size(),
              RoutingPolicyName(config.router.policy));
  std::printf("queries issued     : %llu\n",
              static_cast<unsigned long long>(result.run.queries_issued));
  std::printf("queries completed  : %llu\n",
              static_cast<unsigned long long>(result.run.queries_completed));
  std::printf("mean response time : %.2f s\n",
              result.run.response_time.mean());
  std::printf("gossip delivered   : %llu load reports\n",
              static_cast<unsigned long long>(result.gossip_delivered));
  std::printf("reroutes / rescues : %llu / %llu\n",
              static_cast<unsigned long long>(result.reroutes),
              static_cast<unsigned long long>(result.reroute_rescues));
  std::printf("route imbalance    : %.3f (1 = perfectly even)\n\n",
              result.RouteImbalance());

  // 4. The shard-tier view: who held which slice of the population and of
  //    the traffic.
  std::printf("shard  providers  routed  allocated  mean ut\n");
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    const shard::ShardStats& stats = result.shards[s];
    const auto* ut = result.run.series.Find(
        shard::ShardedMediationSystem::kSeriesShardUtPrefix +
        std::to_string(s));
    std::printf("%5zu  %9zu  %6llu  %9llu  %7.3f\n", s,
                stats.initial_providers,
                static_cast<unsigned long long>(stats.routed),
                static_cast<unsigned long long>(stats.allocated),
                ut != nullptr ? ut->MeanOver(100.0, config.base.duration)
                              : 0.0);
  }

  // 5. Aggregated quality metrics use the same series keys as the
  //    mono-mediator, so existing tooling reads sharded runs unchanged.
  const auto* allocsat = result.run.series.Find(
      runtime::ScenarioEngine::kSeriesConsAllocSatMean);
  std::printf("\nconsumer allocation satisfaction (final): %.3f\n",
              allocsat->samples.back().second);

  return 0;
}
