#include "sqlb/service.h"

#include <string>
#include <utility>

namespace sqlb {

namespace {

/// The batching knobs shared by the sharded and serving tiers, checked
/// once. `tier` names the owner in the error message ("sharded"/"serving").
Status ValidateBatching(const char* tier, double batch_window,
                        const runtime::AdaptiveBatchConfig& adaptive) {
  const std::string prefix = std::string(tier) + " config: ";
  if (batch_window < 0.0) {
    return Status::InvalidArgument(prefix +
                                   "batch_window must be >= 0 seconds");
  }
  if (!adaptive.enabled) return Status::OK();
  if (adaptive.max_window <= 0.0) {
    return Status::InvalidArgument(
        prefix +
        "adaptive batching with a zero (or negative) max_window never "
        "coalesces anything; set adaptive_batch.max_window > 0 or disable "
        "adaptive_batch.enabled");
  }
  if (adaptive.min_window < 0.0 || adaptive.min_window > adaptive.max_window) {
    return Status::InvalidArgument(
        prefix +
        "adaptive batching needs 0 <= min_window <= max_window (got min " +
        std::to_string(adaptive.min_window) + ", max " +
        std::to_string(adaptive.max_window) + ")");
  }
  if (adaptive.target_burst <= 0.0 || adaptive.ewma_tau <= 0.0 ||
      adaptive.backlog_ref <= 0.0) {
    return Status::InvalidArgument(
        prefix +
        "adaptive batching needs positive target_burst, ewma_tau and "
        "backlog_ref (they divide the rate-matched window)");
  }
  return Status::OK();
}

/// Every scripted kill must name one of the mode's `num_shards` shards.
Status ValidateFaultShards(const char* mode, std::size_t num_shards,
                           const runtime::FaultSchedule& faults) {
  for (const runtime::ShardFaultEvent& event : faults.events) {
    if (event.shard >= num_shards) {
      return Status::InvalidArgument(
          std::string(mode) + " config: SystemConfig::shard_faults kills " +
          "shard " + std::to_string(event.shard) + ", but the mode runs " +
          std::to_string(num_shards) + " shard(s)");
    }
  }
  return Status::OK();
}

}  // namespace

Status Config::Validate() const {
  Status status = runtime::ValidateSystemConfig(scenario());
  if (!status.ok()) return status;

  switch (mode) {
    case Mode::kMono:
      status = ValidateFaultShards("mono", 1, scenario().shard_faults);
      if (!status.ok()) return status;
      break;

    case Mode::kSharded: {
      if (sharded.router.num_shards < 1) {
        return Status::InvalidArgument(
            "sharded config: router.num_shards must be >= 1");
      }
      if (sharded.max_route_attempts < 1) {
        return Status::InvalidArgument(
            "sharded config: max_route_attempts must be >= 1 (the first "
            "attempt is an attempt)");
      }
      if (sharded.gossip_enabled && sharded.gossip_interval <= 0.0) {
        return Status::InvalidArgument(
            "sharded config: gossip_interval must be positive when gossip "
            "is enabled");
      }
      if (sharded.rebalance_enabled && sharded.rebalance_interval <= 0.0) {
        return Status::InvalidArgument(
            "sharded config: rebalance_interval must be positive when "
            "rebalancing is enabled");
      }
      status = ValidateBatching("sharded", sharded.batch_window,
                                sharded.adaptive_batch);
      if (!status.ok()) return status;
      status = ValidateFaultShards("sharded", sharded.router.num_shards,
                                   scenario().shard_faults);
      if (!status.ok()) return status;
      if (sharded.worker_threads > 0) {
        status = shard::ValidateParallelRun(sharded.parity,
                                            shard::ParallelShapeOf(sharded));
        if (!status.ok()) return status;
      }
      break;
    }

    case Mode::kServing: {
      if (serving.shards < 1) {
        return Status::InvalidArgument(
            "serving config: shards must be >= 1");
      }
      if (serving.time_scale <= 0.0) {
        return Status::InvalidArgument(
            "serving config: time_scale must be positive (simulated "
            "seconds per wall second)");
      }
      if (serving.max_burst < 1) {
        return Status::InvalidArgument(
            "serving config: max_burst must be >= 1");
      }
      if (serving.housekeeping_interval <= 0.0) {
        return Status::InvalidArgument(
            "serving config: housekeeping_interval must be positive wall "
            "seconds");
      }
      if (serving.max_queued_per_shard < 1) {
        return Status::InvalidArgument(
            "serving config: max_queued_per_shard must be >= 1");
      }
      if (serving.mediator_threads < 1) {
        return Status::InvalidArgument(
            "serving config: mediator_threads must be >= 1");
      }
      if (serving.shards % serving.mediator_threads != 0) {
        return Status::InvalidArgument(
            "serving config: mediator_threads (" +
            std::to_string(serving.mediator_threads) +
            ") must divide shards (" + std::to_string(serving.shards) +
            ") evenly — each mediator thread owns a contiguous group of "
            "shards/mediator_threads shards");
      }
      status = ValidateBatching("serving", serving.batch_window,
                                serving.adaptive_batch);
      if (!status.ok()) return status;
      const runtime::DepartureConfig& dep = scenario().departures;
      if (dep.consumers_may_leave || dep.provider_dissatisfaction ||
          dep.provider_starvation || dep.provider_overutilization) {
        return Status::InvalidArgument(
            "serving mode has no departure-check clock; disable every "
            "SystemConfig::departures rule");
      }
      if (!scenario().provider_churn.events.empty()) {
        return Status::InvalidArgument(
            "serving mode does not script provider churn; clear "
            "SystemConfig::provider_churn");
      }
      if (!scenario().shard_faults.empty()) {
        return Status::InvalidArgument(
            "serving mode does not script shard faults; clear "
            "SystemConfig::shard_faults");
      }
      break;
    }
  }
  return Status::OK();
}

std::unique_ptr<Service> Service::Create(const Config& config,
                                         MethodFactory factory,
                                         Status* status) {
  Status valid = config.Validate();
  if (!valid.ok()) {
    if (status == nullptr) {
      SQLB_CHECK(false, valid.message().c_str());
    }
    *status = std::move(valid);
    return nullptr;
  }
  SQLB_CHECK(factory != nullptr, "Service needs a method factory");
  if (status != nullptr) *status = Status::OK();
  return std::unique_ptr<Service>(
      new Service(config, std::move(factory)));
}

Service::Service(Config config, MethodFactory factory)
    : config_(std::move(config)), factory_(std::move(factory)) {
  switch (config_.mode) {
    case Mode::kMono:
      // Built in Run(), so Create() under kMono only validates.
      break;
    case Mode::kSharded:
      sharded_ = std::make_unique<shard::ShardedMediationSystem>(
          config_.sharded, factory_);
      break;
    case Mode::kServing:
      serving_ = std::make_unique<runtime::ServingMediator>(
          config_.scenario(), config_.serving, factory_);
      break;
  }
}

Service::~Service() = default;

shard::ShardedRunResult Service::Run() {
  SQLB_CHECK(config_.mode != Mode::kServing,
             "Run() drives the simulation modes; serving uses "
             "Start/Submit/Drain/Stop");
  SQLB_CHECK(!ran_, "Run() may only be called once");
  ran_ = true;
  if (config_.mode == Mode::kMono) {
    // The paper's mono-mediator: the sharded driver at its defaults (one
    // shard, serial, unbatched) over the scenario.
    shard::ShardedSystemConfig mono;
    mono.base = config_.scenario();
    sharded_ = std::make_unique<shard::ShardedMediationSystem>(mono, factory_);
  }
  return sharded_->Run();
}

runtime::ServingProducer* Service::RegisterProducer() {
  SQLB_CHECK(config_.mode == Mode::kServing,
             "RegisterProducer is serving-mode only");
  return serving_->RegisterProducer();
}

void Service::Start() {
  SQLB_CHECK(config_.mode == Mode::kServing, "Start is serving-mode only");
  serving_->Start();
}

bool Service::Submit(runtime::ServingProducer* producer,
                     std::uint32_t consumer_index,
                     std::uint32_t class_index) {
  SQLB_CHECK(config_.mode == Mode::kServing, "Submit is serving-mode only");
  return serving_->Submit(producer, consumer_index, class_index);
}

std::size_t Service::SubmitMany(runtime::ServingProducer* producer,
                                const runtime::ServingRequest* requests,
                                std::size_t count) {
  SQLB_CHECK(config_.mode == Mode::kServing,
             "SubmitMany is serving-mode only");
  return serving_->SubmitMany(producer, requests, count);
}

void Service::Drain() {
  SQLB_CHECK(config_.mode == Mode::kServing, "Drain is serving-mode only");
  serving_->Drain();
}

runtime::ServingReport Service::Stop() {
  SQLB_CHECK(config_.mode == Mode::kServing, "Stop is serving-mode only");
  return serving_->Stop();
}

const runtime::ServingTrace& Service::trace() const {
  SQLB_CHECK(config_.mode == Mode::kServing, "trace is serving-mode only");
  return serving_->trace();
}

runtime::ServingReplayResult Service::Replay() const {
  SQLB_CHECK(config_.mode == Mode::kServing, "Replay is serving-mode only");
  return runtime::ReplayServingTrace(config_.scenario(), config_.serving,
                                     factory_, serving_->trace());
}

}  // namespace sqlb
