#ifndef SQLB_SQLB_SERVICE_H_
#define SQLB_SQLB_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/status.h"
#include "core/allocation.h"
#include "runtime/scenario.h"
#include "runtime/serving_mediator.h"
#include "shard/sharded_mediation_system.h"

/// \file
/// The one public facade over the two mediation drivers. Everything an
/// application needs is here: pick a Mode, fill a Config, Create() a
/// Service, and either Run() the scenario to completion (simulation modes)
/// or Start()/Submit()/Drain()/Stop() it (serving mode). Examples and
/// benches construct systems through this header; the driver classes behind
/// it (shard::ShardedMediationSystem for both simulation modes,
/// runtime::ServingMediator) stay public for tests and for callers that
/// need driver-specific introspection.
///
/// Config::Validate() is the unified config check: one code path that
/// covers the scenario config (runtime::ValidateSystemConfig), the batching
/// knobs shared by the sharded and serving tiers, and the per-mode
/// constraints — returning actionable InvalidArgument messages instead of
/// scattering asserts across the drivers.

namespace sqlb {

/// Which driver a Service wraps.
enum class Mode {
  /// One mediator, the paper's Section 6 setup: the sharded DES driver at
  /// its ShardedSystemConfig defaults (one shard, serial, unbatched) over
  /// `Config::scenario()`. Every other `Config::sharded` field is ignored.
  kMono,
  /// M mediators over a consistent-hash provider partition, DES-pumped
  /// (shard/sharded_mediation_system.h).
  kSharded,
  /// Wall-clock serving: real threads submit through lock-free intake
  /// queues; the DES is the replay oracle (runtime/serving_mediator.h).
  kServing,
};

/// Everything any mode needs. `sharded.base` is the scenario itself
/// (population, workload, agents, seed) and is the part every mode reads;
/// the rest of `sharded` applies to kSharded only, `serving` to kServing.
struct Config {
  Mode mode = Mode::kMono;
  shard::ShardedSystemConfig sharded;
  runtime::ServingConfig serving;

  /// The scenario config every mode shares (alias for sharded.base).
  runtime::SystemConfig& scenario() { return sharded.base; }
  const runtime::SystemConfig& scenario() const { return sharded.base; }

  /// The unified config check. OK, or InvalidArgument explaining exactly
  /// which knob is wrong and what it needs to be.
  Status Validate() const;
};

/// A configured mediation service. Create() -> (Run() | serving lifecycle).
class Service {
 public:
  /// Fresh method instance per shard (kMono calls it once, with shard 0).
  using MethodFactory =
      std::function<std::unique_ptr<AllocationMethod>(std::uint32_t shard)>;

  /// Validates `config` and builds the mode's driver (kMono defers that to
  /// Run()). On an invalid config: stores the error in `*status` and
  /// returns nullptr when `status` is given, aborts with the validation
  /// message otherwise.
  static std::unique_ptr<Service> Create(const Config& config,
                                         MethodFactory factory,
                                         Status* status = nullptr);
  ~Service();

  Mode mode() const { return config_.mode; }
  const Config& config() const { return config_; }

  // --- Simulation modes (kMono, kSharded) ----------------------------------

  /// Executes the configured scenario to completion and returns the result.
  /// Call once. Both modes run the sharded DES driver, so a kMono result is
  /// a one-shard ShardedRunResult.
  shard::ShardedRunResult Run();

  /// The simulation modes' driver, for read-only introspection (e.g. a
  /// shard's core membership after the run). Null in serving mode, and in
  /// kMono until Run() builds it.
  const shard::ShardedMediationSystem* sharded_system() const {
    return sharded_.get();
  }

  // --- Serving mode (kServing) ---------------------------------------------

  /// Registers one producer thread; call before Start().
  runtime::ServingProducer* RegisterProducer();
  /// Launches the mediator thread and the wall clock.
  void Start();
  /// Submits one query request from `producer`'s thread. False = shed by
  /// intake backpressure.
  bool Submit(runtime::ServingProducer* producer, std::uint32_t consumer_index,
              std::uint32_t class_index);
  /// Batched submission: presents `requests[0..count)` in order with one
  /// intake reservation per same-shard run (see
  /// runtime::ServingMediator::SubmitMany). Returns the accepted prefix
  /// length; the remainder was shed.
  std::size_t SubmitMany(runtime::ServingProducer* producer,
                         const runtime::ServingRequest* requests,
                         std::size_t count);
  /// Blocks until every accepted submission has been mediated. Call after
  /// the producers stopped submitting.
  void Drain();
  /// Stops the mediator, flushes the remaining intake, and finalizes.
  runtime::ServingReport Stop();
  /// The recorded replay trace (stable after Stop()).
  const runtime::ServingTrace& trace() const;
  /// Replays trace() through the DES with an identically-built system and
  /// returns the replay's decision log and RunResult (the replay-oracle
  /// comparison, see ReplayServingTrace). Call after Stop().
  runtime::ServingReplayResult Replay() const;

 private:
  Service(Config config, MethodFactory factory);

  Config config_;
  MethodFactory factory_;
  /// At most one of these is live: `sharded_` for the simulation modes
  /// (built by Run() under kMono), `serving_` for kServing.
  std::unique_ptr<shard::ShardedMediationSystem> sharded_;
  std::unique_ptr<runtime::ServingMediator> serving_;
  bool ran_ = false;
};

}  // namespace sqlb

#endif  // SQLB_SQLB_SERVICE_H_
