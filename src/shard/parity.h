#ifndef SQLB_SHARD_PARITY_H_
#define SQLB_SHARD_PARITY_H_

#include <cstdint>

#include "common/status.h"
#include "shard/shard_router.h"

/// \file
/// The parity policy of the parallel mediation tier: which configurations
/// a wall-clock-parallel run admits.
///
/// The one contract is strict parity: a parallel run is bit-identical to
/// the serial run for a fixed seed at any thread count. That holds because
/// lanes are state-disjoint between barriers, by routing alone — no lane
/// takes a lock. It therefore requires
///
///   - consumer-affine (kLocality) routing at more than one shard, so one
///     lane owns every access to a consumer's agent state;
///   - re-routing off at more than one shard (a mid-epoch bounce would hand
///     a query to a lane that already drained past its time);
///   - reputation feedback off (completion-time reputation writes are read
///     by every shard's intention computation — a global coupling the
///     barrier merge does not cover).

namespace sqlb::shard {

enum class ParityMode : std::uint8_t {
  /// Parallel == serial, bit for bit. Requires consumer-affine routing.
  kStrict = 0,
};

/// What the parity policy needs to know about a run to admit it.
struct ParallelRunShape {
  std::size_t num_shards = 1;
  RoutingPolicy routing = RoutingPolicy::kHash;
  bool rerouting_enabled = false;
  bool reputation_feedback = false;
};

/// Validates `shape` against `mode`'s contract: OK, or InvalidArgument
/// naming the coupling the mode cannot execute correctly. The one home of
/// the rule — sqlb::Config::Validate() reports it, the sharded driver's
/// Run() aborts on it. Serial runs never consult it: every configuration
/// is serially executable.
Status ValidateParallelRun(ParityMode mode, const ParallelRunShape& shape);

}  // namespace sqlb::shard

#endif  // SQLB_SHARD_PARITY_H_
