#include "shard/parity.h"

namespace sqlb::shard {

const char* ParityModeName(ParityMode mode) {
  switch (mode) {
    case ParityMode::kStrict:
      return "strict";
    case ParityMode::kRelaxed:
      return "relaxed";
  }
  return "?";
}

Status ValidateParallelRun(ParityMode mode, const ParallelRunShape& shape) {
  // Couplings no parity mode can merge away.
  if (shape.reputation_feedback) {
    return Status::InvalidArgument(
        "parallel shard execution requires reputation_feedback off");
  }
  if (shape.num_shards > 1 && shape.rerouting_enabled) {
    return Status::InvalidArgument(
        "parallel shard execution requires rerouting disabled "
        "(rerouting_enabled = false) at more than one shard");
  }
  // Strict bit-identity needs state-disjoint lanes: one lane per consumer.
  // Relaxed parity admits any routing policy: cross-shard consumer access
  // is serialized through the per-consumer sequence locks.
  if (mode == ParityMode::kStrict && shape.num_shards > 1 &&
      shape.routing != RoutingPolicy::kLocality) {
    return Status::InvalidArgument(
        "strict-parity parallel execution requires consumer-affine "
        "(kLocality) routing; use ParityMode::kRelaxed for load-aware "
        "policies");
  }
  return Status::OK();
}

bool ParallelRunNeedsConsumerLocks(ParityMode mode,
                                   const ParallelRunShape& shape) {
  return mode == ParityMode::kRelaxed && shape.num_shards > 1;
}

}  // namespace sqlb::shard
