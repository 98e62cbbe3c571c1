#include "shard/parity.h"

namespace sqlb::shard {

// kStrict is the only mode, so the rule reads the shape alone.
Status ValidateParallelRun(ParityMode /*mode*/,
                           const ParallelRunShape& shape) {
  if (shape.reputation_feedback) {
    return Status::InvalidArgument(
        "parallel shard execution requires reputation_feedback off");
  }
  if (shape.num_shards > 1 && shape.rerouting_enabled) {
    return Status::InvalidArgument(
        "parallel shard execution requires rerouting disabled "
        "(rerouting_enabled = false) at more than one shard");
  }
  // Bit-identity needs state-disjoint lanes: one lane per consumer.
  if (shape.num_shards > 1 && shape.routing != RoutingPolicy::kLocality) {
    return Status::InvalidArgument(
        "strict-parity parallel execution requires consumer-affine "
        "(kLocality) routing");
  }
  return Status::OK();
}

}  // namespace sqlb::shard
