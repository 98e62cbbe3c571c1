#ifndef SQLB_SHARD_PARITY_H_
#define SQLB_SHARD_PARITY_H_

#include <cstdint>

#include "common/status.h"
#include "shard/shard_router.h"

/// \file
/// The parity policy of the parallel mediation tier: what a wall-clock-
/// parallel run is allowed to diverge from its serial twin, and which
/// configurations each mode therefore admits.
///
/// Strict mode is PR 2's contract — a parallel run is bit-identical to the
/// serial run for a fixed seed at any thread count — which is only possible
/// when lanes are state-disjoint between barriers: consumer-affine
/// (kLocality) routing, no re-routing, no reputation feedback. Relaxed mode
/// trades bit-identity for policy freedom: load-aware routing (least-loaded,
/// hash) may spread one consumer across shards, with every lane-side
/// consumer access serialized through per-consumer sequence locks
/// (des/seqlock.h). The divergence is bounded, not open-ended:
///
///   - queries issued are identical to serial (arrivals are drawn on the
///     coordinator from the same RNG stream);
///   - every counter is conserved exactly — completions + infeasibles
///     still merge deterministically from the per-lane effect logs in
///     (time, lane, seq) order, none are lost or double-counted;
///   - only the *interleaving* of same-epoch, same-consumer mediations may
///     differ from serial, so per-consumer window state — and through it
///     response times and satisfaction — may drift within the epoch
///     length; tests/shard/parallel_execution_test.cc pins the resulting
///     aggregate tolerance.
///
/// Both modes still require reputation feedback off under parallel
/// execution (completion-time reputation writes are read by every shard's
/// intention computation — a global coupling neither mode's merge covers)
/// and re-routing off for M > 1 (a mid-epoch bounce would hand a query to
/// a lane that already drained past its time).

namespace sqlb::shard {

enum class ParityMode : std::uint8_t {
  /// Parallel == serial, bit for bit. Requires consumer-affine routing.
  kStrict = 0,
  /// Any routing policy; per-consumer sequence locks; bounded divergence.
  kRelaxed = 1,
};

/// "strict", "relaxed".
const char* ParityModeName(ParityMode mode);

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

/// True when a parallel run of this shape must route lane-side consumer
/// access through a SeqLockTable: relaxed mode with more than one shard.
/// (At M = 1 or under strict/affine routing one lane owns each consumer,
/// and the locks would be pure overhead. Relaxed mode locks even under
/// kLocality routing — the locks are semantically inert there, which is
/// exactly what the relaxed-affine bit-identity pin exercises.)
bool ParallelRunNeedsConsumerLocks(ParityMode mode,
                                   const ParallelRunShape& shape);

}  // namespace sqlb::shard

#endif  // SQLB_SHARD_PARITY_H_
