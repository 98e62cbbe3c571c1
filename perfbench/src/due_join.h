#ifndef PERFBENCH_DUE_JOIN_H_
#define PERFBENCH_DUE_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/serving_mediator.h"

/// \file
/// Decision latency measured from when a request was due, not from when it
/// was enqueued. The generator knows when each request was due and when its
/// Submit returned; the recorded ServingTrace knows when each query was
/// issued and when its burst was flushed (in simulated seconds). With one
/// producer, consumer c's k-th query in the trace is consumer c's k-th
/// accepted request: c always routes to the same shard, and a shard's
/// intake is FIFO.

namespace perfbench {

/// One request as the generator presented it. Times are seconds on the
/// generator's clock.
struct PresentedRequest {
  std::uint32_t consumer = 0;
  std::uint32_t class_index = 0;
  /// When the schedule said the request was due.
  double due = 0.0;
  /// When the Submit/SubmitMany call that carried it returned.
  double submit_return = 0.0;
  /// False when intake refused it (it never reached the trace).
  bool accepted = true;
};

/// For every accepted request, in presentation order:
///   (submit_return - due) + (burst flush_time - query issue_time) / time_scale
/// i.e. the wall seconds from the due time to the allocation decision.
/// Returns false with `error` set when trace and requests do not match one
/// to one (a consumer's query count or query classes differ).
bool JoinDueTimes(const std::vector<PresentedRequest>& requests,
                  const sqlb::runtime::ServingTrace& trace, double time_scale,
                  std::vector<double>* latency, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_DUE_JOIN_H_
