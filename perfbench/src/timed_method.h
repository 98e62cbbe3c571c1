#ifndef PERFBENCH_TIMED_METHOD_H_
#define PERFBENCH_TIMED_METHOD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/allocation.h"
#include "sqlb/service.h"

/// \file
/// The method seam, timed from outside: a benchmark-owned AllocationMethod
/// decorator that forwards every virtual to an inner SqlbMethod and times
/// each call. The program is unchanged; the decorator is handed to it
/// through Service::MethodFactory exactly like any other method.

namespace perfbench {

/// Nanoseconds on the steady clock since the benchmark process started. All
/// recorded spans share this epoch.
std::int64_t NowNs();

/// What the methods of one run saw: calls into the method, queries decided,
/// wall seconds spent inside the inner method, the candidate-count
/// distribution, and a sample of call spans for the trace file.
struct ScoreStats {
  std::uint64_t calls = 0;
  std::uint64_t queries = 0;
  double seconds = 0.0;
  /// candidates[k] = queries scored over k candidates.
  std::vector<std::uint64_t> candidates;
  /// Every kSpanStride-th call as (start, end) ns on the NowNs() clock.
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  /// The shard the method served (the trace file's thread lane).
  std::uint32_t shard = 0;

  static constexpr std::uint64_t kSpanStride = 64;

  void Merge(const ScoreStats& other);
  /// Median candidate count per scored query (0 when nothing was scored).
  double CandidatesP50() const;
};

/// Forwards every AllocationMethod virtual to `inner` and records, per call,
/// its wall time, the queries it decided and their candidate counts into
/// `stats`. One instance serves one shard, so one thread at a time.
class TimedMethod final : public sqlb::AllocationMethod {
 public:
  TimedMethod(std::unique_ptr<sqlb::AllocationMethod> inner,
              ScoreStats* stats);

  std::string name() const override { return inner_->name(); }
  sqlb::AllocationDecision Allocate(
      const sqlb::AllocationRequest& request) override;
  void AllocateBatch(const sqlb::AllocationRequest* requests,
                     std::size_t count,
                     sqlb::AllocationDecision* decisions) override;
  sqlb::AllocationDecision AllocateColumns(
      const sqlb::ColumnarRequest& request) override;
  void AllocateBatchColumns(const sqlb::ColumnarRequest* requests,
                            std::size_t count,
                            sqlb::AllocationDecision* decisions) override;
  sqlb::CandidateColumnNeeds RequiredColumns() const override {
    return inner_->RequiredColumns();
  }

 private:
  void Record(std::int64_t start, std::int64_t end, std::size_t queries);
  void Count(std::size_t candidates);

  std::unique_ptr<sqlb::AllocationMethod> inner_;
  ScoreStats* stats_;
};

/// Hands out the methods of a run and owns their ScoreStats, so the numbers
/// outlive the Service that owns the methods.
class MethodHub {
 public:
  /// A factory for Service::Create and Replay: a plain SqlbMethod when
  /// `timed` is false, a TimedMethod around one otherwise. The factory
  /// refers to this hub, which must outlive every Service built with it.
  sqlb::Service::MethodFactory Factory(bool timed);

  /// Number of methods handed out so far (a mark for Total).
  std::size_t size() const { return stats_.size(); }
  /// Sum over the methods handed out in [first, end).
  ScoreStats Total(std::size_t first, std::size_t end) const;
  /// Every method's stats, for the trace file.
  const std::vector<std::unique_ptr<ScoreStats>>& stats() const {
    return stats_;
  }

 private:
  std::vector<std::unique_ptr<ScoreStats>> stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_METHOD_H_
