#include "timed_method.h"

#include <algorithm>
#include <chrono>

#include "core/sqlb_method.h"

namespace perfbench {

std::int64_t NowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void ScoreStats::Merge(const ScoreStats& other) {
  calls += other.calls;
  queries += other.queries;
  seconds += other.seconds;
  if (candidates.size() < other.candidates.size()) {
    candidates.resize(other.candidates.size(), 0);
  }
  for (std::size_t k = 0; k < other.candidates.size(); ++k) {
    candidates[k] += other.candidates[k];
  }
}

double ScoreStats::CandidatesP50() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : candidates) total += n;
  if (total == 0) return 0.0;
  const std::uint64_t half = (total + 1) / 2;
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    seen += candidates[k];
    if (seen >= half) return static_cast<double>(k);
  }
  return static_cast<double>(candidates.size() - 1);
}

TimedMethod::TimedMethod(std::unique_ptr<sqlb::AllocationMethod> inner,
                         ScoreStats* stats)
    : inner_(std::move(inner)), stats_(stats) {}

void TimedMethod::Record(std::int64_t start, std::int64_t end,
                         std::size_t queries) {
  if (stats_->calls % ScoreStats::kSpanStride == 0) {
    stats_->spans.emplace_back(start, end);
  }
  ++stats_->calls;
  stats_->queries += queries;
  stats_->seconds += static_cast<double>(end - start) * 1e-9;
}

void TimedMethod::Count(std::size_t candidates) {
  if (stats_->candidates.size() <= candidates) {
    stats_->candidates.resize(candidates + 1, 0);
  }
  ++stats_->candidates[candidates];
}

sqlb::AllocationDecision TimedMethod::Allocate(
    const sqlb::AllocationRequest& request) {
  const std::int64_t start = NowNs();
  sqlb::AllocationDecision decision = inner_->Allocate(request);
  Record(start, NowNs(), 1);
  Count(request.candidates.size());
  return decision;
}

void TimedMethod::AllocateBatch(const sqlb::AllocationRequest* requests,
                                std::size_t count,
                                sqlb::AllocationDecision* decisions) {
  const std::int64_t start = NowNs();
  inner_->AllocateBatch(requests, count, decisions);
  Record(start, NowNs(), count);
  for (std::size_t i = 0; i < count; ++i) {
    Count(requests[i].candidates.size());
  }
}

sqlb::AllocationDecision TimedMethod::AllocateColumns(
    const sqlb::ColumnarRequest& request) {
  const std::int64_t start = NowNs();
  sqlb::AllocationDecision decision = inner_->AllocateColumns(request);
  Record(start, NowNs(), 1);
  Count(request.candidates->size());
  return decision;
}

void TimedMethod::AllocateBatchColumns(const sqlb::ColumnarRequest* requests,
                                       std::size_t count,
                                       sqlb::AllocationDecision* decisions) {
  const std::int64_t start = NowNs();
  inner_->AllocateBatchColumns(requests, count, decisions);
  Record(start, NowNs(), count);
  for (std::size_t i = 0; i < count; ++i) {
    Count(requests[i].candidates->size());
  }
}

sqlb::Service::MethodFactory MethodHub::Factory(bool timed) {
  if (!timed) {
    return [](std::uint32_t) { return std::make_unique<sqlb::SqlbMethod>(); };
  }
  return [this](std::uint32_t shard) -> std::unique_ptr<sqlb::AllocationMethod> {
    stats_.push_back(std::make_unique<ScoreStats>());
    stats_.back()->shard = shard;
    return std::make_unique<TimedMethod>(
        std::make_unique<sqlb::SqlbMethod>(), stats_.back().get());
  };
}

ScoreStats MethodHub::Total(std::size_t first, std::size_t end) const {
  ScoreStats total;
  for (std::size_t i = first; i < end && i < stats_.size(); ++i) {
    total.Merge(*stats_[i]);
  }
  return total;
}

}  // namespace perfbench
