#include "core/allocation.h"

#include <algorithm>

#include "common/status.h"

namespace sqlb {

void CandidateColumns::Clear() { ResizeRequired(0); }

void CandidateColumns::ResizeRequired(std::size_t n) {
  ids.resize(n);
  consumer_intention.resize(n);
  provider_intention.resize(n);
  provider_satisfaction.resize(n);
  utilization.clear();
  capacity.clear();
  backlog_seconds.clear();
  bid_price.clear();
  estimated_delay.clear();
  willing.clear();
}

void CandidateColumns::Reserve(std::size_t n) {
  ids.reserve(n);
  consumer_intention.reserve(n);
  provider_intention.reserve(n);
  provider_satisfaction.reserve(n);
  utilization.reserve(n);
  capacity.reserve(n);
  backlog_seconds.reserve(n);
  bid_price.reserve(n);
  estimated_delay.reserve(n);
  willing.reserve(n);
}

void CandidateColumns::Push(const CandidateProvider& candidate) {
  if (candidate.provider_intention > 0.0 &&
      candidate.consumer_intention > 0.0) {
    willing.push_back(static_cast<std::uint32_t>(ids.size()));
  }
  ids.push_back(candidate.id);
  consumer_intention.push_back(candidate.consumer_intention);
  provider_intention.push_back(candidate.provider_intention);
  provider_satisfaction.push_back(candidate.provider_satisfaction);
  utilization.push_back(candidate.utilization);
  capacity.push_back(candidate.capacity);
  backlog_seconds.push_back(candidate.backlog_seconds);
  bid_price.push_back(candidate.bid_price);
  estimated_delay.push_back(candidate.estimated_delay);
}

CandidateProvider CandidateColumns::At(std::size_t i) const {
  SQLB_CHECK(i < ids.size(), "candidate column index out of range");
  CandidateProvider candidate;
  candidate.id = ids[i];
  candidate.consumer_intention = consumer_intention[i];
  candidate.provider_intention = provider_intention[i];
  candidate.provider_satisfaction = provider_satisfaction[i];
  // The optional columns may be unmaterialized (a gather honouring a
  // narrowed CandidateColumnNeeds mask leaves them empty): keep the AoS
  // defaults then, so a method that narrowed its mask but still routes
  // through the materializing adapter reads defined values, not past the
  // end of an empty vector.
  if (i < utilization.size()) candidate.utilization = utilization[i];
  if (i < capacity.size()) candidate.capacity = capacity[i];
  if (i < backlog_seconds.size()) {
    candidate.backlog_seconds = backlog_seconds[i];
  }
  if (i < bid_price.size()) candidate.bid_price = bid_price[i];
  if (i < estimated_delay.size()) {
    candidate.estimated_delay = estimated_delay[i];
  }
  return candidate;
}

std::size_t SelectionCount(const AllocationRequest& request) {
  SQLB_CHECK(request.query != nullptr, "allocation request without a query");
  return std::min<std::size_t>(request.query->n, request.candidates.size());
}

std::size_t SelectionCount(const Query& query, std::size_t n_candidates) {
  return std::min<std::size_t>(query.n, n_candidates);
}

void AllocationMethod::AllocateBatch(const AllocationRequest* requests,
                                     std::size_t count,
                                     AllocationDecision* decisions) {
  for (std::size_t i = 0; i < count; ++i) {
    decisions[i] = Allocate(requests[i]);
  }
}

AllocationDecision AllocationMethod::AllocateColumns(
    const ColumnarRequest& request) {
  SQLB_CHECK(request.candidates != nullptr,
             "columnar request without candidates");
  const CandidateColumns& columns = *request.candidates;
  aos_scratch_.query = request.query;
  aos_scratch_.consumer_satisfaction = request.consumer_satisfaction;
  aos_scratch_.candidates.clear();
  aos_scratch_.candidates.reserve(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    aos_scratch_.candidates.push_back(columns.At(i));
  }
  return Allocate(aos_scratch_);
}

void AllocationMethod::AllocateBatchColumns(const ColumnarRequest* requests,
                                            std::size_t count,
                                            AllocationDecision* decisions) {
  for (std::size_t i = 0; i < count; ++i) {
    decisions[i] = AllocateColumns(requests[i]);
  }
}

}  // namespace sqlb
