#include "core/sqlb_method.h"

#include "common/status.h"
#include "core/scoring.h"

namespace sqlb {

SqlbMethod::SqlbMethod(SqlbOptions options) : options_(options) {
  SQLB_CHECK(options_.epsilon > 0.0, "SQLB requires epsilon > 0");
  if (options_.fixed_omega.has_value()) {
    SQLB_CHECK(*options_.fixed_omega >= 0.0 && *options_.fixed_omega <= 1.0,
               "fixed omega must lie in [0, 1]");
  }
}

AllocationDecision SqlbMethod::Allocate(const AllocationRequest& request) {
  columns_.Clear();
  for (const CandidateProvider& p : request.candidates) columns_.Push(p);
  ColumnarRequest columnar;
  columnar.query = request.query;
  columnar.consumer_satisfaction = request.consumer_satisfaction;
  columnar.candidates = &columns_;
  return AllocateColumns(columnar);
}

AllocationDecision SqlbMethod::AllocateColumns(const ColumnarRequest& request) {
  SQLB_CHECK(request.query != nullptr && request.candidates != nullptr,
             "columnar request needs a query and candidates");
  const CandidateColumns& columns = *request.candidates;
  AllocationDecision decision;
  SqlbRankColumns(columns.provider_intention.data(),
                  columns.consumer_intention.data(),
                  columns.provider_satisfaction.data(), columns.size(),
                  request.consumer_satisfaction, options_.epsilon,
                  options_.fixed_omega.has_value() ? &*options_.fixed_omega
                                                   : nullptr,
                  SelectionCount(*request.query, columns.size()),
                  columns.willing, &index_scratch_, &decision.scores,
                  &decision.selected);
  return decision;
}

std::vector<double> SqlbMethod::Scores(const AllocationRequest& request) const {
  std::vector<double> scores;
  scores.reserve(request.candidates.size());
  for (const CandidateProvider& p : request.candidates) {
    const double omega =
        options_.fixed_omega.has_value()
            ? *options_.fixed_omega
            : OmegaBalance(request.consumer_satisfaction,
                           p.provider_satisfaction);
    scores.push_back(ProviderScore(p.provider_intention, p.consumer_intention,
                                   omega, options_.epsilon));
  }
  return scores;
}

}  // namespace sqlb
