#include "methods/sqlb_economic.h"

#include <algorithm>

#include "common/status.h"
#include "core/scoring.h"

namespace sqlb {

SqlbEconomicMethod::SqlbEconomicMethod(SqlbEconomicOptions options)
    : options_(options), scorer_(options.sqlb) {
  SQLB_CHECK(options_.price_weight >= 0.0, "price weight must be >= 0");
  SQLB_CHECK(options_.load_factor >= 0.0, "load factor must be >= 0");
}

AllocationDecision SqlbEconomicMethod::Allocate(
    const AllocationRequest& request) {
  AllocationDecision decision;
  decision.scores = scorer_.Scores(request);

  // Normalize effective prices to [0, 1] over this candidate set so the
  // discount is scale-free, then re-rank.
  double max_price = 0.0;
  std::vector<double> price(request.candidates.size());
  for (std::size_t i = 0; i < request.candidates.size(); ++i) {
    const CandidateProvider& p = request.candidates[i];
    price[i] = p.bid_price * (1.0 + options_.load_factor *
                                        std::max(0.0, p.backlog_seconds));
    max_price = std::max(max_price, price[i]);
  }
  if (max_price > 0.0) {
    for (std::size_t i = 0; i < decision.scores.size(); ++i) {
      decision.scores[i] -= options_.price_weight * price[i] / max_price;
    }
  }
  decision.selected = SelectTopN(decision.scores, SelectionCount(request));
  return decision;
}

}  // namespace sqlb
