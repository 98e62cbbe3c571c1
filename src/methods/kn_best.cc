#include "methods/kn_best.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "core/scoring.h"

namespace sqlb {

KnBestMethod::KnBestMethod(KnBestOptions options)
    : options_(options), scorer_(options.sqlb) {
  SQLB_CHECK(options_.shortlist_fraction > 0.0 &&
                 options_.shortlist_fraction <= 1.0,
             "shortlist fraction must lie in (0, 1]");
}

AllocationDecision KnBestMethod::Allocate(const AllocationRequest& request) {
  const std::size_t count = request.candidates.size();
  const std::size_t n = SelectionCount(request);
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(options_.shortlist_fraction * static_cast<double>(count))),
      n, count);

  // Stage 1: SQLB scores, shortlist the K best.
  std::vector<double> scores = scorer_.Scores(request);
  std::vector<std::size_t> shortlist = SelectTopN(scores, k);

  // Stage 2: among the shortlist, take the n least utilized.
  std::sort(shortlist.begin(), shortlist.end(),
            [&request](std::size_t a, std::size_t b) {
              const double ua = request.candidates[a].utilization;
              const double ub = request.candidates[b].utilization;
              if (ua != ub) return ua < ub;
              return a < b;
            });
  shortlist.resize(n);

  AllocationDecision decision;
  decision.scores = std::move(scores);
  decision.selected = std::move(shortlist);
  return decision;
}

}  // namespace sqlb
