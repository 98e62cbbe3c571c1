#include "due_join.h"

#include <cstddef>

namespace perfbench {

bool JoinDueTimes(const std::vector<PresentedRequest>& requests,
                  const sqlb::runtime::ServingTrace& trace, double time_scale,
                  std::vector<double>* latency, std::string* error) {
  // Accepted request indices per consumer, in presentation order.
  std::vector<std::vector<std::size_t>> by_consumer;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].accepted) continue;
    const std::uint32_t c = requests[i].consumer;
    if (by_consumer.size() <= c) by_consumer.resize(c + 1);
    by_consumer[c].push_back(i);
    ++accepted;
  }
  if (trace.queries.size() != accepted) {
    *error = "trace holds " + std::to_string(trace.queries.size()) +
             " queries for " + std::to_string(accepted) +
             " accepted requests";
    return false;
  }

  latency->assign(requests.size(), 0.0);
  std::vector<std::size_t> next(by_consumer.size(), 0);
  std::size_t joined = 0;
  for (const sqlb::runtime::ServingBurst& burst : trace.bursts) {
    for (std::size_t q = burst.first; q < burst.first + burst.count; ++q) {
      const sqlb::Query& query = trace.queries[q];
      const std::uint32_t c = query.consumer.index();
      if (c >= by_consumer.size() || next[c] >= by_consumer[c].size()) {
        *error = "consumer " + std::to_string(c) +
                 " has more queries in the trace than requests";
        return false;
      }
      const PresentedRequest& request = requests[by_consumer[c][next[c]]];
      if (request.class_index != query.class_index) {
        *error = "consumer " + std::to_string(c) + " query " +
                 std::to_string(next[c]) + ": class differs from its request";
        return false;
      }
      (*latency)[by_consumer[c][next[c]]] =
          (request.submit_return - request.due) +
          (burst.flush_time - query.issue_time) / time_scale;
      ++next[c];
      ++joined;
    }
  }
  if (joined != accepted) {
    *error = "bursts cover " + std::to_string(joined) + " of " +
             std::to_string(accepted) + " queries";
    return false;
  }
  return true;
}

}  // namespace perfbench
