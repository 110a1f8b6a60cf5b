#include "serve/request.h"

#include <algorithm>

#include "common/macros.h"
#include "common/stats.h"

namespace swan::serve {

const char* ToString(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kBench:
      return "bench";
    case Request::Kind::kSparql:
      return "sparql";
    case Request::Kind::kInsert:
      return "insert";
    case Request::Kind::kDelete:
      return "delete";
  }
  return "?";
}

uint64_t ResultPayload::ApproxBytes() const {
  uint64_t bytes = sizeof(ResultPayload);
  for (const std::string& name : column_names) {
    bytes += sizeof(std::string) + name.size();
  }
  for (const std::vector<uint64_t>& row : rows) {
    bytes += sizeof(std::vector<uint64_t>) + row.size() * sizeof(uint64_t);
  }
  return bytes;
}

LatencyStats ModelSchedule(const std::vector<Completion>& completions,
                           int servers) {
  SWAN_CHECK(servers >= 1);
  LatencyStats stats;
  stats.requests = completions.size();
  if (completions.empty()) return stats;

  // Completions sorted into dispatch order; the FCFS model assigns them
  // to servers in exactly that order.
  std::vector<const Completion*> ordered;
  ordered.reserve(completions.size());
  for (const Completion& c : completions) ordered.push_back(&c);
  std::sort(ordered.begin(), ordered.end(),
            [](const Completion* a, const Completion* b) {
              return a->dispatch_index < b->dispatch_index;
            });

  std::vector<double> free_at(static_cast<size_t>(servers), 0.0);
  std::vector<double> latencies;
  latencies.reserve(ordered.size());
  double makespan = 0.0;
  for (const Completion* c : ordered) {
    if (c->cache_hit) ++stats.cache_hits;
    // Earliest-free server; ties go to the lowest index, so the schedule
    // is a pure function of the service-time sequence.
    size_t best = 0;
    for (size_t s = 1; s < free_at.size(); ++s) {
      if (free_at[s] < free_at[best]) best = s;
    }
    const double finish = free_at[best] + c->service_seconds;
    free_at[best] = finish;
    latencies.push_back(finish);
    makespan = std::max(makespan, finish);
  }
  std::sort(latencies.begin(), latencies.end());
  stats.makespan_seconds = makespan;
  stats.throughput_per_second =
      makespan > 0.0 ? static_cast<double>(stats.requests) / makespan : 0.0;
  stats.p50_seconds = NearestRank(latencies, 0.50);
  stats.p95_seconds = NearestRank(latencies, 0.95);
  stats.p99_seconds = NearestRank(latencies, 0.99);
  return stats;
}

}  // namespace swan::serve
