#include "bench_support/query_bgps.h"

#include <cstdio>
#include <fstream>

namespace swan::bench_support {

std::vector<NamedBgp> BenchmarkBgps(const core::Vocabulary& vocab) {
  using core::Term;
  const auto v = [](const char* name) { return Term::Var(name); };
  const auto c = [](uint64_t id) { return Term::Const(id); };

  std::vector<NamedBgp> out;
  out.push_back({"q1", {{v("s"), c(vocab.type), v("t")}}});
  out.push_back({"q2",
                 {{v("s"), v("p"), v("o")},
                  {v("s"), c(vocab.type), c(vocab.text)}}});
  out.push_back({"q3",
                 {{v("s"), v("p"), v("o")},
                  {v("s"), c(vocab.type), c(vocab.text)}}});
  out.push_back({"q4",
                 {{v("s"), v("p"), v("o")},
                  {v("s"), c(vocab.type), c(vocab.text)},
                  {v("s"), c(vocab.language), c(vocab.french)}}});
  out.push_back({"q5",
                 {{v("s"), c(vocab.origin), c(vocab.dlc)},
                  {v("s"), c(vocab.records), v("o2")},
                  {v("o2"), c(vocab.type), v("t")}}});
  out.push_back({"q6",
                 {{v("s"), c(vocab.records), v("o2")},
                  {v("o2"), c(vocab.type), c(vocab.text)},
                  {v("s"), v("p"), v("o")}}});
  out.push_back({"q7",
                 {{v("s"), c(vocab.point), c(vocab.end)},
                  {v("s"), c(vocab.encoding), v("e")},
                  {v("s"), c(vocab.type), v("t")}}});
  out.push_back({"q8",
                 {{c(vocab.conferences), v("p1"), v("o")},
                  {v("s2"), v("p2"), v("o")}}});
  return out;
}

bool PlanBaseline::AppliesTo(const BartonConfig& other) const {
  return other.target_triples == config.target_triples &&
         other.seed == config.seed &&
         other.num_properties == config.num_properties &&
         other.num_interesting == config.num_interesting;
}

// The file: '#' comment lines, one of them "# triples=N seed=S", a
// "backend,query,match_calls,cold_bytes" header, then one line per cell.
Result<PlanBaseline> LoadHeuristicPlanBaseline() {
  const std::string path =
      std::string(SWAN_BASELINE_DIR) + "/planner_heuristic_20k.csv";
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  PlanBaseline baseline;
  baseline.config.target_triples = 0;
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long a = 0, b = 0;
    char backend[64], query[16];
    if (line.starts_with('#')) {
      if (std::sscanf(line.c_str(), "# triples=%llu seed=%llu", &a, &b) == 2) {
        baseline.config.target_triples = a;
        baseline.config.seed = b;
      }
    } else if (std::sscanf(line.c_str(), "%63[^,],%15[^,],%llu,%llu", backend,
                           query, &a, &b) == 4) {
      baseline.cells[{backend, query}] = PinnedPlanCost{a, b};
    }
  }
  if (baseline.config.target_triples == 0 || baseline.cells.empty()) {
    return Status::Corruption(path + ": no config line or no cells");
  }
  return baseline;
}

}  // namespace swan::bench_support
