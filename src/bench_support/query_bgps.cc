#include "bench_support/query_bgps.h"

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

}  // namespace swan::bench_support
