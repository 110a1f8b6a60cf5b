#ifndef SWANDB_BENCH_SUPPORT_QUERY_BGPS_H_
#define SWANDB_BENCH_SUPPORT_QUERY_BGPS_H_

#include <string>
#include <vector>

#include "core/bgp.h"
#include "core/query.h"

namespace swan::bench_support {

// A benchmark query expressed as a basic graph pattern in *textual* order
// (the order a user would write it) — deliberately not the best join
// order, so planner comparisons have something to improve on.
struct NamedBgp {
  std::string name;            // "q1" ... "q8"
  std::vector<core::BgpPattern> patterns;
};

// BGP renderings of the paper's benchmark queries q1–q8 over the Barton
// vocabulary, shared by the optimizer conformance test and the planner
// ablation. These are the *pattern* structure of each query (the joins
// §2.2 classifies as A/B/C), not the aggregation wrapped around them:
//
//   q1  (?s type ?t)                       property scan
//   q2  (?s ?p ?o) (?s type Text)          A-join, unbound property
//   q3  (?s ?p ?o) (?s type Text)          same shape as q2 (q3 differs
//                                          only in its aggregate)
//   q4  (?s ?p ?o) (?s type Text)
//       (?s language french)               two selective A-join arms
//   q5  (?s origin dlc) (?s records ?o2)
//       (?o2 type ?t)                      A-join then B-join chain
//   q6  (?s records ?o2) (?o2 type Text)
//       (?s ?p ?o)                         chain plus unbound property
//   q7  (?s point "end") (?s encoding ?e)
//       (?s type ?t)                       same-subject star (gatherable)
//   q8  (conferences ?p1 ?o) (?s2 ?p2 ?o)  C-join (object-object)
std::vector<NamedBgp> BenchmarkBgps(const core::Vocabulary& vocab);

}  // namespace swan::bench_support

#endif  // SWANDB_BENCH_SUPPORT_QUERY_BGPS_H_
