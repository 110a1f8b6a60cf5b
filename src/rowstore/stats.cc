#include "rowstore/stats.h"

namespace swan::rowstore {

TripleStats TripleStats::Compute(std::span<const rdf::Triple> triples) {
  TripleStats stats;
  stats.total_triples = triples.size();
  stats.terms = rdf::TermCounts(triples);
  return stats;
}

double TripleStats::EstimateMatches(const rdf::TriplePattern& pattern) const {
  if (total_triples == 0) return 0.0;
  const double total = static_cast<double>(total_triples);
  double estimate = total;
  if (pattern.subject) {
    estimate *= static_cast<double>(terms.of(*pattern.subject).subject) / total;
  }
  if (pattern.property) {
    estimate *=
        static_cast<double>(terms.of(*pattern.property).property) / total;
  }
  if (pattern.object) {
    estimate *= static_cast<double>(terms.of(*pattern.object).object) / total;
  }
  return estimate;
}

}  // namespace swan::rowstore
