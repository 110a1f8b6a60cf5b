#ifndef SWANDB_ROWSTORE_STATS_H_
#define SWANDB_ROWSTORE_STATS_H_

#include <cstdint>
#include <span>

#include "rdf/pattern.h"
#include "rdf/term_counts.h"
#include "rdf/triple.h"

namespace swan::rowstore {

// Optimizer statistics over a triple relation: the histograms a
// commercial row store ("DBX") keeps to pick between a clustered-index
// scan, a secondary-index range scan with row fetches, and a full scan.
struct TripleStats {
  uint64_t total_triples = 0;
  // Per-subject, per-property and per-object triple counts.
  rdf::TermCounts terms;

  static TripleStats Compute(std::span<const rdf::Triple> triples);

  // Counts one inserted triple.
  void Add(const rdf::Triple& triple) {
    ++total_triples;
    terms.Add(triple);
  }

  // Estimated number of triples matching `pattern`, using per-component
  // frequencies and an attribute-independence assumption — the textbook
  // System-R style estimate.
  double EstimateMatches(const rdf::TriplePattern& pattern) const;
};

}  // namespace swan::rowstore

#endif  // SWANDB_ROWSTORE_STATS_H_
