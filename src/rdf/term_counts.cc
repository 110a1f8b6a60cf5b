#include "rdf/term_counts.h"

#include <algorithm>

namespace swan::rdf {

namespace {

uint64_t MaxId(const Triple& t) {
  return std::max({t.subject, t.property, t.object});
}

}  // namespace

TermCounts::TermCounts(std::span<const Triple> triples) {
  if (triples.empty()) return;
  uint64_t max_id = 0;
  for (const Triple& t : triples) max_id = std::max(max_id, MaxId(t));
  roles_.resize(max_id + 1);
  for (const Triple& t : triples) Count(t);
}

void TermCounts::Add(const Triple& t) {
  const uint64_t max_id = MaxId(t);
  if (max_id >= roles_.size()) {
    // Geometric growth: a run of fresh ids costs amortised O(1) each.
    roles_.reserve(std::max<uint64_t>(max_id + 1, 2 * roles_.size()));
    roles_.resize(max_id + 1);
  }
  Count(t);
}

}  // namespace swan::rdf
