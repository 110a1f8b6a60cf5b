// swan-lint-corpus-path: src/shard/bad_backend.cc
// Seeded corpus for the post-filter rule: a store that matches unfiltered
// and tests the whole triple afterwards. A per-position ScanFilter test
// does not fire; a write-store overlay with its allow does not either.
#include <vector>

#include "rdf/scan_filter.h"

namespace swan::shard {

std::vector<rdf::Triple> Kept(const std::vector<rdf::Triple>& part,
                              const rdf::PatternFilter& filter) {
  std::vector<rdf::Triple> out;
  for (const rdf::Triple& t : part) {
    if (filter.Passes(t)) out.push_back(t);  // expect(post-filter)
  }
  std::erase_if(out, [&](const rdf::Triple& t) {
    return !filter . Passes(t);  // expect(post-filter)
  });
  return out;
}

bool PropertyListed(const rdf::PatternFilter& filter, uint64_t p) {
  return filter.property.Passes(p);
}

bool Overlay(const rdf::PatternFilter& filter, const rdf::Triple& t) {
  // swan-lint: allow(post-filter)
  return filter.Passes(t);
}

}  // namespace swan::shard
