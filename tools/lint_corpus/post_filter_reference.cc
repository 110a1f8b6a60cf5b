// swan-lint-corpus-path: src/core/reference_backend.cc
// swan-lint corpus: the reference oracle answers Match by a plain scan and
// a post-filter by design — this file must produce NO findings, proving
// the rule is path-scoped.
#include "rdf/scan_filter.h"

namespace swan::core {

bool Keeps(const rdf::PatternFilter& filter, const rdf::Triple& t) {
  return filter.Passes(t);
}

}  // namespace swan::core
