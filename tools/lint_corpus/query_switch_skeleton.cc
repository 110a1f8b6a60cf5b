// swan-lint-corpus-path: src/core/phased_backend.cc
// swan-lint corpus: the q1–q8 skeleton is where the one switch over the
// queries lives — this file must produce NO findings, proving the rule is
// path-scoped.
#include "core/query.h"

namespace swan::core {

int Skeleton(QueryId id) {
  switch (BaseOf(id)) {
    case QueryId::kQ1:
      return 1;
    default:
      return 0;
  }
}

}  // namespace swan::core
