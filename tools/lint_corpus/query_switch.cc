// swan-lint-corpus-path: src/core/bad_engine.cc
// Seeded corpus for the query-switch rule: an engine outside the q1–q8
// skeleton that spells the 12 queries out again, case by case. Both ways
// of naming the query fire; a switch over anything else does not.
#include "core/query.h"

namespace swan::core {

int ByFamily(QueryId id) {
  switch (BaseOf(id)) {  // expect(query-switch)
    default:
      return 0;
  }
}

int ByQuery(QueryId id) {
  switch (id) {  // expect(query-switch)
    // The star variants share their base query's plan.
    case QueryId::kQ2Star:
      return 2;
    default:
      return 0;
  }
}

int Qualified(QueryId id) {
  switch (  // expect(query-switch)
      id) {
    case core::QueryId::kQ8: return 8;
    default: return 0;
  }
}

enum class Shape { kStar, kChain };

int NotAQuery(Shape shape) {
  switch (shape) {
    case Shape::kStar:
      return 1;
    case Shape::kChain:
      return 2;
  }
  return 0;
}

int Suppressed(QueryId id) {
  // swan-lint: allow(query-switch)
  switch (id) {
    case QueryId::kQ1: return 1;
    default: return 0;
  }
}

}  // namespace swan::core
