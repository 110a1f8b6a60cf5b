#include "rdf/scan_filter.h"

#include <algorithm>
#include <utility>

namespace swan::rdf {

MarkSet MarkSet::Widened(uint64_t universe_size) const {
  MarkSet out(std::max(universe_size, universe()));
  std::copy(bits_.begin(), bits_.end(), out.bits_.begin());
  return out;
}

ScanFilter ScanFilter::In(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ScanFilter f;
  f.kind_ = Kind::kIn;
  f.marks_ = MarkSet(ids.empty() ? 0 : ids.back() + 1);
  f.marks_.MarkAll(ids);
  f.ids_ = std::move(ids);
  return f;
}

ScanFilter ScanFilter::IdSet(MarkSet set) {
  ScanFilter f;
  f.kind_ = Kind::kIdSet;
  f.marks_ = std::move(set);
  return f;
}

const ScanFilter& PatternFilter::Free(const TriplePattern& pattern,
                                      int c) const {
  static const ScanFilter kAll;
  const std::optional<uint64_t>& bound =
      c == 0 ? pattern.subject : (c == 1 ? pattern.property : pattern.object);
  return bound ? kAll : at(c);
}

TriplePattern WithComponent(TriplePattern pattern, int c, uint64_t value) {
  (c == 0 ? pattern.subject : (c == 1 ? pattern.property : pattern.object)) =
      value;
  return pattern;
}

}  // namespace swan::rdf
