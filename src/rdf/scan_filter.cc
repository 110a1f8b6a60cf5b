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

uint64_t ScanFilter::wire_bytes() const {
  switch (kind_) {
    case Kind::kAll:
      return 0;
    case Kind::kIn:
      return ids_.size() * sizeof(uint64_t);
    case Kind::kIdSet:
      return marks_.universe() / 8;
  }
  return 0;
}

const ScanFilter& PatternFilter::Free(const TriplePattern& pattern,
                                      int c) const {
  static const ScanFilter kAll;
  const std::optional<uint64_t>& bound =
      c == 0 ? pattern.subject : (c == 1 ? pattern.property : pattern.object);
  return bound ? kAll : at(c);
}

std::vector<uint64_t> PartitionsToOpen(const TriplePattern& pattern,
                                       const PatternFilter& filter,
                                       std::span<const uint64_t> properties) {
  if (!filter.AdmitsConstants(pattern)) return {};
  if (pattern.property) return {*pattern.property};
  const ScanFilter& listed = filter.property;
  if (listed.kind() == ScanFilter::Kind::kIn) return listed.ids();
  std::vector<uint64_t> out;
  for (uint64_t p : properties) {
    if (listed.Passes(p)) out.push_back(p);
  }
  return out;
}

TriplePattern WithComponent(TriplePattern pattern, int c, uint64_t value) {
  (c == 0 ? pattern.subject : (c == 1 ? pattern.property : pattern.object)) =
      value;
  return pattern;
}

}  // namespace swan::rdf
