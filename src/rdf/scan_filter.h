#ifndef SWANDB_RDF_SCAN_FILTER_H_
#define SWANDB_RDF_SCAN_FILTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rdf/pattern.h"
#include "rdf/triple.h"

namespace swan::rdf {

// Dense bitmap over dictionary ids, the stores' O(1) membership structure
// (MonetDB would use a void-headed BAT the same way). Packed 64 ids per
// word: an 800k-id universe fits in ~100 KB and stays cache resident while
// probe columns stream past it. Mark is not atomic — build the set before
// fanning out; Test-only use is safe to share across ParallelFor chunks.
class MarkSet {
 public:
  explicit MarkSet(uint64_t universe_size)
      : bits_((universe_size + 63) / 64, 0) {}

  void MarkAll(std::span<const uint64_t> values) {
    for (uint64_t v : values) Mark(v);
  }
  void Mark(uint64_t v) { bits_[v >> 6] |= 1ull << (v & 63); }
  // `v` must be below universe(): the kernels' unchecked probe.
  bool Test(uint64_t v) const { return (bits_[v >> 6] >> (v & 63)) & 1u; }
  // Any id; false past the universe.
  bool Contains(uint64_t v) const {
    return (v >> 6) < bits_.size() && Test(v);
  }
  // Ids below this bound can be tested (a multiple of 64).
  uint64_t universe() const { return bits_.size() * 64; }
  // The same marks over a universe of at least `universe_size` ids.
  MarkSet Widened(uint64_t universe_size) const;

 private:
  std::vector<uint64_t> bits_;
};

// What one position of a scanned pattern must hold for a triple to be
// returned, typed after ClickHouse's ColumnFilter kinds: always true, an
// IN-list of dictionary ids (a SPARQL `=`/`IN` filter the planner pushed
// into the scan), or an id set (the subjects a scan-join's binding table
// holds). A store applies it where it is cheapest: a listed property picks
// partitions or PSO ranges, a listed leading key value a B+tree prefix,
// and anything else a selection inside the scan before any triple is
// materialized.
class ScanFilter {
 public:
  enum class Kind { kAll, kIn, kIdSet };

  ScanFilter() = default;  // always true
  // The ids are sorted and deduplicated; an empty list matches nothing.
  static ScanFilter In(std::vector<uint64_t> ids);
  static ScanFilter IdSet(MarkSet set);

  Kind kind() const { return kind_; }
  bool all() const { return kind_ == Kind::kAll; }
  // kIn only: the listed ids, ascending and distinct.
  const std::vector<uint64_t>& ids() const { return ids_; }
  // kIn and kIdSet: the admitted ids as a bitmap (a list's covers its
  // largest id).
  const MarkSet& marks() const { return marks_; }

  bool Passes(uint64_t id) const {
    return kind_ == Kind::kAll || marks_.Contains(id);
  }
  // Bytes the filter takes on the wire: 8 per listed id, the bitmap's
  // bytes for an id set, none when always true.
  uint64_t wire_bytes() const;

 private:
  Kind kind_ = Kind::kAll;
  std::vector<uint64_t> ids_;
  MarkSet marks_{0};
};

// One ScanFilter per pattern position: Backend::Match returns the triples
// that match the pattern and pass all three. Default: no restriction.
struct PatternFilter {
  ScanFilter subject;
  ScanFilter property;
  ScanFilter object;

  // Component c: 0 = subject, 1 = property, 2 = object.
  const ScanFilter& at(int c) const {
    return c == 0 ? subject : (c == 1 ? property : object);
  }
  bool all() const { return subject.all() && property.all() && object.all(); }
  bool Passes(const Triple& t) const {
    return subject.Passes(t.subject) && property.Passes(t.property) &&
           object.Passes(t.object);
  }
  // Whether the pattern's constants pass their positions' filters: when
  // one does not, no triple can match.
  bool AdmitsConstants(const TriplePattern& pattern) const {
    return (!pattern.subject || subject.Passes(*pattern.subject)) &&
           (!pattern.property || property.Passes(*pattern.property)) &&
           (!pattern.object || object.Passes(*pattern.object));
  }
  // The filter a scan still has to apply at component c: none where the
  // pattern binds c (AdmitsConstants settled it).
  const ScanFilter& Free(const TriplePattern& pattern, int c) const;
};

// The properties whose partitions a vertically partitioned store opens
// to answer `pattern` under `filter`, ascending: none when a constant
// fails its filter, else the bound property, else the ids of a property
// IN-list, else those of `properties` (the store's, ascending) that pass
// the property filter. A bound or listed property may have no partition.
std::vector<uint64_t> PartitionsToOpen(const TriplePattern& pattern,
                                       const PatternFilter& filter,
                                       std::span<const uint64_t> properties);

// `pattern` with component c (0 = subject, 1 = property, 2 = object) bound
// to `value`: one listed value of a filter turned into a constant.
TriplePattern WithComponent(TriplePattern pattern, int c, uint64_t value);

}  // namespace swan::rdf

#endif  // SWANDB_RDF_SCAN_FILTER_H_
