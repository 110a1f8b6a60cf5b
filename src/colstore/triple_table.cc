#include "colstore/triple_table.h"

#include <algorithm>
#include <string>
#include <tuple>

#include "common/macros.h"

namespace swan::colstore {

TripleTable::TripleTable(storage::BufferPool* pool,
                         storage::SimulatedDisk* disk, rdf::TripleOrder order,
                         ColumnCodec codec)
    : order_(order),
      subj_(std::make_unique<Column>(pool, disk, codec)),
      prop_(std::make_unique<Column>(pool, disk, codec)),
      obj_(std::make_unique<Column>(pool, disk, codec)) {}

void TripleTable::Load(std::vector<rdf::Triple> triples) {
  SWAN_CHECK_MSG(size_ == 0, "TripleTable::Load called twice");
  SWAN_CHECK_MSG(triples.size() < (1ull << 32),
                 "column store limited to 2^32 rows");
  std::vector<std::array<uint64_t, 3>> keys(triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    keys[i] = KeyOf(triples[i], order_);
  }
  // A write-store merge hands over rows already in key order.
  if (!std::is_sorted(keys.begin(), keys.end())) rdf::SortKeys(&keys);
  size_ = keys.size();

  // Key position of each of subject, property, object.
  std::array<int, 3> position;
  const auto comp = ComponentsOf(order_);
  for (int i = 0; i < 3; ++i) position[comp[i]] = i;
  Column* const columns[3] = {subj_.get(), prop_.get(), obj_.get()};
  std::vector<uint64_t> buf(keys.size());
  for (int c = 0; c < 3; ++c) {
    for (size_t i = 0; i < keys.size(); ++i) buf[i] = keys[i][position[c]];
    columns[c]->Build(buf);
  }
}

const Column& TripleTable::column(int component_index) const {
  switch (component_index) {
    case 0:
      return *subj_;
    case 1:
      return *prop_;
    default:
      return *obj_;
  }
}

std::pair<uint32_t, uint32_t> TripleTable::PrimaryRange(uint64_t v) const {
  // Binary search on the encoded view: a cold PrimaryRange probe reads the
  // compressed column but never materializes it.
  const auto comp = ComponentsOf(order_);
  return EqRangeSorted(column(comp[0]).Encoded(), v);
}

std::pair<uint32_t, uint32_t> TripleTable::PrimarySecondaryRange(
    uint64_t v1, uint64_t v2) const {
  const auto comp = ComponentsOf(order_);
  // The second key column loads first, in its own statement, as in
  // MatchColumns: the order of the two cold loads is part of the pinned
  // virtual seconds, and argument evaluation order is unspecified.
  const EncodedColumn& second = column(comp[1]).Encoded();
  return EqRangeSorted2(column(comp[0]).Encoded(), second, v1, v2);
}

void TripleTable::DropCaches() const {
  subj_->DropCache();
  prop_->DropCache();
  obj_->DropCache();
}

uint64_t TripleTable::disk_bytes() const {
  return subj_->disk_bytes() + prop_->disk_bytes() + obj_->disk_bytes();
}

uint64_t TripleTable::resident_bytes() const {
  return subj_->resident_bytes() + prop_->resident_bytes() +
         obj_->resident_bytes();
}

uint64_t TripleTable::stored_bytes() const {
  return subj_->stored_bytes() + prop_->stored_bytes() + obj_->stored_bytes();
}

uint64_t TripleTable::logical_bytes() const {
  return subj_->logical_bytes() + prop_->logical_bytes() +
         obj_->logical_bytes();
}

void TripleTable::AuditInto(audit::AuditLevel level,
                            std::optional<uint64_t> max_valid_id,
                            audit::AuditReport* report) const {
  const std::string name = "triple_table(" + rdf::ToString(order_) + ")";
  const auto comp = ComponentsOf(order_);
  const Column* cols[3] = {subj_.get(), prop_.get(), obj_.get()};
  const char* role[3] = {"subject", "property", "object"};

  // Per-column checks. The physically-first sort component is a sorted
  // column by construction; the other two are only sorted within runs, so
  // no sortedness is declared for them.
  for (int i = 0; i < 3; ++i) {
    ColumnAuditOptions opts;
    opts.label = name + "." + role[i];
    opts.expect_sorted = (comp[0] == i);
    opts.max_valid_id = max_valid_id;
    cols[i]->AuditInto(level, opts, report);
    if (cols[i]->size() != size_) {
      report->Add(audit::FindingClass::kColumn, opts.label,
                  "column has " + std::to_string(cols[i]->size()) +
                      " values, table has " + std::to_string(size_) +
                      " rows");
    }
  }
  if (level == audit::AuditLevel::kQuick || size_ == 0) return;

  // Cross-column check: rows must be lexicographically sorted by order_.
  std::vector<uint64_t> vals[3];
  for (int i = 0; i < 3; ++i) {
    if (!cols[i]->AuditRead(name + "." + role[i], &vals[i], report)) return;
    if (vals[i].size() != size_) return;  // already reported above
  }
  const std::vector<uint64_t>& c1 = vals[comp[0]];
  const std::vector<uint64_t>& c2 = vals[comp[1]];
  const std::vector<uint64_t>& c3 = vals[comp[2]];
  for (uint64_t i = 1; i < size_; ++i) {
    const auto prev = std::make_tuple(c1[i - 1], c2[i - 1], c3[i - 1]);
    const auto cur = std::make_tuple(c1[i], c2[i], c3[i]);
    if (prev > cur) {
      report->Add(audit::FindingClass::kColumn, name,
                  "rows " + std::to_string(i - 1) + " and " +
                      std::to_string(i) +
                      " violate the declared lexicographic sort order");
      break;
    }
  }
}

}  // namespace swan::colstore
