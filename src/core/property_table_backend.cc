#include "core/property_table_backend.h"

#include <map>

#include "common/macros.h"

namespace swan::core {

PropertyTableBackend::PropertyTableBackend(const rdf::Dataset& dataset,
                                           uint32_t width,
                                           storage::DiskConfig disk_config,
                                           size_t pool_pages)
    : RowBackend("prop_table", disk_config, pool_pages) {
  SWAN_CHECK(width >= 1);

  // The "design wizard": materialize the most frequent properties.
  const auto freqs = dataset.PropertyFrequencies();
  for (const auto& [prop, count] : freqs) {
    if (wide_props_.size() >= width) break;
    column_of_.emplace(prop, static_cast<uint32_t>(wide_props_.size()));
    wide_props_.push_back(prop);
  }

  // Split triples: first value per (subject, wide property) goes into the
  // wide table; the rest overflow.
  std::map<uint64_t, std::vector<uint64_t>> rows;  // subject -> columns
  std::vector<rdf::Triple> overflow;
  for (const rdf::Triple& t : dataset.triples()) {
    auto it = column_of_.find(t.property);
    if (it == column_of_.end()) {
      overflow.push_back(t);
      continue;
    }
    auto [row_it, inserted] = rows.try_emplace(t.subject);
    if (inserted) {
      row_it->second.assign(wide_props_.size(), kNull);
    }
    uint64_t& cell = row_it->second[it->second];
    if (cell == kNull) {
      cell = t.object;
    } else {
      overflow.push_back(t);  // multi-valued attribute
    }
  }

  const uint32_t row_width = static_cast<uint32_t>(wide_props_.size()) + 1;
  std::vector<uint64_t> flat;
  flat.reserve(rows.size() * row_width);
  for (const auto& [subject, cells] : rows) {
    flat.push_back(subject);
    flat.insert(flat.end(), cells.begin(), cells.end());
  }
  wide_ = std::make_unique<rowstore::SortedTable>(pool_, disk_,
                                                  row_width);
  wide_->BulkLoad(flat, rows.size());

  overflow_ = std::make_unique<rowstore::TripleRelation>(
      pool_, disk_, rowstore::TripleRelation::PsoConfig());
  overflow_->Load(overflow);
}

void PropertyTableBackend::ScanPattern(const rdf::TriplePattern& pattern,
                                       const TripleFn& fn) const {
  // Wide-table part.
  const bool property_is_wide =
      pattern.property && column_of_.count(*pattern.property) != 0;
  const bool property_in_overflow_only =
      pattern.property && !property_is_wide;

  if (!property_in_overflow_only) {
    auto emit_row = [&](std::span<const uint64_t> row) {
      const uint64_t subject = row[0];
      if (property_is_wide) {
        const uint32_t col = column_of_.at(*pattern.property);
        const uint64_t value = row[1 + col];
        if (value != kNull && (!pattern.object || *pattern.object == value)) {
          fn({subject, *pattern.property, value});
        }
        return;
      }
      for (uint32_t col = 0; col < wide_props_.size(); ++col) {
        const uint64_t value = row[1 + col];
        if (value == kNull) continue;
        if (pattern.object && *pattern.object != value) continue;
        fn({subject, wide_props_[col], value});
      }
    };
    if (pattern.subject) {
      // Clustered point access by subject.
      if (auto index = wide_->FindRow(*pattern.subject)) {
        auto cursor = wide_->SeekRow(*index);
        emit_row(cursor.row());
      }
    } else {
      for (auto cursor = wide_->Begin(); cursor.Valid(); cursor.Next()) {
        emit_row(cursor.row());
      }
    }
  }

  // Overflow part (always consulted: it holds rare properties and the
  // spill-over of multi-valued wide properties).
  for (auto scan = overflow_->Open(pattern); scan.Valid(); scan.Next()) {
    fn(scan.value());
  }
}

Status PropertyTableBackend::Insert(const rdf::Triple& triple) {
  // Duplicate check must consult the wide table too.
  rdf::TriplePattern exact;
  exact.subject = triple.subject;
  exact.property = triple.property;
  exact.object = triple.object;
  bool present = false;
  ScanPattern(exact, [&](const rdf::Triple&) { present = true; });
  if (present) return Status::AlreadyExists("triple already present");
  const bool inserted = overflow_->Insert(triple);
  SWAN_CHECK(inserted);
  return Status::OK();
}

}  // namespace swan::core
