#ifndef SWANDB_COLSTORE_TRIPLE_TABLE_H_
#define SWANDB_COLSTORE_TRIPLE_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "audit/audit.h"
#include "colstore/column.h"
#include "colstore/ops.h"
#include "rdf/triple.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"

namespace swan::colstore {

// The column-store triple-store: one relation of three columns, physically
// sorted in a chosen TripleOrder. With PSO ordering, the property column
// is a sorted run-length-friendly column, the equivalent of the paper's
// "column-stores with compression can achieve the same effect [as key-
// prefix compression] on the sorted property column" (§4.1).
//
// Columns load lazily and independently: a query touching only the
// property and object columns never reads the subject column — this is
// what makes the column-store triple-store's cold behaviour differ from a
// row store's.
class TripleTable {
 public:
  TripleTable(storage::BufferPool* pool, storage::SimulatedDisk* disk,
              rdf::TripleOrder order, ColumnCodec codec = ColumnCodec::kRaw);

  TripleTable(const TripleTable&) = delete;
  TripleTable& operator=(const TripleTable&) = delete;

  // Sorts `triples` by `order` (unless already in order) and builds the
  // three columns.
  void Load(std::vector<rdf::Triple> triples);

  // Role-named encoded views (each triggers a lazy load of that column
  // only): kernels execute on the compressed image.
  const EncodedColumn& encoded_subjects() const { return subj_->Encoded(); }
  const EncodedColumn& encoded_properties() const { return prop_->Encoded(); }
  const EncodedColumn& encoded_objects() const { return obj_->Encoded(); }

  // The stored column of a component (0 subject, 1 property, 2 object).
  const Column& column(int component_index) const;

  rdf::TripleOrder order() const { return order_; }
  uint64_t size() const { return size_; }

  // Row range where the physically-first sort component equals `v`
  // (binary search; for PSO order this is "all rows of property v").
  std::pair<uint32_t, uint32_t> PrimaryRange(uint64_t v) const;

  // Row range where the first two sort components equal (v1, v2).
  std::pair<uint32_t, uint32_t> PrimarySecondaryRange(uint64_t v1,
                                                      uint64_t v2) const;

  void DropCaches() const;
  uint64_t disk_bytes() const;
  // Sum of the loaded columns' resident_bytes().
  uint64_t resident_bytes() const;
  // Exact on-disk payload bytes (encoded) vs the full-width logical image.
  uint64_t stored_bytes() const;
  uint64_t logical_bytes() const;

  // Audit walker. Verifies each column structurally, then (at kFull)
  // re-reads all three from disk and checks that the rows are sorted
  // lexicographically by `order_` and that every id is below
  // `max_valid_id` (the owning dictionary's size) when provided.
  void AuditInto(audit::AuditLevel level, std::optional<uint64_t> max_valid_id,
                 audit::AuditReport* report) const;

 private:
  rdf::TripleOrder order_;
  uint64_t size_ = 0;
  std::unique_ptr<Column> subj_;
  std::unique_ptr<Column> prop_;
  std::unique_ptr<Column> obj_;
};

}  // namespace swan::colstore

#endif  // SWANDB_COLSTORE_TRIPLE_TABLE_H_
