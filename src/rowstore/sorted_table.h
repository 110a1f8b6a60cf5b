#ifndef SWANDB_ROWSTORE_SORTED_TABLE_H_
#define SWANDB_ROWSTORE_SORTED_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "common/macros.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"

namespace swan::rowstore {

// Read-only table of fixed-width uint64 rows, stored sorted by the first
// column and accessed by binary search or sequential scan. This is the
// storage for the property-table scheme's wide "flattened" table: rows
// keyed by subject with one column per materialized property.
//
// Unlike BPlusTree, the row width is a runtime value (property tables are
// as wide as the property set chosen by the design wizard).
class SortedTable {
 public:
  SortedTable(storage::BufferPool* pool, storage::SimulatedDisk* disk,
              uint32_t row_width);

  SortedTable(const SortedTable&) = delete;
  SortedTable& operator=(const SortedTable&) = delete;

  // `flat` is row-major, row_count * row_width values, sorted by column 0
  // with unique keys. May only be called once.
  void BulkLoad(std::span<const uint64_t> flat, uint64_t row_count);

  uint64_t row_count() const { return row_count_; }
  uint32_t row_width() const { return row_width_; }
  uint64_t disk_bytes() const {
    return static_cast<uint64_t>(file_.page_count()) * storage::kPageSize;
  }

  // Index of the row whose column 0 equals `key`, if any. O(log n) page
  // accesses through the buffer pool.
  std::optional<uint64_t> FindRow(uint64_t key) const;

  // Walks rows [first, row_count()) a page at a time: calls fn(rows, n)
  // with the next n rows of one page, row-major at row_width() values
  // each, until fn returns false or the table ends. The rows are valid
  // only during the call; each page is fetched once, while its
  // predecessor is still pinned.
  template <typename Fn>
  void Walk(uint64_t first, const Fn& fn) const {
    SWAN_CHECK_MSG(built_, "SortedTable not loaded");
    const uint64_t rows_per_page = RowsPerPage();
    uint64_t values[storage::kPageSize / sizeof(uint64_t)] = {};
    storage::PageGuard guard;
    for (uint64_t row = first; row < row_count_;) {
      const uint32_t page_no = static_cast<uint32_t>(row / rows_per_page);
      const uint64_t slot = row % rows_per_page;
      const uint64_t n = std::min(rows_per_page - slot, row_count_ - row);
      storage::PageGuard next = pool_->Fetch(file_.page_id(page_no));
      guard = std::move(next);
      std::memcpy(values, guard.data() + slot * row_width_ * sizeof(uint64_t),
                  n * row_width_ * sizeof(uint64_t));
      if (!fn(values, n)) return;
      row += n;
    }
  }

  // Audit walker. Verifies the page count covers the declared row count
  // and (at kFull) sweeps every page tolerantly, checking that keys
  // (column 0) are strictly ascending across the whole table.
  void AuditInto(audit::AuditLevel level, audit::AuditReport* report) const;

 private:
  uint64_t RowsPerPage() const {
    return storage::kPageSize / (sizeof(uint64_t) * row_width_);
  }
  // Key (column 0) of row `index`.
  uint64_t KeyAt(uint64_t index) const;

  storage::BufferPool* pool_;
  storage::PagedFile file_;
  uint32_t row_width_;
  uint64_t row_count_ = 0;
  bool built_ = false;
};

}  // namespace swan::rowstore

#endif  // SWANDB_ROWSTORE_SORTED_TABLE_H_
