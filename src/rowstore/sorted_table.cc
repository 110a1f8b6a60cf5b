#include "rowstore/sorted_table.h"

#include <cstring>
#include <string>

namespace swan::rowstore {

SortedTable::SortedTable(storage::BufferPool* pool,
                         storage::SimulatedDisk* disk, uint32_t row_width)
    : pool_(pool), file_(disk), row_width_(row_width) {
  SWAN_CHECK_GE(row_width, 1u);
  SWAN_CHECK_MSG(row_width * sizeof(uint64_t) <= storage::kPageSize,
                 "row wider than a page");
}

void SortedTable::BulkLoad(std::span<const uint64_t> flat,
                           uint64_t row_count) {
  SWAN_CHECK_MSG(!built_, "SortedTable::BulkLoad called twice");
  SWAN_CHECK_EQ(flat.size(), row_count * row_width_);
  built_ = true;
  row_count_ = row_count;

  const uint64_t rows_per_page = RowsPerPage();
  alignas(8) uint8_t page[storage::kPageSize];
  uint64_t row = 0;
  while (row < row_count) {
    std::memset(page, 0, sizeof(page));
    const uint64_t take = std::min(rows_per_page, row_count - row);
    std::memcpy(page, flat.data() + row * row_width_,
                take * row_width_ * sizeof(uint64_t));
    file_.AppendPage(page);
    row += take;
  }
}

uint64_t SortedTable::KeyAt(uint64_t index) const {
  const uint64_t rows_per_page = RowsPerPage();
  const uint32_t page_no = static_cast<uint32_t>(index / rows_per_page);
  const uint64_t slot = index % rows_per_page;
  storage::PageGuard guard = pool_->Fetch(file_.page_id(page_no));
  uint64_t key;
  std::memcpy(&key,
              guard.data() + slot * row_width_ * sizeof(uint64_t),
              sizeof(key));
  return key;
}

std::optional<uint64_t> SortedTable::FindRow(uint64_t key) const {
  SWAN_CHECK_MSG(built_, "SortedTable not loaded");
  uint64_t lo = 0, hi = row_count_;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (KeyAt(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < row_count_ && KeyAt(lo) == key) return lo;
  return std::nullopt;
}

void SortedTable::AuditInto(audit::AuditLevel level,
                            audit::AuditReport* report) const {
  if (!built_) return;
  const std::string name =
      "sorted_table(file " + std::to_string(file_.file_id()) + ")";
  const uint64_t rows_per_page = RowsPerPage();
  const uint64_t pages_needed =
      (row_count_ + rows_per_page - 1) / rows_per_page;
  if (file_.page_count() < pages_needed) {
    report->Add(audit::FindingClass::kStructure, name,
                "file has " + std::to_string(file_.page_count()) +
                    " pages, " + std::to_string(pages_needed) +
                    " needed for " + std::to_string(row_count_) + " rows");
    return;
  }
  if (level == audit::AuditLevel::kQuick) return;

  bool have_prev = false;
  uint64_t prev_key = 0;
  for (uint64_t row = 0; row < row_count_; ++row) {
    const uint32_t page_no = static_cast<uint32_t>(row / rows_per_page);
    const uint64_t slot = row % rows_per_page;
    storage::PageGuard guard;
    Status st = pool_->TryFetch(file_.page_id(page_no), &guard);
    if (!st.ok()) {
      report->Add(audit::FindingClass::kChecksum, name, st.ToString());
      return;
    }
    uint64_t key;
    std::memcpy(&key, guard.data() + slot * row_width_ * sizeof(uint64_t),
                sizeof(key));
    if (have_prev && prev_key >= key) {
      report->Add(audit::FindingClass::kStructure, name,
                  "keys not strictly ascending at row " + std::to_string(row));
      return;
    }
    prev_key = key;
    have_prev = true;
  }
}

}  // namespace swan::rowstore
