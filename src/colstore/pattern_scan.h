#ifndef SWANDB_COLSTORE_PATTERN_SCAN_H_
#define SWANDB_COLSTORE_PATTERN_SCAN_H_

#include <array>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "colstore/column.h"
#include "colstore/ops.h"
#include "exec/exec_context.h"
#include "rdf/scan_filter.h"

namespace swan::colstore {

// The one pattern scan of the column stores, over N aligned columns (one
// per stored pattern position, passed unloaded) sorted lexicographically
// with column sort[0] leading, then sort[1], and so on. bound[c] is the
// pattern's constant at column c, filters[c] the scan filter of a free
// column (always-true where c is bound).
//
// The scan narrows to the range of the bound leading key columns (all but
// the last column, at most two; by binary search), then selects the other
// constants (SelectEq) and then the free columns' filters (SelectPassing),
// each in column order, while rows remain; then it decodes what is left.
// A column is read only when a row of it is needed, so an empty range or
// selection leaves the remaining columns unread; a two-column range reads
// both key columns, the second first. emit(values, n) receives the kept
// rows a batch at a time: values[c] points at column c's n values (a
// bound column's constant when a selection ran).
template <size_t N, typename Emit>
void MatchColumns(const std::array<const Column*, N>& cols,
                  const std::array<int, N>& sort,
                  const std::array<std::optional<uint64_t>, N>& bound,
                  const std::array<const rdf::ScanFilter*, N>& filters,
                  uint64_t universe, const exec::ExecContext& ectx,
                  const Emit& emit) {
  uint32_t lo = 0;
  uint32_t hi = static_cast<uint32_t>(cols[0]->size());
  std::array<bool, N> in_range{};
  const int lead = sort[0];
  const int next = N > 2 ? sort[1] : -1;
  if (bound[lead] && next >= 0 && bound[next]) {
    const EncodedColumn& second = cols[next]->Encoded();
    std::tie(lo, hi) = EqRangeSorted2(cols[lead]->Encoded(), second,
                                      *bound[lead], *bound[next]);
    in_range[lead] = in_range[next] = true;
  } else if (bound[lead] && N > 1) {
    std::tie(lo, hi) = EqRangeSorted(cols[lead]->Encoded(), *bound[lead]);
    in_range[lead] = true;
  }
  if (lo >= hi) return;

  // `select(col, rows...)` runs over the range first, then over the
  // positions left.
  std::optional<PositionVector> sel;
  const auto narrow = [&](size_t c, const auto& select) {
    if (sel && sel->empty()) return;
    const EncodedColumn& col = cols[c]->Encoded();
    sel = sel ? select(col, *sel) : select(col, lo, hi);
  };
  for (size_t c = 0; c < N; ++c) {
    if (!bound[c] || in_range[c]) continue;
    narrow(c, [&](const EncodedColumn& col, const auto&... rows) {
      return SelectEq(col, rows..., *bound[c], ectx);
    });
  }
  for (size_t c = 0; c < N; ++c) {
    if (bound[c] || filters[c]->all()) continue;
    narrow(c, [&](const EncodedColumn& col, const auto&... rows) {
      return SelectPassing(col, rows..., *filters[c], universe, ectx);
    });
  }

  if (!sel) {
    // Every row of the range matches: decode it batch by batch.
    std::array<const EncodedColumn*, N> encoded;
    for (size_t c = 0; c < N; ++c) encoded[c] = &cols[c]->Encoded();
    ForEachDecodedRows<N>(
        encoded, lo, hi,
        [&](uint64_t, const auto& v, uint64_t n) { emit(v, n); });
    return;
  }
  if (sel->empty()) return;
  std::array<std::vector<uint64_t>, N> gathered;
  std::array<const uint64_t*, N> v;
  for (size_t c = 0; c < N; ++c) {
    gathered[c] = bound[c] ? std::vector<uint64_t>(sel->size(), *bound[c])
                           : Gather(cols[c]->Encoded(), *sel, ectx);
    v[c] = gathered[c].data();
  }
  emit(v, sel->size());
}

}  // namespace swan::colstore

#endif  // SWANDB_COLSTORE_PATTERN_SCAN_H_
