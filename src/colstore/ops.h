#ifndef SWANDB_COLSTORE_OPS_H_
#define SWANDB_COLSTORE_OPS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "colstore/column.h"
#include "exec/exec_context.h"
#include "rdf/scan_filter.h"

namespace swan::colstore {

// BAT-style vectorized operators. Positions are uint32 row indices into a
// column (columns are bounded to < 2^32 rows); values are dictionary ids.
// Dictionary ids are dense, which several operators exploit for O(1)
// array-indexed membership and aggregation — the column store's structural
// advantage over generic hash-based row processing.
//
// The scan/aggregate/join operators are morsel-parallel under an explicit
// exec::ExecContext: when the context's thread budget exceeds one and the
// input is large enough, they split into chunks executed across the pool
// and recombine in chunk order (selection, join) or by commutative merge
// (aggregation), so results are identical at every thread count. The
// defaulted context snapshots the globally configured width; passing
// ExecContext(1) forces the original serial loops. No operator reads
// global execution state directly.

using PositionVector = std::vector<uint32_t>;

// Rows per morsel of the scan kernels: 64Ki values (512 KB of ids) is
// large enough to amortize scheduling and small enough to load-balance
// skew.
inline constexpr uint64_t kMorsel = 1ull << 16;

// Branch-free selection, the compaction step under every select kernel:
// appends emit(i) for each i in [b, e) where keep(i), in order, to *out.
// Rows are compacted kCompactBlock at a time into a stack buffer: every
// row's entry is written to the next free slot and the slot count then
// advances by keep(i), so no branch depends on the data and a 15% hit
// rate costs what 0% does, where `if (keep) push_back` mispredicts about
// once per hit. Only the kept entries are copied to *out. keep and emit
// are called once per row, in row order.
inline constexpr uint64_t kCompactBlock = 1024;
template <typename T, typename Keep, typename Emit>
void CompactInto(uint64_t b, uint64_t e, const Keep& keep, const Emit& emit,
                 std::vector<T>* out) {
  T slots[kCompactBlock];  // slots[0, count) are written before they are read
  while (b < e) {
    const uint64_t end = std::min(b + kCompactBlock, e);
    uint64_t count = 0;
    for (; b < end; ++b) {
      slots[count] = emit(b);
      count += static_cast<uint64_t>(keep(b));
    }
    out->insert(out->end(), slots, slots + count);
  }
}

// Runs fill(b, e, &part) over morsels of [0, n) and concatenates the
// per-morsel parts in morsel order: the sequence the serial scan would
// produce, at every width, as long as each fill emits ascending
// positions of its own morsel.
template <typename Fill>
PositionVector MorselSelect(const exec::ExecContext& ctx, uint64_t n,
                            const Fill& fill) {
  PositionVector out;
  if (!ctx.parallel() || n < 2 * kMorsel) {
    fill(0, n, &out);
    return out;
  }
  std::vector<PositionVector> parts((n + kMorsel - 1) / kMorsel);
  ctx.ParallelFor(n, kMorsel, [&](uint64_t b, uint64_t e, uint64_t c) {
    fill(b, e, &parts[c]);
  });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

// Positions where col[i] == value.
PositionVector SelectEq(std::span<const uint64_t> col, uint64_t value,
                        const exec::ExecContext& ctx = exec::ExecContext());

// Positions i in `sel` where col[i] == value.
PositionVector SelectEq(std::span<const uint64_t> col,
                        const PositionVector& sel, uint64_t value,
                        const exec::ExecContext& ctx = exec::ExecContext());

// Positions i in `sel` where col[i] != value.
PositionVector SelectNe(std::span<const uint64_t> col,
                        const PositionVector& sel, uint64_t value,
                        const exec::ExecContext& ctx = exec::ExecContext());

// [lo, hi) such that col[lo..hi) == value, for a sorted column.
std::pair<uint32_t, uint32_t> EqRangeSorted(std::span<const uint64_t> col,
                                            uint64_t value);

// [lo, hi) of rows where (primary, secondary) == (v1, v2), for columns
// sorted lexicographically by (primary, secondary).
std::pair<uint32_t, uint32_t> EqRangeSorted2(std::span<const uint64_t> primary,
                                             std::span<const uint64_t> secondary,
                                             uint64_t v1, uint64_t v2);

// Materializes col[sel[i]] for all i.
std::vector<uint64_t> Gather(std::span<const uint64_t> col,
                             const PositionVector& sel,
                             const exec::ExecContext& ctx = exec::ExecContext());

// The dense id bitmap the select and count kernels probe (see
// rdf/scan_filter.h): a scan filter's id set is one.
using rdf::MarkSet;

// Positions i (of `col` or of `sel`) where col value is marked.
PositionVector SelectMarked(std::span<const uint64_t> col, const MarkSet& set,
                            const exec::ExecContext& ctx = exec::ExecContext());
PositionVector SelectMarked(std::span<const uint64_t> col,
                            const PositionVector& sel, const MarkSet& set,
                            const exec::ExecContext& ctx = exec::ExecContext());

// Dense group-by-count over dictionary ids: returns (value, count) pairs
// for every value occurring in `keys`, ordered by value.
std::vector<std::pair<uint64_t, uint64_t>> CountByKeyDense(
    std::span<const uint64_t> keys, uint64_t universe_size,
    const exec::ExecContext& ctx = exec::ExecContext());

// As above but counting col[sel[i]].
std::vector<std::pair<uint64_t, uint64_t>> CountByKeyDense(
    std::span<const uint64_t> col, const PositionVector& sel,
    uint64_t universe_size,
    const exec::ExecContext& ctx = exec::ExecContext());

// Group-by-count over (a, b) pairs with a minimum count: q3/q4's GROUP BY
// prop, obj HAVING count >= min_count(prop). The pairs may come in any
// order. One counting pass buckets them by a (input already grouped by a
// is its own buckets); each bucket then counts its b values in a dense
// array over the dictionary ids and emits only the groups it touched that
// reach min_count(a), called once per distinct a. Buckets are independent,
// so wide contexts split them into contiguous ranges of about equal pair
// count, one dense array per range. Returns ((a, b), count) sorted by
// (a, b), identical at every width. Ids must be < universe_size <= 2^32.
struct PairCount {
  uint64_t a;
  uint64_t b;
  uint64_t count;
};
using MinCount = std::function<uint64_t(uint64_t a)>;
std::vector<PairCount> CountPairs(
    std::span<const uint64_t> a, std::span<const uint64_t> b,
    uint64_t universe_size, const MinCount& min_count,
    const exec::ExecContext& ctx = exec::ExecContext());
// As above with one minimum for every a.
inline std::vector<PairCount> CountPairs(
    std::span<const uint64_t> a, std::span<const uint64_t> b,
    uint64_t universe_size, uint64_t min_count,
    const exec::ExecContext& ctx = exec::ExecContext()) {
  return CountPairs(
      a, b, universe_size, [min_count](uint64_t) { return min_count; }, ctx);
}

// All matching index pairs of two sorted columns (merge join). Handles
// duplicates on both sides (cross product per equal run) — needed for q7
// where one subject can carry several Encoding/type triples.
//
// Parallelism is *intra-operator* by key-range partitioning: the larger
// input is split into equal-size morsels whose boundaries are advanced to
// equal-run edges (no run straddles a partition), the matching key range
// of the other input is found by binary search, and the partitions join
// independently. Concatenating partition outputs in range order yields
// exactly the serial pair sequence, so a skewed key (one giant equal run)
// degrades gracefully to that run's cost instead of serializing the whole
// join. ctx.counters().merge_join_partitions records the fan-out.
std::vector<std::pair<uint32_t, uint32_t>> MergeJoin(
    std::span<const uint64_t> left, std::span<const uint64_t> right,
    const exec::ExecContext& ctx = exec::ExecContext());

// Number of entries of `values` (sorted, duplicates allowed) whose value
// occurs in `keys` (sorted, unique): the counting form of the "simple,
// fast (linear) merge join" the vertical scheme relies on. The keys are
// trimmed by binary search to those between the first and last value;
// when there are over 8 of them per row each row scans forward to its
// key, otherwise a branch-free merge walks four value segments in
// lockstep. Either way every key in the trimmed range is visited.
// Parallelized by range-partitioning `values` (counts are additive
// across partitions).
uint64_t MergeCountMatches(std::span<const uint64_t> values,
                           std::span<const uint64_t> keys,
                           const exec::ExecContext& ctx = exec::ExecContext());

// Positions of entries of `values` (sorted, duplicates allowed) whose
// value occurs in `keys` (sorted, unique), by the same merge as
// MergeCountMatches. Parallelized by range-partitioning `values`;
// partitions concatenate in range order.
PositionVector MergeSelectPositions(
    std::span<const uint64_t> values, std::span<const uint64_t> keys,
    const exec::ExecContext& ctx = exec::ExecContext());

// Intersection of two sorted unique id lists.
std::vector<uint64_t> SortedIntersect(std::span<const uint64_t> a,
                                      std::span<const uint64_t> b);

// Union of two sorted unique id lists (linear merge).
std::vector<uint64_t> SortedUnion(std::span<const uint64_t> a,
                                  std::span<const uint64_t> b);

// Sorted distinct union of several id lists (unsorted inputs allowed).
std::vector<uint64_t> UnionDistinct(
    const std::vector<std::vector<uint64_t>>& lists,
    const exec::ExecContext& ctx = exec::ExecContext());

// Sorted copy with duplicates removed.
std::vector<uint64_t> SortDistinct(std::vector<uint64_t> values);

// --- Encoded execution ----------------------------------------------------
//
// Overloads that consume the still-compressed EncodedColumn view and
// decompress only at final projection:
//   - RLE reps are walked run-by-run: a run of length n contributes its n
//     rows in O(1) (selection emits the position range, aggregation adds
//     n to one counter, a merge join crosses whole runs).
//   - Bit-packed reps evaluate equality predicates in the *code* domain
//     (CodeFor maps the probe value once; rows whose code mismatches are
//     never decoded) and unpack positionally for gathers.
//   - Flat reps (raw / delta disk formats) delegate to the span kernels
//     above — one code path, zero copies.
//
// Parallel chunking matches the span kernels: RLE work splits at run
// boundaries and packed work at kMorsel (= 2^16, a multiple of 64, so
// every whole-column chunk starts on a pack-word edge); chunk outputs
// concatenate in chunk order. Results are therefore bit-identical to the
// span kernels at every thread width.

// Batch size for projection-time decompression: 4096 values (32 KB) stay
// cache-resident while amortizing per-batch dispatch.
inline constexpr uint64_t kDecodeBatch = 4096;

// Decodes rows [lo, hi) of N aligned encoded columns kDecodeBatch rows at
// a time and invokes body(base, values, count), base being the global
// position of the batch's first row and values[k] pointing at the batch
// of cols[k]. Flat columns pass their cached array through without
// copying; the others decode into one batch buffer each. Serial —
// callers fan out per morsel and run one batch stream per chunk.
template <size_t N, typename Body>
void ForEachDecodedRows(const std::array<const EncodedColumn*, N>& cols,
                        uint64_t lo, uint64_t hi, const Body& body) {
  std::array<std::vector<uint64_t>, N> bufs;
  std::array<const uint64_t*, N> values;
  for (uint64_t b = lo; b < hi; b += kDecodeBatch) {
    const uint64_t e = std::min(b + kDecodeBatch, hi);
    for (size_t k = 0; k < N; ++k) {
      if (cols[k]->rep() == EncodedColumn::Rep::kFlat) {
        values[k] = cols[k]->flat().data() + b;
        continue;
      }
      bufs[k].resize(e - b);
      cols[k]->MaterializeInto(b, e, bufs[k].data());
      values[k] = bufs[k].data();
    }
    body(b, values, e - b);
  }
}

// Positions where col[i] == value, without materializing col.
PositionVector SelectEq(const EncodedColumn& col, uint64_t value,
                        const exec::ExecContext& ctx = exec::ExecContext());

// Positions i in [lo, hi) where col[i] == value.
PositionVector SelectEq(const EncodedColumn& col, uint64_t lo, uint64_t hi,
                        uint64_t value,
                        const exec::ExecContext& ctx = exec::ExecContext());

// Positions i in `sel` where col[i] == value.
PositionVector SelectEq(const EncodedColumn& col, const PositionVector& sel,
                        uint64_t value,
                        const exec::ExecContext& ctx = exec::ExecContext());

// [lo, hi) such that col[lo..hi) == value, for a sorted encoded column
// (binary search over runs / packed codes; never materializes).
std::pair<uint32_t, uint32_t> EqRangeSorted(const EncodedColumn& col,
                                            uint64_t value);

// [lo, hi) of rows where (primary, secondary) == (v1, v2), for encoded
// columns sorted lexicographically by (primary, secondary).
std::pair<uint32_t, uint32_t> EqRangeSorted2(const EncodedColumn& primary,
                                             const EncodedColumn& secondary,
                                             uint64_t v1, uint64_t v2);

// Materializes col[sel[i]] for all i — positional unpack; only the
// selected rows are decoded.
std::vector<uint64_t> Gather(const EncodedColumn& col,
                             const PositionVector& sel,
                             const exec::ExecContext& ctx = exec::ExecContext());

// Positions i (of `col`) where the decoded value is marked. RLE runs cost
// one membership test each.
PositionVector SelectMarked(const EncodedColumn& col, const MarkSet& set,
                            const exec::ExecContext& ctx = exec::ExecContext());

// Positions i in [lo, hi) where col[i] is marked.
PositionVector SelectMarked(const EncodedColumn& col, uint64_t lo,
                            uint64_t hi, const MarkSet& set,
                            const exec::ExecContext& ctx = exec::ExecContext());

// Positions i in `sel` where col[i] is marked.
PositionVector SelectMarked(const EncodedColumn& col, const PositionVector& sel,
                            const MarkSet& set,
                            const exec::ExecContext& ctx = exec::ExecContext());

// Positions i in [lo, hi) (or in `sel`) whose value passes a scan filter
// that is not always-true: SelectEq for a one-id list, SelectMarked
// otherwise. `universe` bounds the column's ids (the dictionary size); a
// filter bitmap narrower than that is widened first, so the kernel's probe
// stays in bounds.
PositionVector SelectPassing(const EncodedColumn& col, uint64_t lo,
                             uint64_t hi, const rdf::ScanFilter& filter,
                             uint64_t universe,
                             const exec::ExecContext& ctx = exec::ExecContext());
PositionVector SelectPassing(const EncodedColumn& col,
                             const PositionVector& sel,
                             const rdf::ScanFilter& filter, uint64_t universe,
                             const exec::ExecContext& ctx = exec::ExecContext());

// Dense group-by-count without materializing: RLE runs add their length
// to one counter; dictionary-packed columns aggregate in code space (a
// palette-sized counter array) and decode once per distinct value.
std::vector<std::pair<uint64_t, uint64_t>> CountByKeyDense(
    const EncodedColumn& keys, uint64_t universe_size,
    const exec::ExecContext& ctx = exec::ExecContext());

// As above but counting col[sel[i]].
std::vector<std::pair<uint64_t, uint64_t>> CountByKeyDense(
    const EncodedColumn& col, const PositionVector& sel,
    uint64_t universe_size,
    const exec::ExecContext& ctx = exec::ExecContext());

// Dense group-by-count of the marked rows of two aligned columns: adds
// marks.Test(marked[i]) to the counter of keys[i] for every row, without
// a branch (triple PSO's q2/q6 property count: keys are the properties,
// marked the subjects). An RLE key column adds each run's hits to one
// counter and decodes only `marked`. Returns (key, count) pairs for every
// key with a marked row, ordered by key, identical at every width.
std::vector<std::pair<uint64_t, uint64_t>> CountMarkedByKey(
    const EncodedColumn& keys, const EncodedColumn& marked,
    const MarkSet& marks, uint64_t universe_size,
    const exec::ExecContext& ctx = exec::ExecContext());

// Merge join of a materialized (sorted) left side against rows [rlo, rhi)
// of a sorted encoded right column, advancing the right side run-by-run —
// an equal run joins as one cross product without decoding its rows.
// Returned right indices are relative to rlo (matching a left side that
// was gathered from the same row range). Parallelism partitions the
// encoded side at equal-run edges, so outputs concatenate to the serial
// pair sequence at every thread width.
std::vector<std::pair<uint32_t, uint32_t>> MergeJoin(
    std::span<const uint64_t> left, const EncodedColumn& right, uint64_t rlo,
    uint64_t rhi, const exec::ExecContext& ctx = exec::ExecContext());

// Number of rows in [lo, hi) of `values` (sorted in that range) whose
// value occurs in `keys` (sorted, unique). A matching RLE run contributes
// its length in O(1), and the merge starts at the first key >= the
// range's first value and stops past its last: cost is O(runs + log keys
// + the keys inside the range's values), not O(rows).
uint64_t MergeCountMatches(const EncodedColumn& values, uint64_t lo,
                           uint64_t hi, std::span<const uint64_t> keys,
                           const exec::ExecContext& ctx = exec::ExecContext());

// Positions (relative to lo) of rows in [lo, hi) of `values` (sorted in
// that range) whose value occurs in `keys` (sorted, unique). A matching
// run emits its position range without decoding; the keys are trimmed to
// the range's values as in the count form.
PositionVector MergeSelectPositions(
    const EncodedColumn& values, uint64_t lo, uint64_t hi,
    std::span<const uint64_t> keys,
    const exec::ExecContext& ctx = exec::ExecContext());

}  // namespace swan::colstore

#endif  // SWANDB_COLSTORE_OPS_H_
