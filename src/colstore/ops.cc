#include "colstore/ops.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace swan::colstore {

namespace {

// The merge-join equal-run-length histogram of the attached trace
// session, or nullptr when untraced. Observation is atomic and the run
// set is width-invariant (runs never straddle partitions), so the
// snapshot is identical at every thread count.
obs::Histogram* RunLengthHist(const exec::ExecContext& ctx) {
  obs::TraceSession* session = ctx.trace();
  if (session == nullptr) return nullptr;
  return session->metrics().GetHistogram("ops.merge_join.run_length",
                                         {1, 2, 4, 8, 16, 32, 64, 128});
}

// Fewest pairs worth a CountPairs shard of their own (and its dense
// counter array).
constexpr uint64_t kPairShard = 1ull << 13;

// Positions emit(i) of the rows i in [0, n) where keep(i), morsel by
// morsel through CompactInto: the row form of every select kernel.
template <typename Keep, typename Emit>
PositionVector SelectRows(const exec::ExecContext& ctx, uint64_t n,
                          const Keep& keep, const Emit& emit) {
  return MorselSelect(ctx, n, [&](uint64_t b, uint64_t e, PositionVector* out) {
    CompactInto(b, e, keep, emit, out);
  });
}

// Emits row i as its own position. A lambda, not a function: a function
// passed as Emit is called through a pointer and never inlined.
constexpr auto kRowPosition = [](uint64_t i) {
  return static_cast<uint32_t>(i);
};

// Appends the positions [start, end) to *out: a whole RLE run selected
// by one comparison.
void AppendRange(uint64_t start, uint64_t end, PositionVector* out) {
  const size_t old = out->size();
  out->resize(old + (end - start));
  std::iota(out->begin() + static_cast<ptrdiff_t>(old), out->end(),
            static_cast<uint32_t>(start));
}

// The sorted merge behind MergeCountMatches/MergeSelectPositions.
//
// Segments of the dense merge, stepped in lockstep: each step of one
// segment waits on its previous loads, so independent segments keep
// several loads in flight. On BM_MergeCountMatchesVertical's dense shape
// (46k rows, 6.9k keys) one segment takes 162-172 us, two 83-93, four
// 46-64 and eight 48-88, whose cursors no longer fit in registers.
constexpr size_t kMergeSegments = 4;
// A range with more than kScanRatio keys per row scans forward from row
// to row instead: few rows leave the lockstep segments short, while the
// scan's loop branch is taken for almost every key and predicts well.
// Against 6.9k keys the scan takes 2.7-4.3 us for 20 rows (lockstep
// 13.5-16.3) and still wins at 1,700 (6.4 vs 8.6-10.4), but loses at
// 3,450 (22.5-28.0 vs 15.8-16.2); 8 keys per row keeps a margin.
constexpr uint64_t kScanRatio = 8;

// The keys in [first, last]: the only ones a merge over sorted values
// from `first` to `last` can meet.
std::span<const uint64_t> KeysBetween(std::span<const uint64_t> keys,
                                      uint64_t first, uint64_t last) {
  const auto b = std::lower_bound(keys.begin(), keys.end(), first);
  const auto e = std::upper_bound(b, keys.end(), last);
  return keys.subspan(static_cast<size_t>(b - keys.begin()),
                      static_cast<size_t>(e - b));
}

struct MergeCursor {
  uint64_t i;      // next row
  uint64_t end;    // one past the segment's last row
  uint64_t j;      // next key
  uint64_t out;    // the segment's first slot in the output
  uint64_t count;  // matches so far
};

// One branch-free merge step: the row side advances unless the key is
// smaller, the key side only when it is (keys are unique, rows repeat),
// and the position is written whether or not it matched.
template <bool kSelect>
inline void MergeStep(const uint64_t* values, const uint64_t* keys,
                      uint32_t base, uint32_t* out, MergeCursor& c) {
  const uint64_t v = values[c.i];
  const uint64_t k = keys[c.j];
  if constexpr (kSelect) {
    out[c.out + c.count] = base + static_cast<uint32_t>(c.i);
  }
  c.count += v == k;
  c.i += v <= k;
  c.j += k < v;
}

// Number of rows of `values` (sorted) whose value is in `keys` (sorted,
// unique). With kSelect, also writes their positions plus `base`, in
// ascending order, to out[0, count); `out` has room for values.size().
// The keys are first trimmed to [values.front(), values.back()]. Both
// branches then visit every remaining key once: that walk is the
// per-table cost of the vertical scheme's union of joins, which Figures
// 6 and 7 measure. Galloping over the keys skipped most of it, and
// Figure 6's vertical q2 then barely grew with the property count.
template <bool kSelect>
uint64_t MergeMatch(std::span<const uint64_t> values,
                    std::span<const uint64_t> keys, uint32_t base,
                    uint32_t* out) {
  const uint64_t n = values.size();
  if (n == 0) return 0;
  keys = KeysBetween(keys, values[0], values[n - 1]);
  const uint64_t kn = keys.size();
  if (kn == 0) return 0;
  const uint64_t* v = values.data();
  const uint64_t* kb = keys.data();

  if (n * kScanRatio < kn) {
    uint64_t count = 0;
    uint64_t j = 0;
    const uint64_t last = kb[kn - 1];
    for (uint64_t i = 0; i < n && v[i] <= last; ++i) {
      while (kb[j] < v[i]) ++j;
      if constexpr (kSelect) out[count] = base + static_cast<uint32_t>(i);
      count += kb[j] == v[i];
    }
    return count;
  }

  // Segment s holds rows [n*s/S, n*(s+1)/S) and writes its positions from
  // its own first row's slot, so no segment overruns the next; each starts
  // at the first key >= its first row. A run of equal rows that straddles
  // a split is matched by both segments, each for its own rows. Below S
  // rows some segments are empty.
  MergeCursor c[kMergeSegments];
  uint64_t j = 0;
  for (size_t s = 0; s < kMergeSegments; ++s) {
    const uint64_t b = n * s / kMergeSegments;
    j = static_cast<uint64_t>(std::lower_bound(kb + j, kb + kn, v[b]) - kb);
    c[s] = MergeCursor{b, n * (s + 1) / kMergeSegments, j, b, 0};
  }
  // Each step moves exactly one side of a segment by one, so no segment
  // runs out within `steps` steps and the inner loop checks no bounds.
  for (;;) {
    uint64_t steps = kn;
    for (const MergeCursor& m : c) {
      steps = std::min({steps, m.end - m.i, kn - m.j});
    }
    if (steps == 0) break;
    for (; steps > 0; --steps) {
      for (MergeCursor& m : c) MergeStep<kSelect>(v, kb, base, out, m);
    }
  }
  uint64_t count = 0;
  for (MergeCursor& m : c) {
    while (m.i < m.end && m.j < kn) MergeStep<kSelect>(v, kb, base, out, m);
    if constexpr (kSelect) {
      std::memmove(out + count, out + m.out, m.count * sizeof(uint32_t));
    }
    count += m.count;
  }
  return count;
}

// Shared tail of the dense count kernels: per-shard dense partials built
// in parallel, summed (a commutative merge — order-independent), then
// swept for the nonzero entries.
template <typename Accumulate>
std::vector<std::pair<uint64_t, uint64_t>> DenseCount(
    const exec::ExecContext& ctx, uint64_t n, uint64_t universe_size,
    const Accumulate& accumulate) {
  std::vector<uint64_t> counts;
  const uint64_t shards = ctx.ShardsFor(n, kMorsel);
  if (shards <= 1) {
    counts.assign(universe_size, 0);
    accumulate(0, n, &counts);
  } else {
    const uint64_t grain = (n + shards - 1) / shards;
    std::vector<std::vector<uint64_t>> partials(shards);
    ctx.ParallelFor(n, grain, [&](uint64_t b, uint64_t e, uint64_t c) {
      partials[c].assign(universe_size, 0);
      accumulate(b, e, &partials[c]);
    });
    counts = std::move(partials[0]);
    ctx.ParallelFor(
        universe_size, kMorsel, [&](uint64_t b, uint64_t e, uint64_t) {
          for (uint64_t s = 1; s < shards; ++s) {
            const auto& p = partials[s];
            for (uint64_t k = b; k < e; ++k) counts[k] += p[k];
          }
        });
  }
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint64_t k = 0; k < universe_size; ++k) {
    if (counts[k] != 0) out.emplace_back(k, counts[k]);
  }
  return out;
}

// Sorted-unique union of two sorted-unique lists.
// Serial merge-join kernel over subranges, emitting *global* indices
// (subrange start + offset). Shared by the serial path and every
// partition of the parallel path.
void MergeJoinInto(std::span<const uint64_t> left,
                   std::span<const uint64_t> right, uint32_t left_off,
                   uint32_t right_off,
                   std::vector<std::pair<uint32_t, uint32_t>>* out,
                   obs::Histogram* run_lengths = nullptr) {
  uint32_t i = 0, j = 0;
  const uint32_t n = static_cast<uint32_t>(left.size());
  const uint32_t m = static_cast<uint32_t>(right.size());
  while (i < n && j < m) {
    if (left[i] < right[j]) {
      ++i;
    } else if (right[j] < left[i]) {
      ++j;
    } else {
      // Equal run: emit the cross product.
      const uint64_t v = left[i];
      uint32_t i_end = i;
      while (i_end < n && left[i_end] == v) ++i_end;
      uint32_t j_end = j;
      while (j_end < m && right[j_end] == v) ++j_end;
      if (run_lengths != nullptr) {
        run_lengths->Observe(i_end - i);
        run_lengths->Observe(j_end - j);
      }
      for (uint32_t a = i; a < i_end; ++a) {
        for (uint32_t b = j; b < j_end; ++b) {
          out->emplace_back(left_off + a, right_off + b);
        }
      }
      i = i_end;
      j = j_end;
    }
  }
}

// Splits [0, size) of a sorted column into ~kMorsel-sized partitions whose
// boundaries are advanced to equal-run edges, so no run of equal keys
// straddles a partition. Returns the boundary positions (first = 0,
// last = size), deduplicated.
std::vector<uint64_t> RunAlignedBoundaries(std::span<const uint64_t> sorted,
                                           uint64_t target_parts) {
  const uint64_t size = sorted.size();
  const uint64_t grain = std::max<uint64_t>(1, size / target_parts);
  std::vector<uint64_t> bounds;
  bounds.push_back(0);
  for (uint64_t t = grain; t < size; t += grain) {
    // Advance the tentative cut to the end of the run containing it.
    const uint64_t cut = static_cast<uint64_t>(
        std::upper_bound(sorted.begin() + static_cast<ptrdiff_t>(t),
                         sorted.end(), sorted[t]) -
        sorted.begin());
    if (cut > bounds.back() && cut < size) bounds.push_back(cut);
  }
  bounds.push_back(size);
  return bounds;
}

}  // namespace

PositionVector SelectEq(std::span<const uint64_t> col, uint64_t value,
                        const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.select_eq");
  span.set_rows_in(col.size());
  PositionVector out = SelectRows(
      ctx, col.size(), [&](uint64_t i) { return col[i] == value; },
      kRowPosition);
  span.set_rows_out(out.size());
  return out;
}

PositionVector SelectEq(std::span<const uint64_t> col,
                        const PositionVector& sel, uint64_t value,
                        const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.select_eq");
  span.set_rows_in(sel.size());
  PositionVector out = SelectRows(
      ctx, sel.size(), [&](uint64_t j) { return col[sel[j]] == value; },
      [&](uint64_t j) { return sel[j]; });
  span.set_rows_out(out.size());
  return out;
}

PositionVector SelectNe(std::span<const uint64_t> col,
                        const PositionVector& sel, uint64_t value,
                        const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.select_ne");
  span.set_rows_in(sel.size());
  PositionVector out = SelectRows(
      ctx, sel.size(), [&](uint64_t j) { return col[sel[j]] != value; },
      [&](uint64_t j) { return sel[j]; });
  span.set_rows_out(out.size());
  return out;
}

std::pair<uint32_t, uint32_t> EqRangeSorted(std::span<const uint64_t> col,
                                            uint64_t value) {
  const auto lo = std::lower_bound(col.begin(), col.end(), value);
  const auto hi = std::upper_bound(lo, col.end(), value);
  return {static_cast<uint32_t>(lo - col.begin()),
          static_cast<uint32_t>(hi - col.begin())};
}

std::pair<uint32_t, uint32_t> EqRangeSorted2(
    std::span<const uint64_t> primary, std::span<const uint64_t> secondary,
    uint64_t v1, uint64_t v2) {
  const auto [plo, phi] = EqRangeSorted(primary, v1);
  const auto sub = secondary.subspan(plo, phi - plo);
  const auto [slo, shi] = EqRangeSorted(sub, v2);
  return {plo + slo, plo + shi};
}

std::vector<uint64_t> Gather(std::span<const uint64_t> col,
                             const PositionVector& sel,
                             const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.gather");
  span.set_rows_in(sel.size());
  span.set_rows_out(sel.size());
  std::vector<uint64_t> out(sel.size());
  ctx.ParallelFor(sel.size(), kMorsel,
                  [&](uint64_t b, uint64_t e, uint64_t) {
                    for (uint64_t i = b; i < e; ++i) out[i] = col[sel[i]];
                  });
  return out;
}

PositionVector SelectMarked(std::span<const uint64_t> col, const MarkSet& set,
                            const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.select_marked");
  span.set_rows_in(col.size());
  PositionVector out = SelectRows(
      ctx, col.size(), [&](uint64_t i) { return set.Test(col[i]); },
      kRowPosition);
  span.set_rows_out(out.size());
  return out;
}

PositionVector SelectMarked(std::span<const uint64_t> col,
                            const PositionVector& sel, const MarkSet& set,
                            const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.select_marked");
  span.set_rows_in(sel.size());
  PositionVector out = SelectRows(
      ctx, sel.size(), [&](uint64_t j) { return set.Test(col[sel[j]]); },
      [&](uint64_t j) { return sel[j]; });
  span.set_rows_out(out.size());
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> CountByKeyDense(
    std::span<const uint64_t> keys, uint64_t universe_size,
    const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.count_by_key");
  span.set_rows_in(keys.size());
  std::vector<std::pair<uint64_t, uint64_t>> out =
      DenseCount(ctx, keys.size(), universe_size,
                 [&](uint64_t b, uint64_t e, std::vector<uint64_t>* counts) {
                   for (uint64_t i = b; i < e; ++i) {
                     SWAN_DCHECK_LT(keys[i], universe_size);
                     ++(*counts)[keys[i]];
                   }
                 });
  span.set_rows_out(out.size());
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> CountByKeyDense(
    std::span<const uint64_t> col, const PositionVector& sel,
    uint64_t universe_size, const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.count_by_key");
  span.set_rows_in(sel.size());
  std::vector<std::pair<uint64_t, uint64_t>> out =
      DenseCount(ctx, sel.size(), universe_size,
                 [&](uint64_t b, uint64_t e, std::vector<uint64_t>* counts) {
                   for (uint64_t j = b; j < e; ++j) {
                     SWAN_DCHECK_LT(col[sel[j]], universe_size);
                     ++(*counts)[col[sel[j]]];
                   }
                 });
  span.set_rows_out(out.size());
  return out;
}

std::vector<PairCount> CountPairs(std::span<const uint64_t> a,
                                  std::span<const uint64_t> b,
                                  uint64_t universe_size,
                                  const MinCount& min_count,
                                  const exec::ExecContext& ctx) {
  SWAN_CHECK_EQ(a.size(), b.size());
  SWAN_CHECK_LE(universe_size, 1ull << 32);
  obs::Span span(ctx.trace(), "ops.count_pairs");
  span.set_rows_in(a.size());
  const uint64_t n = a.size();
  std::vector<PairCount> out;
  if (n == 0) return out;
  SWAN_CHECK_LT(n, 1ull << 32);

  // One bucket of b values per a. Input grouped by a (a PSO scan, one
  // partition after another) is its own buckets: its runs of equal a,
  // recorded while the pass finds a's range. Any other order takes a
  // counting pass and a scatter of b into bucket order.
  struct Bucket {
    uint64_t a;
    uint32_t begin;
    uint32_t end;
  };
  constexpr size_t kMaxRuns = 1024;
  std::vector<Bucket> buckets = {Bucket{a[0], 0, 0}};
  uint64_t a_lo = a[0];
  uint64_t a_hi = a[0];
  for (uint64_t i = 1; i < n; ++i) {
    a_lo = std::min(a_lo, a[i]);
    a_hi = std::max(a_hi, a[i]);
    if (a[i] != a[i - 1] && buckets.size() <= kMaxRuns) {
      buckets.back().end = static_cast<uint32_t>(i);
      buckets.push_back(Bucket{a[i], static_cast<uint32_t>(i), 0});
    }
  }
  SWAN_CHECK_LT(a_hi, universe_size);
  buckets.back().end = static_cast<uint32_t>(n);
  bool grouped = buckets.size() <= kMaxRuns;
  if (grouped) {
    std::sort(buckets.begin(), buckets.end(),
              [](const Bucket& x, const Bucket& y) { return x.a < y.a; });
    for (size_t k = 1; grouped && k < buckets.size(); ++k) {
      grouped = buckets[k - 1].a != buckets[k].a;
    }
  }
  const uint64_t* values = b.data();
  std::vector<uint64_t> scattered;
  if (!grouped) {
    std::vector<uint32_t> cursor(a_hi - a_lo + 1, 0);
    for (uint64_t i = 0; i < n; ++i) ++cursor[a[i] - a_lo];
    buckets.clear();
    uint32_t next = 0;
    for (uint64_t k = 0; k < cursor.size(); ++k) {
      const uint32_t size = cursor[k];
      cursor[k] = next;
      if (size == 0) continue;
      buckets.push_back(Bucket{a_lo + k, next, next + size});
      next += size;
    }
    scattered.resize(n);
    for (uint64_t i = 0; i < n; ++i) scattered[cursor[a[i] - a_lo]++] = b[i];
    values = scattered.data();
  }

  // Contiguous bucket ranges of about n / shards pairs each, in a order.
  // A range counts its buckets one after another in its own dense array,
  // then reads and clears only the slots a bucket touched.
  const uint64_t shards =
      std::min<uint64_t>(ctx.ShardsFor(n, kPairShard), buckets.size());
  std::vector<size_t> first(shards + 1, buckets.size());
  first[0] = 0;
  uint64_t seen = 0;
  for (size_t k = 0, s = 1; k < buckets.size() && s < shards; ++k) {
    if (seen >= s * n / shards) first[s++] = k;
    seen += buckets[k].end - buckets[k].begin;
  }
  std::vector<std::vector<PairCount>> parts(shards);
  ctx.ParallelFor(shards, 1, [&](uint64_t lo, uint64_t hi, uint64_t) {
    std::vector<uint32_t> counts(universe_size, 0);
    std::vector<uint32_t> touched;
    std::vector<uint64_t> kept;  // b << 32 | count
    for (uint64_t s = lo; s < hi; ++s) {
      for (size_t k = first[s]; k < first[s + 1]; ++k) {
        const Bucket& bucket = buckets[k];
        touched.resize(bucket.end - bucket.begin);
        size_t distinct = 0;
        for (uint32_t j = bucket.begin; j < bucket.end; ++j) {
          const uint64_t v = values[j];
          SWAN_DCHECK_LT(v, universe_size);
          touched[distinct] = static_cast<uint32_t>(v);
          distinct += counts[v]++ == 0;
        }
        kept.clear();
        const uint64_t minimum = min_count(bucket.a);
        for (size_t t = 0; t < distinct; ++t) {
          const uint32_t v = touched[t];
          if (counts[v] >= minimum) {
            kept.push_back(uint64_t{v} << 32 | counts[v]);
          }
          counts[v] = 0;
        }
        std::sort(kept.begin(), kept.end());
        for (uint64_t g : kept) {
          parts[s].push_back(PairCount{bucket.a, g >> 32, g & 0xFFFFFFFFull});
        }
      }
    }
  });
  out = std::move(parts[0]);
  for (uint64_t s = 1; s < shards; ++s) {
    out.insert(out.end(), parts[s].begin(), parts[s].end());
  }
  span.set_rows_out(out.size());
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> MergeJoin(
    std::span<const uint64_t> left, std::span<const uint64_t> right,
    const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.merge_join");
  span.set_rows_in(left.size() + right.size());
  obs::Histogram* run_lengths = RunLengthHist(ctx);
  if (!ctx.parallel() || left.size() + right.size() < 2 * kMorsel) {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    MergeJoinInto(left, right, 0, 0, &out, run_lengths);
    span.set_rows_out(out.size());
    return out;
  }

  // Key-range partitioning on the larger side. Boundaries sit on equal-run
  // edges, so every key (and therefore every output pair) belongs to
  // exactly one partition; the other side's matching range is recovered by
  // binary search. Partition p covers a strictly smaller key range than
  // partition p+1, so concatenating outputs in partition order reproduces
  // the serial key-ordered pair sequence exactly.
  const bool left_larger = left.size() >= right.size();
  const std::span<const uint64_t> big = left_larger ? left : right;
  const std::span<const uint64_t> small = left_larger ? right : left;
  const uint64_t parts_target =
      std::max<uint64_t>(static_cast<uint64_t>(ctx.threads()),
                         big.size() / kMorsel);
  const std::vector<uint64_t> bounds = RunAlignedBoundaries(big, parts_target);
  const uint64_t parts = bounds.size() - 1;
  if (parts <= 1) {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    MergeJoinInto(left, right, 0, 0, &out, run_lengths);
    span.set_rows_out(out.size());
    return out;
  }
  ctx.counters().merge_join_partitions.fetch_add(parts,
                                                 std::memory_order_relaxed);

  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> outs(parts);
  ctx.ParallelFor(parts, 1, [&](uint64_t pb, uint64_t pe, uint64_t) {
    for (uint64_t p = pb; p < pe; ++p) {
      const uint64_t blo = bounds[p];
      const uint64_t bhi = bounds[p + 1];
      // Matching key range in the smaller side.
      const uint64_t slo = static_cast<uint64_t>(
          std::lower_bound(small.begin(), small.end(), big[blo]) -
          small.begin());
      const uint64_t shi = static_cast<uint64_t>(
          std::upper_bound(small.begin() + static_cast<ptrdiff_t>(slo),
                           small.end(), big[bhi - 1]) -
          small.begin());
      const auto big_sub = big.subspan(blo, bhi - blo);
      const auto small_sub = small.subspan(slo, shi - slo);
      // The histogram is safe to feed from worker lanes (atomic buckets)
      // and stays width-invariant: partition boundaries sit on equal-run
      // edges, so every run is observed exactly once.
      if (left_larger) {
        MergeJoinInto(big_sub, small_sub, static_cast<uint32_t>(blo),
                      static_cast<uint32_t>(slo), &outs[p], run_lengths);
      } else {
        MergeJoinInto(small_sub, big_sub, static_cast<uint32_t>(slo),
                      static_cast<uint32_t>(blo), &outs[p], run_lengths);
      }
    }
  });

  size_t total = 0;
  for (const auto& o : outs) total += o.size();
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(total);
  for (const auto& o : outs) out.insert(out.end(), o.begin(), o.end());
  span.set_rows_out(out.size());
  return out;
}

uint64_t MergeCountMatches(std::span<const uint64_t> values,
                           std::span<const uint64_t> keys,
                           const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.merge_count");
  span.set_rows_in(values.size() + keys.size());
  const uint64_t n = values.size();
  uint64_t total = 0;
  if (ctx.parallel() && n >= 2 * kMorsel) {
    // Range-partition `values`. Per-element membership is independent, so
    // the per-chunk counts are additive and the total equals the serial
    // count.
    const uint64_t chunks = (n + kMorsel - 1) / kMorsel;
    std::vector<uint64_t> partial(chunks, 0);
    ctx.ParallelFor(n, kMorsel, [&](uint64_t b, uint64_t e, uint64_t c) {
      partial[c] = MergeMatch<false>(values.subspan(b, e - b), keys, 0,
                                     nullptr);
    });
    for (uint64_t c : partial) total += c;
  } else {
    total = MergeMatch<false>(values, keys, 0, nullptr);
  }
  span.set_rows_out(total);
  return total;
}

PositionVector MergeSelectPositions(std::span<const uint64_t> values,
                                    std::span<const uint64_t> keys,
                                    const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.merge_select");
  span.set_rows_in(values.size() + keys.size());
  // Chunk outputs concatenate in chunk order, which is ascending position
  // order — exactly the serial sequence. The merge writes a slot per row,
  // so it fills an uninitialized buffer and only the matches are copied.
  PositionVector out = MorselSelect(
      ctx, values.size(), [&](uint64_t b, uint64_t e, PositionVector* out) {
        const auto slots = std::make_unique_for_overwrite<uint32_t[]>(e - b);
        const uint64_t count =
            MergeMatch<true>(values.subspan(b, e - b), keys,
                             static_cast<uint32_t>(b), slots.get());
        out->assign(slots.get(), slots.get() + count);
      });
  span.set_rows_out(out.size());
  return out;
}

std::vector<uint64_t> SortedIntersect(std::span<const uint64_t> a,
                                      std::span<const uint64_t> b) {
  std::vector<uint64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<uint64_t> SortedUnion(std::span<const uint64_t> a,
                                  std::span<const uint64_t> b) {
  std::vector<uint64_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<uint64_t> UnionDistinct(
    const std::vector<std::vector<uint64_t>>& lists,
    const exec::ExecContext& ctx) {
  obs::Span span(ctx.trace(), "ops.union_distinct");
  size_t rows_in = 0;
  for (const auto& l : lists) rows_in += l.size();
  span.set_rows_in(rows_in);
  if (!ctx.parallel() || lists.size() <= 1) {
    std::vector<uint64_t> out;
    out.reserve(rows_in);
    for (const auto& l : lists) out.insert(out.end(), l.begin(), l.end());
    out = SortDistinct(std::move(out));
    span.set_rows_out(out.size());
    return out;
  }

  // Sort-distinct every list in parallel, then a parallel pairwise merge
  // tree. A sorted set is one value regardless of merge shape, so the
  // result matches the serial path exactly.
  std::vector<std::vector<uint64_t>> sorted(lists.size());
  ctx.ParallelFor(lists.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t l = b; l < e; ++l) sorted[l] = SortDistinct(lists[l]);
  });
  while (sorted.size() > 1) {
    const uint64_t pairs = sorted.size() / 2;
    std::vector<std::vector<uint64_t>> next((sorted.size() + 1) / 2);
    ctx.ParallelFor(pairs, 1, [&](uint64_t b, uint64_t e, uint64_t) {
      for (uint64_t p = b; p < e; ++p) {
        next[p] = SortedUnion(sorted[2 * p], sorted[2 * p + 1]);
      }
    });
    if (sorted.size() % 2 != 0) next.back() = std::move(sorted.back());
    sorted.swap(next);
  }
  span.set_rows_out(sorted.front().size());
  return std::move(sorted.front());
}

std::vector<uint64_t> SortDistinct(std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

// --- Encoded execution ----------------------------------------------------

namespace {

using Rep = EncodedColumn::Rep;

// Monotone positional reader over an RLE column: amortized O(1) when
// positions arrive in ascending order (the common case for selection
// vectors), falling back to a binary-search reseek on jumps.
class RleReader {
 public:
  explicit RleReader(const EncodedColumn& enc) : enc_(&enc) {}

  uint64_t At(uint64_t pos) {
    const auto& runs = enc_->runs();
    const RleRun* r = &runs[idx_];
    if (pos < r->start || pos >= r->start + r->length) {
      if (idx_ + 1 < runs.size() && pos >= runs[idx_ + 1].start &&
          pos < runs[idx_ + 1].start + runs[idx_ + 1].length) {
        ++idx_;
      } else {
        idx_ = enc_->RunIndexOf(pos);
      }
      r = &runs[idx_];
    }
    return r->value;
  }

 private:
  const EncodedColumn* enc_;
  size_t idx_ = 0;
};

// Pull iterator over the maximal equal-value runs of enc[lo, hi): the
// merge-join building block ("advance run-by-run, decompress only at
// projection"). Adjacent stored RLE runs with equal values are coalesced
// (the encoder caps a stored run at 2^32 - 1 rows); flat data is scanned
// in place and packed data unpacked kDecodeBatch values at a time, so the
// cursor never materializes the full range.
class RunCursor {
 public:
  RunCursor(const EncodedColumn& enc, uint64_t lo, uint64_t hi)
      : enc_(&enc), hi_(hi), next_(lo) {
    if (enc_->rep() == Rep::kRle && lo < hi_) run_idx_ = enc_->RunIndexOf(lo);
    Advance();
  }

  bool done() const { return start_ >= hi_; }
  uint64_t value() const { return value_; }
  uint64_t start() const { return start_; }
  uint64_t end() const { return end_; }
  uint64_t length() const { return end_ - start_; }
  void Next() { Advance(); }

 private:
  uint64_t At(uint64_t pos) {
    if (enc_->rep() == Rep::kFlat) return enc_->flat()[pos];
    if (pos >= buf_hi_ || pos < buf_lo_) {
      buf_lo_ = pos;
      buf_hi_ = std::min(pos + kDecodeBatch, hi_);
      buf_.resize(buf_hi_ - buf_lo_);
      enc_->MaterializeInto(buf_lo_, buf_hi_, buf_.data());
    }
    return buf_[pos - buf_lo_];
  }

  void Advance() {
    start_ = next_;
    if (start_ >= hi_) {
      end_ = start_;
      return;
    }
    if (enc_->rep() == Rep::kRle) {
      const auto& runs = enc_->runs();
      value_ = runs[run_idx_].value;
      for (;;) {
        end_ = std::min<uint64_t>(
            runs[run_idx_].start + runs[run_idx_].length, hi_);
        if (end_ >= hi_) break;
        if (runs[run_idx_ + 1].value != value_) break;
        ++run_idx_;
      }
      // Ending short of hi_ means the next Advance starts in the
      // following run.
      if (end_ < hi_) ++run_idx_;
    } else {
      value_ = At(start_);
      end_ = start_ + 1;
      while (end_ < hi_ && At(end_) == value_) ++end_;
    }
    next_ = end_;
  }

  const EncodedColumn* enc_;
  uint64_t hi_;
  uint64_t next_;
  uint64_t start_ = 0;
  uint64_t end_ = 0;
  uint64_t value_ = 0;
  size_t run_idx_ = 0;
  std::vector<uint64_t> buf_;  // packed-rep decode window
  uint64_t buf_lo_ = 0;
  uint64_t buf_hi_ = 0;
};

// lower/upper bound over [lo, hi) of a sorted encoded column by decoded
// value. ValueAt is O(1) for flat/packed and O(log runs) for RLE, so
// these are at worst O(log^2).
uint64_t EncLowerBound(const EncodedColumn& enc, uint64_t lo, uint64_t hi,
                       uint64_t value) {
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (enc.ValueAt(mid) < value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint64_t EncUpperBound(const EncodedColumn& enc, uint64_t lo, uint64_t hi,
                       uint64_t value) {
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (enc.ValueAt(mid) <= value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Equal-run-aligned partition boundaries over [lo, hi) of a sorted
// encoded column — the encoded analog of RunAlignedBoundaries. Each
// tentative cut advances to the end of the maximal equal-value run
// containing it, so no run straddles a partition (keeping partitioned
// merge-join output and the run-length histogram width-invariant).
std::vector<uint64_t> EncRunAlignedBoundaries(const EncodedColumn& enc,
                                              uint64_t lo, uint64_t hi,
                                              uint64_t target_parts) {
  const uint64_t size = hi - lo;
  const uint64_t grain = std::max<uint64_t>(1, size / target_parts);
  std::vector<uint64_t> bounds;
  bounds.push_back(lo);
  for (uint64_t t = lo + grain; t < hi; t += grain) {
    const uint64_t cut = EncUpperBound(enc, t, hi, enc.ValueAt(t));
    if (cut > bounds.back() && cut < hi) bounds.push_back(cut);
  }
  bounds.push_back(hi);
  return bounds;
}

// Serial merge-join kernel: materialized sorted left against the encoded
// sorted right range [rlo, rhi), run-by-run. Emits (left_off + left
// index, right position - right_base); a matching run crosses without
// decoding any right row.
void MergeJoinEncInto(std::span<const uint64_t> left, uint32_t left_off,
                      const EncodedColumn& right, uint64_t rlo, uint64_t rhi,
                      uint64_t right_base,
                      std::vector<std::pair<uint32_t, uint32_t>>* out,
                      obs::Histogram* run_lengths = nullptr) {
  RunCursor rc(right, rlo, rhi);
  uint32_t i = 0;
  const uint32_t n = static_cast<uint32_t>(left.size());
  while (i < n && !rc.done()) {
    if (left[i] < rc.value()) {
      ++i;
    } else if (rc.value() < left[i]) {
      rc.Next();
    } else {
      const uint64_t v = left[i];
      uint32_t i_end = i;
      while (i_end < n && left[i_end] == v) ++i_end;
      if (run_lengths != nullptr) {
        run_lengths->Observe(i_end - i);
        run_lengths->Observe(rc.length());
      }
      for (uint32_t a = i; a < i_end; ++a) {
        for (uint64_t p = rc.start(); p < rc.end(); ++p) {
          out->emplace_back(left_off + a,
                            static_cast<uint32_t>(p - right_base));
        }
      }
      i = i_end;
      rc.Next();
    }
  }
}

}  // namespace

PositionVector SelectEq(const EncodedColumn& col, uint64_t value,
                        const exec::ExecContext& ctx) {
  return SelectEq(col, 0, col.size(), value, ctx);
}

PositionVector SelectEq(const EncodedColumn& col, uint64_t lo, uint64_t hi,
                        uint64_t value, const exec::ExecContext& ctx) {
  SWAN_DCHECK_LE(lo, hi);
  SWAN_DCHECK_LE(hi, col.size());
  if (col.rep() == Rep::kFlat) {
    PositionVector out = SelectEq(
        std::span<const uint64_t>(col.flat()).subspan(lo, hi - lo), value,
        ctx);
    for (uint32_t& p : out) p += static_cast<uint32_t>(lo);
    return out;
  }
  obs::Span span(ctx.trace(), "ops.select_eq_enc");
  span.set_rows_in(hi - lo);
  PositionVector out;
  if (lo == hi) return out;
  if (col.rep() == Rep::kRle) {
    // One comparison per run; a matching run emits its position range,
    // clipped to [lo, hi). Chunk order is run order is position order.
    const auto& runs = col.runs();
    const uint64_t first = col.RunIndexOf(lo);
    out = MorselSelect(
        ctx, col.RunIndexOf(hi - 1) + 1 - first,
        [&](uint64_t b, uint64_t e, PositionVector* out) {
          for (uint64_t r = first + b; r < first + e; ++r) {
            if (runs[r].value != value) continue;
            AppendRange(std::max<uint64_t>(runs[r].start, lo),
                        std::min<uint64_t>(runs[r].start + runs[r].length, hi),
                        out);
          }
        });
  } else {
    // Compare in the code domain: the probe value is mapped once and no
    // row is ever decoded.
    uint64_t code;
    if (!col.CodeFor(value, &code)) {
      span.set_rows_out(0);
      return out;  // value cannot occur in this column
    }
    const uint64_t* words = col.words().data();
    const int width = col.bit_width();
    out = SelectRows(
        ctx, hi - lo,
        [&](uint64_t i) { return PackedValueAt(words, width, lo + i) == code; },
        [&](uint64_t i) { return static_cast<uint32_t>(lo + i); });
  }
  span.set_rows_out(out.size());
  return out;
}

PositionVector SelectEq(const EncodedColumn& col, const PositionVector& sel,
                        uint64_t value, const exec::ExecContext& ctx) {
  if (col.rep() == Rep::kFlat) {
    return SelectEq(std::span<const uint64_t>(col.flat()), sel, value, ctx);
  }
  obs::Span span(ctx.trace(), "ops.select_eq_enc");
  span.set_rows_in(sel.size());
  PositionVector out;
  if (col.rep() == Rep::kRle) {
    // One reader per morsel: it is stateful and walks its morsel's rows
    // in order.
    out = MorselSelect(
        ctx, sel.size(), [&](uint64_t b, uint64_t e, PositionVector* out) {
          RleReader reader(col);
          CompactInto(
              b, e, [&](uint64_t j) { return reader.At(sel[j]) == value; },
              [&](uint64_t j) { return sel[j]; }, out);
        });
  } else {
    uint64_t code;
    if (!col.CodeFor(value, &code)) {
      span.set_rows_out(0);
      return out;
    }
    const uint64_t* words = col.words().data();
    const int width = col.bit_width();
    out = SelectRows(
        ctx, sel.size(),
        [&](uint64_t j) { return PackedValueAt(words, width, sel[j]) == code; },
        [&](uint64_t j) { return sel[j]; });
  }
  span.set_rows_out(out.size());
  return out;
}

std::pair<uint32_t, uint32_t> EqRangeSorted(const EncodedColumn& col,
                                            uint64_t value) {
  if (col.rep() == Rep::kFlat) {
    return EqRangeSorted(std::span<const uint64_t>(col.flat()), value);
  }
  if (col.rep() == Rep::kRle) {
    // A sorted column's runs are sorted by value: binary search the run
    // directory instead of the row space.
    const auto& runs = col.runs();
    const auto lo = std::lower_bound(
        runs.begin(), runs.end(), value,
        [](const RleRun& r, uint64_t v) { return r.value < v; });
    const auto hi = std::upper_bound(
        lo, runs.end(), value,
        [](uint64_t v, const RleRun& r) { return v < r.value; });
    const uint64_t lo_pos = lo == runs.end() ? col.size() : lo->start;
    const uint64_t hi_pos = hi == runs.end() ? col.size() : hi->start;
    return {static_cast<uint32_t>(lo_pos), static_cast<uint32_t>(hi_pos)};
  }
  const uint64_t lo = EncLowerBound(col, 0, col.size(), value);
  const uint64_t hi = EncUpperBound(col, lo, col.size(), value);
  return {static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)};
}

std::pair<uint32_t, uint32_t> EqRangeSorted2(const EncodedColumn& primary,
                                             const EncodedColumn& secondary,
                                             uint64_t v1, uint64_t v2) {
  const auto [plo, phi] = EqRangeSorted(primary, v1);
  const uint64_t slo = EncLowerBound(secondary, plo, phi, v2);
  const uint64_t shi = EncUpperBound(secondary, slo, phi, v2);
  return {static_cast<uint32_t>(slo), static_cast<uint32_t>(shi)};
}

std::vector<uint64_t> Gather(const EncodedColumn& col,
                             const PositionVector& sel,
                             const exec::ExecContext& ctx) {
  if (col.rep() == Rep::kFlat) {
    return Gather(std::span<const uint64_t>(col.flat()), sel, ctx);
  }
  obs::Span span(ctx.trace(), "ops.gather_enc");
  span.set_rows_in(sel.size());
  span.set_rows_out(sel.size());
  std::vector<uint64_t> out(sel.size());
  if (col.rep() == Rep::kRle) {
    ctx.ParallelFor(sel.size(), kMorsel,
                    [&](uint64_t b, uint64_t e, uint64_t) {
                      RleReader reader(col);
                      for (uint64_t i = b; i < e; ++i) {
                        out[i] = reader.At(sel[i]);
                      }
                    });
  } else {
    const uint64_t* words = col.words().data();
    const int width = col.bit_width();
    ctx.ParallelFor(sel.size(), kMorsel,
                    [&](uint64_t b, uint64_t e, uint64_t) {
                      for (uint64_t i = b; i < e; ++i) {
                        out[i] = col.DecodeCode(
                            PackedValueAt(words, width, sel[i]));
                      }
                    });
  }
  return out;
}

PositionVector SelectMarked(const EncodedColumn& col, const MarkSet& set,
                            const exec::ExecContext& ctx) {
  return SelectMarked(col, 0, col.size(), set, ctx);
}

PositionVector SelectMarked(const EncodedColumn& col, uint64_t lo,
                            uint64_t hi, const MarkSet& set,
                            const exec::ExecContext& ctx) {
  SWAN_DCHECK_LE(lo, hi);
  SWAN_DCHECK_LE(hi, col.size());
  if (col.rep() == Rep::kFlat) {
    PositionVector out = SelectMarked(
        std::span<const uint64_t>(col.flat()).subspan(lo, hi - lo), set, ctx);
    for (uint32_t& p : out) p += static_cast<uint32_t>(lo);
    return out;
  }
  obs::Span span(ctx.trace(), "ops.select_marked_enc");
  span.set_rows_in(hi - lo);
  PositionVector out;
  if (lo == hi) return out;
  if (col.rep() == Rep::kRle) {
    // One membership test per run, its positions clipped to [lo, hi).
    const auto& runs = col.runs();
    const uint64_t first = col.RunIndexOf(lo);
    out = MorselSelect(
        ctx, col.RunIndexOf(hi - 1) + 1 - first,
        [&](uint64_t b, uint64_t e, PositionVector* out) {
          for (uint64_t r = first + b; r < first + e; ++r) {
            if (!set.Test(runs[r].value)) continue;
            AppendRange(std::max<uint64_t>(runs[r].start, lo),
                        std::min<uint64_t>(runs[r].start + runs[r].length, hi),
                        out);
          }
        });
  } else {
    // Hoist the membership test into code space: one Test per palette
    // entry up front, then the scan never decodes.
    const uint64_t* words = col.words().data();
    const int width = col.bit_width();
    const auto at = [&](uint64_t i) {
      return static_cast<uint32_t>(lo + i);
    };
    if (col.palette().empty()) {
      out = SelectRows(
          ctx, hi - lo,
          [&](uint64_t i) {
            return set.Test(PackedValueAt(words, width, lo + i));
          },
          at);
    } else {
      std::vector<char> code_marked(col.palette().size());
      for (size_t c = 0; c < col.palette().size(); ++c) {
        code_marked[c] = set.Test(col.palette()[c]) ? 1 : 0;
      }
      out = SelectRows(
          ctx, hi - lo,
          [&](uint64_t i) {
            return code_marked[PackedValueAt(words, width, lo + i)] != 0;
          },
          at);
    }
  }
  span.set_rows_out(out.size());
  return out;
}

PositionVector SelectMarked(const EncodedColumn& col, const PositionVector& sel,
                            const MarkSet& set, const exec::ExecContext& ctx) {
  if (col.rep() == Rep::kFlat) {
    return SelectMarked(std::span<const uint64_t>(col.flat()), sel, set, ctx);
  }
  obs::Span span(ctx.trace(), "ops.select_marked_enc");
  span.set_rows_in(sel.size());
  PositionVector out;
  if (col.rep() == Rep::kRle) {
    // One reader per morsel: it is stateful and walks its rows in order.
    out = MorselSelect(
        ctx, sel.size(), [&](uint64_t b, uint64_t e, PositionVector* out) {
          RleReader reader(col);
          CompactInto(
              b, e, [&](uint64_t j) { return set.Test(reader.At(sel[j])); },
              [&](uint64_t j) { return sel[j]; }, out);
        });
  } else {
    const uint64_t* words = col.words().data();
    const int width = col.bit_width();
    out = SelectRows(
        ctx, sel.size(),
        [&](uint64_t j) {
          return set.Test(col.DecodeCode(PackedValueAt(words, width, sel[j])));
        },
        [&](uint64_t j) { return sel[j]; });
  }
  span.set_rows_out(out.size());
  return out;
}

namespace {

// SelectPassing over [lo, hi) or over a selection: `rows...` is either.
template <typename... Rows>
PositionVector SelectPassingIn(const EncodedColumn& col,
                               const rdf::ScanFilter& filter,
                               uint64_t universe, const exec::ExecContext& ctx,
                               const Rows&... rows) {
  SWAN_DCHECK(!filter.all());
  if (filter.kind() == rdf::ScanFilter::Kind::kIn) {
    if (filter.ids().empty()) return {};
    if (filter.ids().size() == 1) {
      return SelectEq(col, rows..., filter.ids()[0], ctx);
    }
  }
  if (filter.marks().universe() >= universe) {
    return SelectMarked(col, rows..., filter.marks(), ctx);
  }
  return SelectMarked(col, rows..., filter.marks().Widened(universe), ctx);
}

}  // namespace

PositionVector SelectPassing(const EncodedColumn& col, uint64_t lo,
                             uint64_t hi, const rdf::ScanFilter& filter,
                             uint64_t universe, const exec::ExecContext& ctx) {
  return SelectPassingIn(col, filter, universe, ctx, lo, hi);
}

PositionVector SelectPassing(const EncodedColumn& col,
                             const PositionVector& sel,
                             const rdf::ScanFilter& filter, uint64_t universe,
                             const exec::ExecContext& ctx) {
  return SelectPassingIn(col, filter, universe, ctx, sel);
}

std::vector<std::pair<uint64_t, uint64_t>> CountByKeyDense(
    const EncodedColumn& keys, uint64_t universe_size,
    const exec::ExecContext& ctx) {
  if (keys.rep() == Rep::kFlat) {
    return CountByKeyDense(std::span<const uint64_t>(keys.flat()),
                           universe_size, ctx);
  }
  obs::Span span(ctx.trace(), "ops.count_by_key_enc");
  span.set_rows_in(keys.size());
  std::vector<std::pair<uint64_t, uint64_t>> out;
  if (keys.rep() == Rep::kRle) {
    // A run adds its length to one counter: O(runs), not O(rows).
    const auto& runs = keys.runs();
    out = DenseCount(ctx, runs.size(), universe_size,
                     [&](uint64_t b, uint64_t e, std::vector<uint64_t>* c) {
                       for (uint64_t r = b; r < e; ++r) {
                         SWAN_DCHECK_LT(runs[r].value, universe_size);
                         (*c)[runs[r].value] += runs[r].length;
                       }
                     });
  } else if (!keys.palette().empty()) {
    // Aggregate in code space — the counter array is palette-sized, not
    // universe-sized — then decode once per distinct value. The palette
    // is sorted, so the output is value-ordered like the span kernel's.
    const uint64_t* words = keys.words().data();
    const int width = keys.bit_width();
    out = DenseCount(ctx, keys.size(), keys.palette().size(),
                     [&](uint64_t b, uint64_t e, std::vector<uint64_t>* c) {
                       for (uint64_t i = b; i < e; ++i) {
                         ++(*c)[PackedValueAt(words, width, i)];
                       }
                     });
    for (auto& [value, count] : out) value = keys.palette()[value];
  } else {
    const uint64_t* words = keys.words().data();
    const int width = keys.bit_width();
    out = DenseCount(ctx, keys.size(), universe_size,
                     [&](uint64_t b, uint64_t e, std::vector<uint64_t>* c) {
                       for (uint64_t i = b; i < e; ++i) {
                         const uint64_t v = PackedValueAt(words, width, i);
                         SWAN_DCHECK_LT(v, universe_size);
                         ++(*c)[v];
                       }
                     });
  }
  span.set_rows_out(out.size());
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> CountByKeyDense(
    const EncodedColumn& col, const PositionVector& sel,
    uint64_t universe_size, const exec::ExecContext& ctx) {
  if (col.rep() == Rep::kFlat) {
    return CountByKeyDense(std::span<const uint64_t>(col.flat()), sel,
                           universe_size, ctx);
  }
  obs::Span span(ctx.trace(), "ops.count_by_key_enc");
  span.set_rows_in(sel.size());
  std::vector<std::pair<uint64_t, uint64_t>> out;
  if (col.rep() == Rep::kRle) {
    out = DenseCount(ctx, sel.size(), universe_size,
                     [&](uint64_t b, uint64_t e, std::vector<uint64_t>* c) {
                       RleReader reader(col);
                       for (uint64_t j = b; j < e; ++j) {
                         const uint64_t v = reader.At(sel[j]);
                         SWAN_DCHECK_LT(v, universe_size);
                         ++(*c)[v];
                       }
                     });
  } else if (!col.palette().empty()) {
    const uint64_t* words = col.words().data();
    const int width = col.bit_width();
    out = DenseCount(ctx, sel.size(), col.palette().size(),
                     [&](uint64_t b, uint64_t e, std::vector<uint64_t>* c) {
                       for (uint64_t j = b; j < e; ++j) {
                         ++(*c)[PackedValueAt(words, width, sel[j])];
                       }
                     });
    for (auto& [value, count] : out) value = col.palette()[value];
  } else {
    const uint64_t* words = col.words().data();
    const int width = col.bit_width();
    out = DenseCount(ctx, sel.size(), universe_size,
                     [&](uint64_t b, uint64_t e, std::vector<uint64_t>* c) {
                       for (uint64_t j = b; j < e; ++j) {
                         const uint64_t v =
                             PackedValueAt(words, width, sel[j]);
                         SWAN_DCHECK_LT(v, universe_size);
                         ++(*c)[v];
                       }
                     });
  }
  span.set_rows_out(out.size());
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> CountMarkedByKey(
    const EncodedColumn& keys, const EncodedColumn& marked,
    const MarkSet& marks, uint64_t universe_size,
    const exec::ExecContext& ctx) {
  SWAN_CHECK_EQ(keys.size(), marked.size());
  obs::Span span(ctx.trace(), "col.count_props");
  span.set_rows_in(keys.size());
  const auto accumulate = [&](uint64_t b, uint64_t e,
                              std::vector<uint64_t>* counts) {
    if (b >= e) return;
    if (keys.rep() == Rep::kRle) {
      for (size_t r = keys.RunIndexOf(b);; ++r) {
        const RleRun& run = keys.runs()[r];
        const uint64_t lo = std::max<uint64_t>(run.start, b);
        const uint64_t hi = std::min<uint64_t>(run.start + run.length, e);
        uint64_t hits = 0;
        ForEachDecodedRows<1>(
            {&marked}, lo, hi, [&](uint64_t, const auto& v, uint64_t n) {
              for (uint64_t i = 0; i < n; ++i) hits += marks.Test(v[0][i]);
            });
        (*counts)[run.value] += hits;
        if (hi >= e) break;
      }
      return;
    }
    ForEachDecodedRows<2>(
        {&keys, &marked}, b, e, [&](uint64_t, const auto& v, uint64_t n) {
          for (uint64_t i = 0; i < n; ++i) {
            SWAN_DCHECK_LT(v[0][i], universe_size);
            (*counts)[v[0][i]] += marks.Test(v[1][i]);
          }
        });
  };
  std::vector<std::pair<uint64_t, uint64_t>> out =
      DenseCount(ctx, keys.size(), universe_size, accumulate);
  span.set_rows_out(out.size());
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> MergeJoin(
    std::span<const uint64_t> left, const EncodedColumn& right, uint64_t rlo,
    uint64_t rhi, const exec::ExecContext& ctx) {
  SWAN_DCHECK_LE(rlo, rhi);
  SWAN_DCHECK_LE(rhi, right.size());
  if (right.rep() == Rep::kFlat) {
    // Right indices of the span kernel are already relative to the
    // subspan start.
    return MergeJoin(
        left,
        std::span<const uint64_t>(right.flat()).subspan(rlo, rhi - rlo), ctx);
  }
  obs::Span span(ctx.trace(), "ops.merge_join_enc");
  span.set_rows_in(left.size() + (rhi - rlo));
  obs::Histogram* run_lengths = RunLengthHist(ctx);
  if (!ctx.parallel() || left.size() + (rhi - rlo) < 2 * kMorsel) {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    MergeJoinEncInto(left, 0, right, rlo, rhi, rlo, &out, run_lengths);
    span.set_rows_out(out.size());
    return out;
  }

  // Partition the encoded side at equal-run edges; each partition
  // recovers its matching left range by binary search. Same ordering
  // argument as the span kernel: partition p's key range strictly
  // precedes p+1's, so concatenation reproduces the serial sequence.
  const uint64_t parts_target =
      std::max<uint64_t>(static_cast<uint64_t>(ctx.threads()),
                         (rhi - rlo) / kMorsel);
  const std::vector<uint64_t> bounds =
      EncRunAlignedBoundaries(right, rlo, rhi, parts_target);
  const uint64_t parts = bounds.size() - 1;
  if (parts <= 1) {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    MergeJoinEncInto(left, 0, right, rlo, rhi, rlo, &out, run_lengths);
    span.set_rows_out(out.size());
    return out;
  }
  ctx.counters().merge_join_partitions.fetch_add(parts,
                                                 std::memory_order_relaxed);

  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> outs(parts);
  ctx.ParallelFor(parts, 1, [&](uint64_t pb, uint64_t pe, uint64_t) {
    for (uint64_t p = pb; p < pe; ++p) {
      const uint64_t blo = bounds[p];
      const uint64_t bhi = bounds[p + 1];
      const uint64_t first = right.ValueAt(blo);
      const uint64_t last = right.ValueAt(bhi - 1);
      const uint64_t llo = static_cast<uint64_t>(
          std::lower_bound(left.begin(), left.end(), first) - left.begin());
      const uint64_t lhi = static_cast<uint64_t>(
          std::upper_bound(left.begin() + static_cast<ptrdiff_t>(llo),
                           left.end(), last) -
          left.begin());
      MergeJoinEncInto(left.subspan(llo, lhi - llo),
                       static_cast<uint32_t>(llo), right, blo, bhi, rlo,
                       &outs[p], run_lengths);
    }
  });

  size_t total = 0;
  for (const auto& o : outs) total += o.size();
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(total);
  for (const auto& o : outs) out.insert(out.end(), o.begin(), o.end());
  span.set_rows_out(out.size());
  return out;
}

uint64_t MergeCountMatches(const EncodedColumn& values, uint64_t lo,
                           uint64_t hi, std::span<const uint64_t> keys,
                           const exec::ExecContext& ctx) {
  SWAN_DCHECK_LE(lo, hi);
  SWAN_DCHECK_LE(hi, values.size());
  if (values.rep() == Rep::kFlat) {
    return MergeCountMatches(
        std::span<const uint64_t>(values.flat()).subspan(lo, hi - lo), keys,
        ctx);
  }
  obs::Span span(ctx.trace(), "ops.merge_count_enc");
  span.set_rows_in((hi - lo) + keys.size());
  // Run-by-run merge: a matching run contributes its length in O(1), so
  // the cost is O(runs + keys in the range's value span) regardless of
  // row count. Callers that want parallelism fan out over row ranges
  // (counts are additive).
  uint64_t count = 0;
  if (lo < hi) {
    keys = KeysBetween(keys, values.ValueAt(lo), values.ValueAt(hi - 1));
  }
  RunCursor rc(values, lo, hi);
  size_t j = 0;
  while (!rc.done() && j < keys.size()) {
    if (rc.value() < keys[j]) {
      rc.Next();
    } else if (keys[j] < rc.value()) {
      ++j;
    } else {
      count += rc.length();
      rc.Next();
      ++j;  // keys are unique
    }
  }
  span.set_rows_out(count);
  return count;
}

PositionVector MergeSelectPositions(const EncodedColumn& values, uint64_t lo,
                                    uint64_t hi,
                                    std::span<const uint64_t> keys,
                                    const exec::ExecContext& ctx) {
  SWAN_DCHECK_LE(lo, hi);
  SWAN_DCHECK_LE(hi, values.size());
  if (values.rep() == Rep::kFlat) {
    return MergeSelectPositions(
        std::span<const uint64_t>(values.flat()).subspan(lo, hi - lo), keys,
        ctx);
  }
  obs::Span span(ctx.trace(), "ops.merge_select_enc");
  span.set_rows_in((hi - lo) + keys.size());
  PositionVector out;
  if (lo < hi) {
    keys = KeysBetween(keys, values.ValueAt(lo), values.ValueAt(hi - 1));
  }
  RunCursor rc(values, lo, hi);
  size_t j = 0;
  while (!rc.done() && j < keys.size()) {
    if (rc.value() < keys[j]) {
      rc.Next();
    } else if (keys[j] < rc.value()) {
      ++j;
    } else {
      // A matching run emits its position range without decoding.
      AppendRange(rc.start() - lo, rc.end() - lo, &out);
      rc.Next();
      ++j;  // keys are unique
    }
  }
  span.set_rows_out(out.size());
  return out;
}

}  // namespace swan::colstore
