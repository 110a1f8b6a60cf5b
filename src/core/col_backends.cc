#include "core/col_backends.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <span>

#include "colstore/pattern_scan.h"
#include "common/macros.h"
#include "obs/trace.h"

namespace swan::core {

namespace {

using colstore::CompactInto;
using colstore::CountByKeyDense;
using colstore::CountMarkedByKey;
using colstore::CountPairs;
using colstore::EncodedColumn;
using colstore::ForEachDecodedRows;
using colstore::Gather;
using colstore::kMorsel;
using colstore::MarkSet;
using colstore::MergeCountMatches;
using colstore::MergeSelectPositions;
using colstore::MinCount;
using colstore::MorselSelect;
using colstore::PairCount;
using colstore::PositionVector;
using colstore::SelectEq;
using colstore::SelectMarked;
using colstore::SortDistinct;
using colstore::UnionDistinct;

// Chunked positional scan over two aligned encoded columns: decodes
// kDecodeBatch values of each at a time and compacts the positions i where
// pred(a[i], b[i]), morsel by morsel, concatenated in chunk order — the
// serial scan's output. Neither column is ever fully materialized.
template <typename Pred>
PositionVector ScanPairPositions(const exec::ExecContext& ectx,
                                 const EncodedColumn& a,
                                 const EncodedColumn& b, const Pred& pred) {
  obs::Span span(ectx.trace(), "col.scan_positions");
  span.set_rows_in(a.size());
  PositionVector out = MorselSelect(
      ectx, a.size(), [&](uint64_t lo, uint64_t hi, PositionVector* out) {
        ForEachDecodedRows<2>(
            {&a, &b}, lo, hi, [&](uint64_t base, const auto& v, uint64_t n) {
              CompactInto(
                  0, n, [&](uint64_t i) { return pred(v[0][i], v[1][i]); },
                  [&](uint64_t i) { return static_cast<uint32_t>(base + i); },
                  out);
            });
      });
  span.set_rows_out(out.size());
  return out;
}

// One (property, row-range) work unit of a flattened per-property fan-out.
struct PropMorsel {
  uint32_t prop_idx;
  uint32_t lo;
  uint32_t hi;
};

// Splits every property's partition rows into ~kMorsel-row morsels,
// in (property, range) order. Fanning out over these instead of whole
// properties lets one giant partition (the q4*-family skew case, where a
// handful of properties hold most of the data) load-balance across lanes
// instead of serializing on a single one.
template <typename RowCountFn>
std::vector<PropMorsel> FlattenPropMorsels(uint64_t props,
                                           const RowCountFn& rows_of) {
  std::vector<PropMorsel> morsels;
  for (uint64_t k = 0; k < props; ++k) {
    const uint64_t n = rows_of(k);
    for (uint64_t lo = 0; lo < n; lo += kMorsel) {
      morsels.push_back({static_cast<uint32_t>(k), static_cast<uint32_t>(lo),
                         static_cast<uint32_t>(std::min(lo + kMorsel, n))});
    }
  }
  return morsels;
}

// Folds a write store into sorted base rows in one linear pass: the base
// rows (each_base(emit) calls emit(row) for every one, ascending by
// `less`) minus `gone`, plus `fresh`, which holds no base row (Insert
// rejects those). Both runs are sorted by `less`.
template <typename Row, typename EachBase, typename Less>
std::vector<Row> MergeSortedRuns(size_t base_rows, const EachBase& each_base,
                                 const std::vector<Row>& gone,
                                 const std::vector<Row>& fresh, Less less) {
  std::vector<Row> out;
  out.reserve(base_rows + fresh.size());
  size_t g = 0;
  size_t f = 0;
  each_base([&](const Row& row) {
    while (f < fresh.size() && less(fresh[f], row)) out.push_back(fresh[f++]);
    while (g < gone.size() && less(gone[g], row)) ++g;
    if (g < gone.size() && !less(row, gone[g])) return;
    out.push_back(row);
  });
  out.insert(out.end(), fresh.begin() + f, fresh.end());
  return out;
}

// The column triple store keeps SPO or PSO order.
rdf::TripleOrder SupportedOrder(rdf::TripleOrder order) {
  SWAN_CHECK_MSG(
      order == rdf::TripleOrder::kSPO || order == rdf::TripleOrder::kPSO,
      "column triple-store supports SPO or PSO sort order");
  return order;
}

}  // namespace

// ---------------------------------------------------------------------------
// WriteStore
// ---------------------------------------------------------------------------

Status WriteStore::Insert(const rdf::Triple& triple) {
  if (tombstones_.erase(triple) != 0) return Status::OK();
  if (insert_set_.count(triple) != 0 || base_contains_(triple)) {
    return Status::AlreadyExists("triple already present");
  }
  inserts_.push_back(triple);
  insert_set_.insert(triple);
  return Status::OK();
}

Status WriteStore::Delete(const rdf::Triple& triple) {
  if (insert_set_.erase(triple) != 0) {
    inserts_.erase(std::find(inserts_.begin(), inserts_.end(), triple));
    return Status::OK();
  }
  if (tombstones_.count(triple) != 0 || !base_contains_(triple)) {
    return Status::NotFound("triple not present");
  }
  tombstones_.insert(triple);
  return Status::OK();
}

void WriteStore::Overlay(const rdf::TriplePattern& pattern,
                         const rdf::PatternFilter& filter,
                         std::vector<rdf::Triple>* out) const {
  if (!tombstones_.empty()) {
    std::erase_if(*out, [&](const rdf::Triple& t) {
      return tombstones_.count(t) != 0;
    });
  }
  for (const rdf::Triple& t : inserts_) {
    // swan-lint: allow(post-filter)
    if (pattern.Matches(t) && filter.Passes(t)) out->push_back(t);
  }
}

WriteStore::Runs WriteStore::SortedRuns(rdf::TripleOrder order) const {
  const auto less = [order](const rdf::Triple& a, const rdf::Triple& b) {
    return rdf::KeyOf(a, order) < rdf::KeyOf(b, order);
  };
  Runs runs{{tombstones_.begin(), tombstones_.end()}, inserts_};
  std::sort(runs.gone.begin(), runs.gone.end(), less);
  std::sort(runs.fresh.begin(), runs.fresh.end(), less);
  return runs;
}

void WriteStore::Clear() {
  inserts_.clear();
  insert_set_.clear();
  tombstones_.clear();
}

// ---------------------------------------------------------------------------
// ColTripleBackend
// ---------------------------------------------------------------------------

ColTripleBackend::ColTripleBackend(const rdf::Dataset& dataset,
                                   rdf::TripleOrder order,
                                   storage::DiskConfig disk_config,
                                   size_t pool_pages,
                                   colstore::ColumnCodec codec)
    : ColumnStore("col_triple", dataset, disk_config, pool_pages,
                  SupportedOrder(order), codec),
      codec_(codec) {}

ColTripleBackend::ColTripleBackend(const rdf::Dataset& dataset,
                                   rdf::TripleOrder order,
                                   storage::SimulatedDisk* disk,
                                   storage::BufferPool* pool,
                                   std::vector<rdf::Triple> subset,
                                   colstore::ColumnCodec codec)
    : ColumnStore("col_triple", dataset, disk, pool, std::move(subset),
                  SupportedOrder(order), codec),
      codec_(codec) {}

std::string ColTripleBackend::name() const {
  return std::string("MonetDB triple ") + ToString(table_->order());
}

PositionVector ColTripleBackend::PropPositions(
    uint64_t property, const exec::ExecContext& ectx) const {
  if (pso_) {
    const auto [lo, hi] = table_->PrimaryRange(property);
    PositionVector out(hi - lo);
    std::iota(out.begin(), out.end(), lo);
    return out;
  }
  return SelectEq(table_->encoded_properties(), property, ectx);
}

std::vector<uint64_t> ColTripleBackend::SubjectsOf(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx) const {
  // PSO holds the property's rows as one range: select in it directly.
  PositionVector sel;
  if (pso_) {
    const auto [lo, hi] = table_->PrimaryRange(property);
    sel = SelectEq(table_->encoded_objects(), lo, hi, object, ectx);
  } else {
    sel = SelectEq(table_->encoded_objects(), PropPositions(property, ectx),
                   object, ectx);
  }
  // Subjects come out ascending in both sort orders: SPO is globally
  // subject-sorted, PSO is subject-sorted within one property.
  return Gather(table_->encoded_subjects(), sel, ectx);
}

std::vector<uint64_t> ColTripleBackend::ObjectsOf(
    uint64_t subject, const exec::ExecContext& ectx) const {
  if (pso_) {
    const PositionVector sel =
        SelectEq(table_->encoded_subjects(), subject, ectx);
    return SortDistinct(Gather(table_->encoded_objects(), sel, ectx));
  }
  const auto [lo, hi] = table_->PrimaryRange(subject);
  std::vector<uint64_t> objects(hi - lo);
  table_->encoded_objects().MaterializeInto(lo, hi, objects.data());
  return SortDistinct(std::move(objects));
}

KeyCounts ColTripleBackend::ObjectCounts(uint64_t property, uint64_t universe,
                                         const exec::ExecContext& ectx) const {
  const PositionVector sel = PropPositions(property, ectx);
  return CountByKeyDense(table_->encoded_objects(), sel, universe, ectx);
}

KeyCounts ColTripleBackend::PropertyCounts(
    std::span<const uint64_t> subjects, const std::vector<uint64_t>* props,
    uint64_t universe, const exec::ExecContext& ectx) const {
  MarkSet marked(universe);
  marked.MarkAll(subjects);
  MarkSet scope(props != nullptr ? universe : 1);
  if (props != nullptr) scope.MarkAll(*props);

  // Count every property of the marked subjects (morsel-parallel), then
  // apply the property filter when emitting — non-interesting properties
  // simply never produce a row, so the rows match a fused filter scan.
  KeyCounts out;
  for (const auto& [p, count] :
       CountMarkedByKey(table_->encoded_properties(),
                        table_->encoded_subjects(), marked, universe, ectx)) {
    if (props == nullptr || scope.Test(p)) out.emplace_back(p, count);
  }
  return out;
}

std::vector<PairCount> ColTripleBackend::PropertyObjectCounts(
    std::span<const uint64_t> subjects, const std::vector<uint64_t>* props,
    uint64_t universe, const MinCount& min_count,
    const exec::ExecContext& ectx) const {
  MarkSet marked(universe);
  marked.MarkAll(subjects);
  MarkSet scope(props != nullptr ? universe : 1);
  if (props != nullptr) scope.MarkAll(*props);

  const PositionVector sel = ScanPairPositions(
      ectx, table_->encoded_subjects(), table_->encoded_properties(),
      [&](uint64_t s, uint64_t p) {
        // `&`, not `&&`: a branch on the subject test would mispredict.
        return marked.Test(s) & (props == nullptr || scope.Test(p));
      });
  const std::vector<uint64_t> ps =
      Gather(table_->encoded_properties(), sel, ectx);
  const std::vector<uint64_t> os = Gather(table_->encoded_objects(), sel, ectx);
  return CountPairs(ps, os, universe, min_count, ectx);
}

SubjectObjects ColTripleBackend::SubjectObjectPairs(
    uint64_t property, std::span<const uint64_t> subjects,
    const exec::ExecContext& ectx) const {
  // Both sort orders keep one property's rows in (subject, object) order,
  // so a merge against the sorted filter selects them; only the selected
  // rows decode.
  PositionVector sel;
  if (pso_) {
    const auto [lo, hi] = table_->PrimaryRange(property);
    sel = MergeSelectPositions(table_->encoded_subjects(), lo, hi, subjects,
                               ectx);
    for (uint32_t& p : sel) p += lo;
  } else {
    const PositionVector rows = PropPositions(property, ectx);
    const std::vector<uint64_t> rs =
        Gather(table_->encoded_subjects(), rows, ectx);
    for (uint32_t i : MergeSelectPositions(rs, subjects, ectx)) {
      sel.push_back(rows[i]);
    }
  }
  const std::vector<uint64_t> ps = Gather(table_->encoded_subjects(), sel, ectx);
  const std::vector<uint64_t> po = Gather(table_->encoded_objects(), sel, ectx);
  SubjectObjects out(sel.size());
  for (size_t i = 0; i < sel.size(); ++i) out[i] = {ps[i], po[i]};
  return out;
}

std::vector<uint64_t> ColTripleBackend::SubjectsWithObjectIn(
    std::span<const uint64_t> object_list, std::optional<uint64_t> property,
    uint64_t universe, const exec::ExecContext& ectx) const {
  MarkSet objects(universe);
  objects.MarkAll(object_list);
  if (!property) {
    const PositionVector hits =
        SelectMarked(table_->encoded_objects(), objects, ectx);
    return SortDistinct(Gather(table_->encoded_subjects(), hits, ectx));
  }
  // The property's rows select through the object marks, the ranged
  // SelectMarked a filtered Match runs, and only the kept subjects are
  // gathered. The columns load in the order the gathers read them before:
  // properties, subjects, objects.
  const PositionVector positions =
      pso_ ? PositionVector() : PropPositions(*property, ectx);
  const auto [lo, hi] = pso_ ? table_->PrimaryRange(*property)
                             : std::pair<uint32_t, uint32_t>(0, 0);
  const EncodedColumn& subj = table_->encoded_subjects();
  const PositionVector sel =
      pso_ ? SelectMarked(table_->encoded_objects(), lo, hi, objects, ectx)
           : SelectMarked(table_->encoded_objects(), positions, objects, ectx);
  // One property's subjects come out sorted (see SubjectObjectPairs), so
  // duplicates are adjacent.
  std::vector<uint64_t> out = Gather(subj, sel, ectx);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ColTripleBackend::BaseContains(const rdf::Triple& t) const {
  const auto [lo, hi] =
      pso_ ? table_->PrimarySecondaryRange(t.property, t.subject)
           : table_->PrimarySecondaryRange(t.subject, t.property);
  // Point probes decode only the rows of the (usually tiny) range.
  const EncodedColumn& obj = table_->encoded_objects();
  for (uint32_t i = lo; i < hi; ++i) {
    if (obj.ValueAt(i) == t.object) return true;
  }
  return false;
}

uint64_t ColTripleBackend::EnsureMerged() {
  // Merge the write store into the read-optimized columns: decode the base
  // columns batch by batch, drop tombstoned rows, merge in the delta, and
  // rebuild — the full cost a sorted-column store pays for updates.
  const EncodedColumn& subj = table_->encoded_subjects();
  const EncodedColumn& prop = table_->encoded_properties();
  const EncodedColumn& obj = table_->encoded_objects();
  const rdf::TripleOrder order = table_->order();
  const WriteStore::Runs runs = writes_.SortedRuns(order);
  std::vector<rdf::Triple> all = MergeSortedRuns(
      subj.size(),
      [&](const auto& emit) {
        ForEachDecodedRows<3>(
            {&subj, &prop, &obj}, 0, subj.size(),
            [&](uint64_t, const auto& v, uint64_t n) {
              for (uint64_t i = 0; i < n; ++i) {
                emit(rdf::Triple{v[0][i], v[1][i], v[2][i]});
              }
            });
      },
      runs.gone, runs.fresh,
      [order](const rdf::Triple& a, const rdf::Triple& b) {
        return rdf::KeyOf(a, order) < rdf::KeyOf(b, order);
      });
  const uint64_t rows = all.size();
  // The merged table replaces the old one: free the old columns' pages.
  for (int c = 0; c < 3; ++c) disk_->DropFile(table_->column(c).file_id());
  table_ = std::make_unique<colstore::TripleTable>(pool_, disk_, order,
                                                   codec_);
  table_->Load(std::move(all));
  writes_.Clear();
  return rows;
}

std::vector<rdf::Triple> ColTripleBackend::Match(
    const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
    const exec::ExecContext& ectx) const {
  // Suppressed automatically when Match runs inside a BGP worker lane.
  obs::Span span(ectx.trace(), "col_triple.match");
  std::vector<rdf::Triple> out;
  if (!filter.AdmitsConstants(pattern)) {
    span.set_rows_out(0);
    return out;
  }
  // The one column scan, over the three columns in subject, property,
  // object order, sorted in the table's order.
  const auto comp = rdf::ComponentsOf(table_->order());
  const std::array<const colstore::Column*, 3> cols = {
      &table_->column(0), &table_->column(1), &table_->column(2)};
  const std::array<const rdf::ScanFilter*, 3> filters = {
      &filter.Free(pattern, 0), &filter.Free(pattern, 1),
      &filter.Free(pattern, 2)};
  const std::array<std::optional<uint64_t>, 3> bound = {
      pattern.subject, pattern.property, pattern.object};
  const auto scan = [&](const std::array<std::optional<uint64_t>, 3>& one) {
    colstore::MatchColumns<3>(
        cols, comp, one, filters, dataset_->dict().size(), ectx,
        [&](const auto& v, uint64_t n) {
          for (uint64_t i = 0; i < n; ++i) {
            out.push_back({v[0][i], v[1][i], v[2][i]});
          }
        });
  };
  if (filters[comp[0]]->kind() == rdf::ScanFilter::Kind::kIn) {
    // A listed leading value narrows the sort order to its range: one
    // range per listed id (a PSO store's property list, one PSO range
    // each), in ascending order like the unfiltered scan.
    for (uint64_t v : filters[comp[0]]->ids()) {
      std::array<std::optional<uint64_t>, 3> one = bound;
      one[comp[0]] = v;
      scan(one);
    }
  } else {
    scan(bound);
  }
  writes_.Overlay(pattern, filter, &out);
  span.set_rows_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// ColVerticalBackend
// ---------------------------------------------------------------------------

bool ColVerticalBackend::BaseContains(const rdf::Triple& t) const {
  if (!table_->HasPartition(t.property)) return false;
  const auto [lo, hi] = table_->SubjectRange(t.property, t.subject);
  const EncodedColumn& obj = table_->EncodedObjects(t.property);
  for (uint32_t i = lo; i < hi; ++i) {
    if (obj.ValueAt(i) == t.object) return true;
  }
  return false;
}

uint64_t ColVerticalBackend::partitions_created() const {
  std::unordered_set<uint64_t> fresh;
  for (const rdf::Triple& t : writes_.inserts()) {
    if (!table_->HasPartition(t.property)) fresh.insert(t.property);
  }
  return table_->properties().size() - loaded_partitions_ + fresh.size();
}

uint64_t ColVerticalBackend::EnsureMerged() {
  // Every partition touched by an insert or a delete is rebuilt in full —
  // the data-driven vertical schema's update cost the paper warns about.
  using Row = std::pair<uint64_t, uint64_t>;
  // Per touched property: its tombstoned rows and its inserts, ascending
  // by (subject, object) since the runs come in PSO order.
  const WriteStore::Runs runs = writes_.SortedRuns(rdf::TripleOrder::kPSO);
  std::map<uint64_t, std::pair<std::vector<Row>, std::vector<Row>>> touched;
  for (const rdf::Triple& t : runs.gone) {
    touched[t.property].first.emplace_back(t.subject, t.object);
  }
  for (const rdf::Triple& t : runs.fresh) {
    touched[t.property].second.emplace_back(t.subject, t.object);
  }
  uint64_t rewritten = 0;
  for (const auto& [property, writes] : touched) {
    const bool has_base = table_->HasPartition(property);
    const EncodedColumn* subj =
        has_base ? &table_->EncodedSubjects(property) : nullptr;
    const EncodedColumn* obj =
        has_base ? &table_->EncodedObjects(property) : nullptr;
    const std::vector<Row> rows = MergeSortedRuns(
        has_base ? subj->size() : 0,
        [&](const auto& emit) {
          if (!has_base) return;
          ForEachDecodedRows<2>(
              {subj, obj}, 0, subj->size(),
              [&](uint64_t, const auto& v, uint64_t n) {
                for (uint64_t i = 0; i < n; ++i) emit(Row{v[0][i], v[1][i]});
              });
        },
        writes.first, writes.second, std::less<Row>());
    rewritten += rows.size();
    table_->ReplacePartition(property, rows);
  }
  writes_.Clear();
  return rewritten;
}

// Every phase reads a partition's second column only at the rows its
// first column's selection kept: an empty selection leaves it unopened.

std::vector<uint64_t> ColVerticalBackend::SubjectsOf(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx) const {
  if (!table_->HasPartition(property)) return {};
  const PositionVector sel =
      SelectEq(table_->EncodedObjects(property), object, ectx);
  if (sel.empty()) return {};
  // Subject columns are sorted, so the gathered subset stays sorted.
  return Gather(table_->EncodedSubjects(property), sel, ectx);
}

std::vector<uint64_t> ColVerticalBackend::ObjectsOf(
    uint64_t subject, const exec::ExecContext& ectx) const {
  // Visits *every* property table: one sub-plan per partition; empty
  // per-property lists contribute nothing to the union.
  const std::vector<uint64_t>& all_props = table_->properties();
  std::vector<std::vector<uint64_t>> object_lists(all_props.size());
  ectx.ParallelFor(
      all_props.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
        for (uint64_t k = b; k < e; ++k) {
          const uint64_t p = all_props[k];
          const auto [lo, hi] = table_->SubjectRange(p, subject);
          if (lo == hi) continue;
          object_lists[k].resize(hi - lo);
          table_->EncodedObjects(p).MaterializeInto(lo, hi,
                                                    object_lists[k].data());
        }
      });
  return UnionDistinct(object_lists, ectx);
}

KeyCounts ColVerticalBackend::ObjectCounts(
    uint64_t property, uint64_t universe,
    const exec::ExecContext& ectx) const {
  if (!table_->HasPartition(property)) return {};
  return CountByKeyDense(table_->EncodedObjects(property), universe, ectx);
}

KeyCounts ColVerticalBackend::PropertyCounts(
    std::span<const uint64_t> subjects, const std::vector<uint64_t>* props,
    uint64_t universe, const exec::ExecContext& ectx) const {
  (void)universe;
  // One merge join per property table, then the implicit union of all the
  // per-partition results — the plan shape the Perl-generated SQL produces.
  // The fan-out is over flattened (property, row-range) morsels rather
  // than whole properties, so the handful of giant partitions that
  // dominate q2* load-balance across lanes; per-morsel counts are
  // additive per property, so the totals match the serial loop exactly.
  // Properties without a partition here have no morsels.
  const std::vector<uint64_t>& list =
      props != nullptr ? *props : table_->properties();
  const std::vector<PropMorsel> morsels = FlattenPropMorsels(
      list.size(),
      [&](uint64_t k) -> uint64_t { return table_->PartitionSize(list[k]); });
  std::vector<uint64_t> partial(morsels.size(), 0);
  ectx.ParallelFor(morsels.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t m = b; m < e; ++m) {
      const PropMorsel& ms = morsels[m];
      partial[m] = MergeCountMatches(table_->EncodedSubjects(list[ms.prop_idx]),
                                     ms.lo, ms.hi, subjects, ectx);
    }
  });
  std::vector<uint64_t> counts(list.size(), 0);
  for (size_t m = 0; m < morsels.size(); ++m) {
    counts[morsels[m].prop_idx] += partial[m];
  }
  KeyCounts out;
  for (size_t k = 0; k < list.size(); ++k) {
    if (counts[k] > 0) out.emplace_back(list[k], counts[k]);
  }
  return out;
}

std::vector<PairCount> ColVerticalBackend::PropertyObjectCounts(
    std::span<const uint64_t> subjects, const std::vector<uint64_t>* props,
    uint64_t universe, const MinCount& min_count,
    const exec::ExecContext& ectx) const {
  // Flattened (property, row-range) morsels: each morsel merges its row
  // range with `subjects` and decodes the selected objects, so one skewed
  // partition (q4*) never pins the whole query to a single lane. The
  // morsels' pairs, in morsel order, go to one CountPairs.
  const std::vector<uint64_t>& list =
      props != nullptr ? *props : table_->properties();
  const std::vector<PropMorsel> morsels = FlattenPropMorsels(
      list.size(),
      [&](uint64_t k) -> uint64_t { return table_->PartitionSize(list[k]); });
  std::vector<std::vector<uint64_t>> objects(morsels.size());
  ectx.ParallelFor(morsels.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t m = b; m < e; ++m) {
      const PropMorsel& ms = morsels[m];
      const uint64_t p = list[ms.prop_idx];
      // Positions are relative to ms.lo; only the selected objects decode.
      const PositionVector sel = MergeSelectPositions(
          table_->EncodedSubjects(p), ms.lo, ms.hi, subjects, ectx);
      if (sel.empty()) continue;
      const EncodedColumn& obj = table_->EncodedObjects(p);
      objects[m].resize(sel.size());
      for (size_t i = 0; i < sel.size(); ++i) {
        objects[m][i] = obj.ValueAt(ms.lo + sel[i]);
      }
    }
  });
  std::vector<uint64_t> ps;
  std::vector<uint64_t> os;
  for (size_t m = 0; m < morsels.size(); ++m) {
    ps.insert(ps.end(), objects[m].size(), list[morsels[m].prop_idx]);
    os.insert(os.end(), objects[m].begin(), objects[m].end());
  }
  return CountPairs(ps, os, universe, min_count, ectx);
}

SubjectObjects ColVerticalBackend::SubjectObjectPairs(
    uint64_t property, std::span<const uint64_t> subjects,
    const exec::ExecContext& ectx) const {
  if (!table_->HasPartition(property)) return {};
  const PositionVector sel =
      MergeSelectPositions(table_->EncodedSubjects(property), 0,
                           table_->PartitionSize(property), subjects, ectx);
  if (sel.empty()) return {};
  const std::vector<uint64_t> ps =
      Gather(table_->EncodedSubjects(property), sel, ectx);
  const std::vector<uint64_t> po =
      Gather(table_->EncodedObjects(property), sel, ectx);
  SubjectObjects out(sel.size());
  for (size_t i = 0; i < sel.size(); ++i) out[i] = {ps[i], po[i]};
  return out;
}

std::vector<uint64_t> ColVerticalBackend::SubjectsWithObjectIn(
    std::span<const uint64_t> object_list, std::optional<uint64_t> property,
    uint64_t universe, const exec::ExecContext& ectx) const {
  MarkSet objects(universe);
  objects.MarkAll(object_list);
  if (property) {
    if (!table_->HasPartition(*property)) return {};
    const PositionVector sel =
        SelectMarked(table_->EncodedObjects(*property), objects, ectx);
    if (sel.empty()) return {};
    // Gathered from a sorted subject column: duplicates are adjacent.
    std::vector<uint64_t> out =
        Gather(table_->EncodedSubjects(*property), sel, ectx);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  // Every property table, fanned out over flattened (property, row-range)
  // morsels — the probe side is dominated by the few giant partitions,
  // which would otherwise serialize. Each morsel selects on its objects
  // and gathers subjects only at the hits.
  const std::vector<uint64_t>& all_props = table_->properties();
  const std::vector<PropMorsel> morsels = FlattenPropMorsels(
      all_props.size(),
      [&](uint64_t k) -> uint64_t {
        return table_->PartitionSize(all_props[k]);
      });
  std::vector<std::vector<uint64_t>> hits(morsels.size());
  ectx.ParallelFor(morsels.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t m = b; m < e; ++m) {
      const PropMorsel& ms = morsels[m];
      const uint64_t p = all_props[ms.prop_idx];
      const PositionVector sel =
          SelectMarked(table_->EncodedObjects(p), ms.lo, ms.hi, objects, ectx);
      if (sel.empty()) continue;
      hits[m] = Gather(table_->EncodedSubjects(p), sel, ectx);
    }
  });
  std::vector<uint64_t> out;
  for (const auto& h : hits) out.insert(out.end(), h.begin(), h.end());
  return SortDistinct(std::move(out));
}

std::vector<rdf::Triple> ColVerticalBackend::Match(
    const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
    const exec::ExecContext& ectx) const {
  // Per-partition range scans stay serial (canonical order); the span is
  // suppressed automatically when Match runs inside a BGP worker lane.
  obs::Span span(ectx.trace(), "col_vert.match");
  std::vector<rdf::Triple> out;
  const uint64_t universe = dataset_->dict().size();
  for (uint64_t p :
       rdf::PartitionsToOpen(pattern, filter, table_->properties())) {
    if (!table_->HasPartition(p)) continue;
    colstore::MatchColumns<2>(
        {&table_->SubjectColumn(p), &table_->ObjectColumn(p)}, {0, 1},
        {pattern.subject, pattern.object},
        {&filter.Free(pattern, 0), &filter.Free(pattern, 2)}, universe, ectx,
        [&](const auto& v, uint64_t n) {
          for (uint64_t i = 0; i < n; ++i) out.push_back({v[0][i], p, v[1][i]});
        });
  }
  writes_.Overlay(pattern, filter, &out);
  span.set_rows_out(out.size());
  return out;
}

}  // namespace swan::core
