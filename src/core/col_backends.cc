#include "core/col_backends.h"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <tuple>

#include "common/macros.h"
#include "obs/trace.h"
#include "plan/distributed.h"

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
using colstore::SortedIntersect;
using colstore::SortedUnion;
using colstore::UnionDistinct;
using plan::kBytesPerKey;
using plan::kBytesPerPair;
using plan::kBytesPerTriple;

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

// Concatenates per-partition partials in partition order; a single
// partial moves through untouched.
template <typename T>
std::vector<T> Concat(std::vector<std::vector<T>> partials) {
  if (partials.size() == 1) return std::move(partials.front());
  std::vector<T> all;
  for (const std::vector<T>& p : partials) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

// Merges sorted partials — one per node, each node sorting its own — in
// one linear k-way pass: the output takes the least of the k heads each
// time (k is the node count, a handful). A single partial is already
// merged.
template <typename T>
std::vector<T> MergeRuns(std::vector<std::vector<T>> partials) {
  if (partials.size() == 1) return std::move(partials.front());
  size_t total = 0;
  for (const std::vector<T>& p : partials) {
    SWAN_DCHECK(std::is_sorted(p.begin(), p.end()));
    total += p.size();
  }
  std::vector<T> out;
  out.reserve(total);
  std::vector<size_t> head(partials.size(), 0);
  for (;;) {
    size_t best = partials.size();
    for (size_t k = 0; k < partials.size(); ++k) {
      if (head[k] == partials[k].size()) continue;
      if (best == partials.size() ||
          partials[k][head[k]] < partials[best][head[best]]) {
        best = k;
      }
    }
    if (best == partials.size()) return out;
    out.push_back(partials[best][head[best]++]);
  }
}

// Merges sorted partials, dropping repeats when `distinct`.
template <typename T>
std::vector<T> MergeSorted(std::vector<std::vector<T>> partials,
                           bool distinct) {
  const bool several = partials.size() > 1;
  std::vector<T> all = MergeRuns(std::move(partials));
  if (several && distinct) {
    all.erase(std::unique(all.begin(), all.end()), all.end());
  }
  return all;
}

// Sums per-partition count partials key by key.
KeyCounts SumKeyCounts(std::vector<KeyCounts> partials) {
  if (partials.size() == 1) return std::move(partials.front());
  KeyCounts out;
  for (const auto& [key, count] : MergeRuns(std::move(partials))) {
    if (!out.empty() && out.back().first == key) {
      out.back().second += count;
    } else {
      out.emplace_back(key, count);
    }
  }
  return out;
}

// q3/q4 at the coordinator: the nodes' groups summed where a sub-split
// property's group arrived from several nodes, then HAVING on the sums.
std::vector<PairCount> SumPairCounts(
    std::vector<std::vector<PairCount>> partials, uint64_t min_count) {
  std::vector<PairCount> out;
  if (partials.size() == 1) {
    out = std::move(partials.front());
  } else {
    std::vector<PairCount> all = Concat(std::move(partials));
    std::sort(all.begin(), all.end(),
              [](const PairCount& x, const PairCount& y) {
                return std::tie(x.a, x.b) < std::tie(y.a, y.b);
              });
    for (const PairCount& g : all) {
      if (!out.empty() && out.back().a == g.a && out.back().b == g.b) {
        out.back().count += g.count;
      } else {
        out.push_back(g);
      }
    }
  }
  std::erase_if(out, [&](const PairCount& g) { return g.count < min_count; });
  return out;
}

// q5 regroups its records bindings by the join column: ByObject flips
// (subject, object) rows to (object, subject) and sorts them once;
// DistinctFirsts reads the join keys off such sorted rows.
SubjectObjects ByObject(const SubjectObjects& rows) {
  SubjectObjects flipped(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    flipped[i] = {rows[i].second, rows[i].first};
  }
  std::sort(flipped.begin(), flipped.end());
  return flipped;
}

std::vector<uint64_t> DistinctFirsts(const SubjectObjects& sorted) {
  std::vector<uint64_t> keys;
  for (const auto& row : sorted) {
    if (keys.empty() || keys.back() != row.first) keys.push_back(row.first);
  }
  return keys;
}

QueryResult KeyCountRows(std::vector<std::string> names,
                         const KeyCounts& counts) {
  QueryResult result;
  result.column_names = std::move(names);
  result.rows.reserve(counts.size());
  for (const auto& [key, count] : counts) result.rows.push_back({key, count});
  return result;
}

// q3/q4's HAVING count > 1.
constexpr uint64_t kHavingMin = 2;

QueryResult PairCountRows(const std::vector<PairCount>& groups) {
  QueryResult result;
  result.column_names = {"prop", "obj", "count"};
  result.rows.reserve(groups.size());
  for (const PairCount& g : groups) result.rows.push_back({g.a, g.b, g.count});
  return result;
}

// q5: bindings (o, s) (ByObject) merge-joined with type rows (o, t) on
// o, keeping t != `text`. Both sorted.
QueryResult JoinRecordsTypes(const SubjectObjects& by_object,
                             const SubjectObjects& types, uint64_t text) {
  QueryResult result;
  result.column_names = {"subj", "obj"};
  size_t j = 0;
  for (const auto& [obj, subj] : by_object) {
    while (j < types.size() && types[j].first < obj) ++j;
    for (size_t k = j; k < types.size() && types[k].first == obj; ++k) {
      if (types[k].second != text) {
        result.rows.push_back({subj, types[k].second});
      }
    }
  }
  return result;
}

// q7: encodings (s, e) x types (s, t) on s; both sorted.
QueryResult JoinOnSubject(const SubjectObjects& encodings,
                          const SubjectObjects& types) {
  QueryResult result;
  result.column_names = {"subj", "encoding", "type"};
  size_t j = 0;
  for (size_t i = 0; i < encodings.size(); ++i) {
    const uint64_t s = encodings[i].first;
    while (j < types.size() && types[j].first < s) ++j;
    for (size_t k = j; k < types.size() && types[k].first == s; ++k) {
      result.rows.push_back({s, encodings[i].second, types[k].second});
    }
  }
  return result;
}

QueryResult SubjectRows(const std::vector<uint64_t>& subjects) {
  QueryResult result;
  result.column_names = {"subj"};
  result.rows.reserve(subjects.size());
  for (uint64_t s : subjects) result.rows.push_back({s});
  return result;
}

// Folds a write store into sorted base rows in one linear pass: the base
// rows (each_base(emit) calls emit(row) for every one, ascending by
// `less`) minus `gone`, plus `fresh`, which holds no base row (Insert
// rejects those). Only the two small write-store runs are sorted.
template <typename Row, typename EachBase, typename Less>
std::vector<Row> MergeSortedRuns(size_t base_rows, const EachBase& each_base,
                                 std::vector<Row> gone,
                                 std::vector<Row> fresh, Less less) {
  std::sort(gone.begin(), gone.end(), less);
  std::sort(fresh.begin(), fresh.end(), less);
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

}  // namespace

// ---------------------------------------------------------------------------
// ColumnBackend: the 12 queries as one scatter/gather over partitions
// ---------------------------------------------------------------------------

void ColumnBackend::MergeDelta(const exec::ExecContext& ectx) {
  const uint64_t pending = PendingWrites();
  if (pending == 0) return;
  obs::Span span(ectx.trace(), tag_ + ".merge_delta");
  span.set_rows_in(pending);
  span.set_rows_out(EnsureMerged());
  ++merge_count_;
}

QueryResult ColumnBackend::Run(QueryId id, const QueryContext& ctx,
                               const exec::ExecContext& ectx) {
  ColumnBackend* self = this;
  return RunPartitioned({&self, 1}, nullptr, tag_, id, ctx, ectx);
}

QueryResult ColumnBackend::RunPartitioned(
    std::span<ColumnBackend* const> parts, DistRouting* routing,
    std::string_view tag, QueryId id, const QueryContext& ctx,
    const exec::ExecContext& ectx) {
  SWAN_CHECK_MSG(routing == nullptr
                     ? parts.size() == 1
                     : parts.size() == static_cast<size_t>(routing->nodes()),
                 "one partition per node");
  for (ColumnBackend* p : parts) p->MergeDelta(ectx);
  obs::Span span(ectx.trace(), std::string(tag) + "." + FamilyName(id));
  const Vocabulary& v = ctx.vocab();
  const uint64_t universe = ctx.dict_size();
  const std::vector<uint64_t>* props = PropertyFilter(id, ctx);
  const int coordinator = routing == nullptr ? 0 : routing->Coordinator();
  std::vector<int> all(parts.size());
  std::iota(all.begin(), all.end(), 0);

  const auto part = [&](int n) -> const ColumnBackend& {
    return *parts[static_cast<size_t>(n)];
  };
  // The nodes holding `property`: its home, or every node when the
  // partition is sub-split.
  const auto holders = [&](uint64_t property) {
    const int home = routing == nullptr ? -1 : routing->HomeNode(property);
    return home < 0 ? all : std::vector<int>{home};
  };
  // One message of `bytes` from src to dst; free within a node.
  const auto ship = [&](int src, int dst, uint64_t bytes) {
    if (routing != nullptr) routing->Ship(src, dst, bytes, 1, ectx);
  };
  // Runs `phase` on each of `nodes` and ships every partial to the
  // coordinator at `width` bytes a row.
  const auto gather = [&](const std::vector<int>& nodes, uint64_t width,
                          const auto& phase) {
    std::vector<decltype(phase(part(0)))> partials;
    for (int n : nodes) {
      partials.push_back(phase(part(n)));
      ship(n, coordinator, width * partials.back().size());
    }
    return partials;
  };
  // The subjects of (?, property, object), broadcast from each holder to
  // every consumer as a semi-join filter.
  const auto subject_filter = [&](uint64_t property, uint64_t object,
                                  const std::vector<int>& consumers) {
    std::vector<std::vector<uint64_t>> partials;
    for (int n : holders(property)) {
      partials.push_back(part(n).SubjectsOf(property, object, ectx));
      for (int c : consumers) ship(n, c, kBytesPerKey * partials.back().size());
    }
    return MergeSorted(std::move(partials), true);
  };

  QueryResult result;
  switch (BaseOf(id)) {
    case QueryId::kQ1:
      result = KeyCountRows(
          {"obj", "count"},
          SumKeyCounts(gather(holders(v.type), kBytesPerPair,
                              [&](const ColumnBackend& p) {
                                return p.ObjectCounts(v.type, universe, ectx);
                              })));
      break;
    case QueryId::kQ2:
    case QueryId::kQ6: {
      std::vector<uint64_t> subjects = subject_filter(v.type, v.text, all);
      if (BaseOf(id) == QueryId::kQ6) {
        // Union: the Text-typed subjects plus the subjects whose
        // records-object is Text-typed, found on the <records> holders and
        // broadcast as a filter of its own.
        MarkSet text_typed(universe);
        text_typed.MarkAll(subjects);
        for (int n : holders(v.records)) {
          const std::vector<uint64_t> local =
              part(n).SubjectsWithObjectIn(text_typed, v.records, ectx);
          for (int c : all) ship(n, c, kBytesPerKey * local.size());
          subjects = SortedUnion(subjects, local);
        }
      }
      result = KeyCountRows(
          {"prop", "count"},
          SumKeyCounts(gather(all, kBytesPerPair, [&](const ColumnBackend& p) {
            return p.PropertyCounts(subjects, props, universe, ectx);
          })));
      break;
    }
    case QueryId::kQ3:
    case QueryId::kQ4: {
      std::vector<uint64_t> subjects = subject_filter(v.type, v.text, all);
      // q4/q4*: the subject must also carry (language, fre).
      if (BaseOf(id) == QueryId::kQ4) {
        subjects = SortedIntersect(
            subjects, subject_filter(v.language, v.french, all));
      }
      // A node holding a property whole applies HAVING to its groups
      // itself. A sub-split property's groups ship in full: one may be
      // split across nodes, so HAVING waits for its sum at the coordinator.
      const MinCount node_min = [&](uint64_t property) -> uint64_t {
        return routing == nullptr || routing->HomeNode(property) >= 0
                   ? kHavingMin
                   : 1;
      };
      result = PairCountRows(SumPairCounts(
          gather(all, kBytesPerTriple,
                 [&](const ColumnBackend& p) {
                   return p.PropertyObjectCounts(subjects, props, universe,
                                                 node_min, ectx);
                 }),
          kHavingMin));
      break;
    }
    case QueryId::kQ5: {
      // The cross-partition join: DLC-origin records bindings live on the
      // <records> holders, the type rows on the <type> holders.
      const std::vector<int> rec_nodes = holders(v.records);
      const std::vector<int> type_nodes = holders(v.type);
      const std::vector<uint64_t> a =
          subject_filter(v.origin, v.dlc, rec_nodes);
      // Bindings (b.subject, b.object) per records holder. A holder whose
      // bindings leave its node also counts its distinct join keys, the
      // size of its semi-join legs.
      std::vector<uint64_t> holder_rows(parts.size(), 0);
      std::vector<uint64_t> holder_keys(parts.size(), 0);
      std::vector<SubjectObjects> bindings;
      for (int n : rec_nodes) {
        bindings.push_back(part(n).SubjectObjectPairs(v.records, a, ectx));
        holder_rows[static_cast<size_t>(n)] = bindings.back().size();
        if (std::any_of(type_nodes.begin(), type_nodes.end(),
                        [n](int t) { return t != n; })) {
          holder_keys[static_cast<size_t>(n)] =
              DistinctFirsts(ByObject(bindings.back())).size();
        }
      }
      const SubjectObjects by_object = ByObject(Concat(std::move(bindings)));
      const std::vector<uint64_t> join_keys = DistinctFirsts(by_object);
      // Matching (subject, type-object) pairs at the type holders.
      std::vector<uint64_t> match_rows(parts.size(), 0);
      std::vector<SubjectObjects> matches;
      for (int n : type_nodes) {
        matches.push_back(part(n).SubjectObjectPairs(v.type, join_keys, ectx));
        match_rows[static_cast<size_t>(n)] = matches.back().size();
      }
      const SubjectObjects types = MergeSorted(std::move(matches), false);

      if (routing != nullptr) {
        // Ship mode on modeled cost. Bindings mode: every records holder
        // ships its full bindings to every type holder, and the matches
        // return to the coordinator. Semi-join mode: holders ship only
        // their distinct join keys, the type holders return the matching
        // pairs, and the bindings take one hop straight to the coordinator
        // for the final join. The losing mode's bytes appear nowhere.
        plan::DistCostModel link;
        link.bytes_per_sec = routing->NetBandwidthBytesPerSec();
        link.seconds_per_message = routing->NetLatencySecondsPerMessage();
        const auto cost = [&](uint64_t bytes, uint64_t messages) {
          return plan::ShipSeconds(link, static_cast<double>(bytes),
                                   static_cast<double>(messages));
        };
        const uint64_t fanout = type_nodes.size();
        const uint64_t rec_holders = rec_nodes.size();
        const double bindings_cost =
            cost(kBytesPerPair * by_object.size() * fanout,
                 rec_holders * fanout) +
            cost(kBytesPerPair * types.size(), fanout);
        const double semijoin_cost =
            cost(kBytesPerKey * join_keys.size() * fanout,
                 rec_holders * fanout) +
            cost(kBytesPerPair * types.size(), fanout) +
            cost(kBytesPerPair * by_object.size(), rec_holders);
        const bool semijoin = semijoin_cost <= bindings_cost;
        obs::Span mode(ectx.trace(),
                       std::string(tag) +
                           (semijoin ? ".q5.semijoin" : ".q5.bindings"));
        mode.set_rows_in(by_object.size());
        for (int rn : rec_nodes) {
          const size_t r = static_cast<size_t>(rn);
          for (int tn : type_nodes) {
            // Each holder ships its own distinct keys (the key set is
            // global, already deduplicated across holders).
            ship(rn, tn,
                 semijoin ? kBytesPerKey * holder_keys[r]
                          : kBytesPerPair * holder_rows[r]);
          }
          if (semijoin) ship(rn, coordinator, kBytesPerPair * holder_rows[r]);
        }
        for (int tn : type_nodes) {
          ship(tn, coordinator,
               kBytesPerPair * match_rows[static_cast<size_t>(tn)]);
        }
      }
      result = JoinRecordsTypes(by_object, types, v.text);
      break;
    }
    case QueryId::kQ7: {
      // Three-way star on the subject: the Point/"end" filter ships to the
      // <encoding> and <type> holders, whose matching pairs gather at the
      // coordinator for the cross product.
      std::vector<int> consumers = holders(v.encoding);
      for (int n : holders(v.type)) consumers.push_back(n);
      std::sort(consumers.begin(), consumers.end());
      consumers.erase(std::unique(consumers.begin(), consumers.end()),
                      consumers.end());
      const std::vector<uint64_t> a =
          subject_filter(v.point, v.end, consumers);
      const auto pairs_of = [&](uint64_t property) {
        return MergeSorted(
            gather(holders(property), kBytesPerPair,
                   [&](const ColumnBackend& p) {
                     return p.SubjectObjectPairs(property, a, ectx);
                   }),
            false);
      };
      const SubjectObjects encodings = pairs_of(v.encoding);
      const SubjectObjects types = pairs_of(v.type);
      result = JoinOnSubject(encodings, types);
      break;
    }
    case QueryId::kQ8: {
      // Object-object join through the <conferences> subject. Temporary
      // table t, the hub's objects, gathers from every node (a subject's
      // triples spread over the property partitions) and broadcasts back
      // as the build side.
      const uint64_t hub = v.conferences;
      const std::vector<uint64_t> t = MergeSorted(
          gather(all, kBytesPerKey,
                 [&](const ColumnBackend& p) {
                   return p.ObjectsOf(hub, ectx);
                 }),
          true);
      for (int n : all) ship(coordinator, n, kBytesPerKey * t.size());
      MarkSet shared(universe);
      shared.MarkAll(t);
      // Every node probes its objects. The hub itself is not an answer and
      // drops before its node ships.
      result = SubjectRows(MergeSorted(
          gather(all, kBytesPerKey,
                 [&](const ColumnBackend& p) {
                   std::vector<uint64_t> local =
                       p.SubjectsWithObjectIn(shared, std::nullopt, ectx);
                   local.erase(std::remove(local.begin(), local.end(), hub),
                               local.end());
                   return local;
                 }),
          true));
      break;
    }
    default:
      SWAN_CHECK(false);
  }
  span.set_rows_out(result.rows.size());
  return result;
}

// ---------------------------------------------------------------------------
// ColTripleBackend
// ---------------------------------------------------------------------------

ColTripleBackend::ColTripleBackend(const rdf::Dataset& dataset,
                                   rdf::TripleOrder order,
                                   storage::DiskConfig disk_config,
                                   size_t pool_pages,
                                   colstore::ColumnCodec codec)
    : ColumnBackend("col_triple", disk_config, pool_pages) {
  SWAN_CHECK_MSG(
      order == rdf::TripleOrder::kSPO || order == rdf::TripleOrder::kPSO,
      "column triple-store supports SPO or PSO sort order");
  pso_ = order == rdf::TripleOrder::kPSO;
  codec_ = codec;
  dataset_ = &dataset;
  table_ = std::make_unique<colstore::TripleTable>(pool_, disk_,
                                                   order, codec);
  table_->Load(dataset.triples());
}

ColTripleBackend::ColTripleBackend(const rdf::Dataset& dataset,
                                   rdf::TripleOrder order,
                                   storage::SimulatedDisk* disk,
                                   storage::BufferPool* pool,
                                   std::vector<rdf::Triple> subset,
                                   colstore::ColumnCodec codec)
    : ColumnBackend("col_triple", disk, pool) {
  SWAN_CHECK_MSG(
      order == rdf::TripleOrder::kSPO || order == rdf::TripleOrder::kPSO,
      "column triple-store supports SPO or PSO sort order");
  pso_ = order == rdf::TripleOrder::kPSO;
  codec_ = codec;
  dataset_ = &dataset;
  table_ = std::make_unique<colstore::TripleTable>(pool_, disk_, order, codec);
  table_->Load(std::move(subset));
}

audit::AuditReport ColTripleBackend::Audit(audit::AuditLevel level) const {
  audit::AuditReport report;
  table_->AuditInto(level, dataset_->dict().size(), &report);
  report.Merge(BackendBase::Audit(level));
  return report;
}

std::string ColTripleBackend::name() const {
  return std::string("MonetDB triple ") + ToString(table_->order());
}

void ColTripleBackend::DropCaches() {
  table_->DropCaches();
  pool_->Clear();
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
    const MarkSet& objects, std::optional<uint64_t> property,
    const exec::ExecContext& ectx) const {
  if (!property) {
    const PositionVector hits =
        SelectMarked(table_->encoded_objects(), objects, ectx);
    return SortDistinct(Gather(table_->encoded_subjects(), hits, ectx));
  }
  const PositionVector positions = PropPositions(*property, ectx);
  const std::vector<uint64_t> ps =
      Gather(table_->encoded_subjects(), positions, ectx);
  const std::vector<uint64_t> po =
      Gather(table_->encoded_objects(), positions, ectx);
  // One property's subjects come out sorted (see SubjectObjectPairs), so
  // duplicates are adjacent.
  std::vector<uint64_t> out;
  CompactInto(
      0, ps.size(), [&](uint64_t i) { return objects.Test(po[i]); },
      [&](uint64_t i) { return ps[i]; }, &out);
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

Status ColTripleBackend::Insert(const rdf::Triple& triple) {
  if (tombstones_.erase(triple) != 0) {
    // Re-inserting a tombstoned base row just cancels the pending delete;
    // the base columns still hold it physically.
    return Status::OK();
  }
  if (delta_set_.count(triple) != 0 || BaseContains(triple)) {
    return Status::AlreadyExists("triple already present");
  }
  delta_.push_back(triple);
  delta_set_.insert(triple);
  return Status::OK();
}

Status ColTripleBackend::Delete(const rdf::Triple& triple) {
  if (delta_set_.erase(triple) != 0) {
    // Deleting an unmerged insert cancels the delta entry directly.
    const auto it = std::find(delta_.begin(), delta_.end(), triple);
    SWAN_CHECK(it != delta_.end());
    delta_.erase(it);
    return Status::OK();
  }
  if (tombstones_.count(triple) != 0 || !BaseContains(triple)) {
    return Status::NotFound("triple not present");
  }
  tombstones_.insert(triple);
  return Status::OK();
}

uint64_t ColTripleBackend::EnsureMerged() {
  // Merge the write store into the read-optimized columns: decode the base
  // columns batch by batch, drop tombstoned rows, merge in the delta, and
  // rebuild — the full cost a sorted-column store pays for updates.
  const EncodedColumn& subj = table_->encoded_subjects();
  const EncodedColumn& prop = table_->encoded_properties();
  const EncodedColumn& obj = table_->encoded_objects();
  const rdf::TripleOrder order = table_->order();
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
      std::vector<rdf::Triple>(tombstones_.begin(), tombstones_.end()),
      std::move(delta_),
      [order](const rdf::Triple& a, const rdf::Triple& b) {
        return rdf::KeyOf(a, order) < rdf::KeyOf(b, order);
      });
  const uint64_t rows = all.size();
  table_ = std::make_unique<colstore::TripleTable>(pool_, disk_, order,
                                                   codec_);
  table_->Load(std::move(all));
  delta_.clear();
  delta_set_.clear();
  tombstones_.clear();
  return rows;
}

std::vector<rdf::Triple> ColTripleBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  // Suppressed automatically when Match runs inside a BGP worker lane.
  obs::Span span(ectx.trace(), "col_triple.match");
  // The bound leading components of the sort order narrow the rows to a
  // range; every other bound component is a residual filter, applied in
  // subject, property, object order.
  const std::array<std::optional<uint64_t>, 3> bound = {
      pattern.subject, pattern.property, pattern.object};
  const auto comp = rdf::ComponentsOf(table_->order());
  int prefix = 0;
  if (bound[comp[0]]) prefix = bound[comp[1]] ? 2 : 1;
  uint32_t lo = 0;
  uint32_t hi = static_cast<uint32_t>(table_->size());
  if (prefix == 2) {
    std::tie(lo, hi) =
        table_->PrimarySecondaryRange(*bound[comp[0]], *bound[comp[1]]);
  } else if (prefix == 1) {
    std::tie(lo, hi) = table_->PrimaryRange(*bound[comp[0]]);
  }
  const auto residual = [&](int c) {
    const bool in_range =
        (prefix >= 1 && c == comp[0]) || (prefix == 2 && c == comp[1]);
    return bound[c] && !in_range;
  };

  // A column is read only when a row of it is needed: an empty range or
  // residual selection leaves the remaining columns unread.
  std::vector<rdf::Triple> out;
  if (lo < hi && !residual(0) && !residual(1) && !residual(2)) {
    // Every row of the range matches: decode it batch by batch.
    const EncodedColumn& subj = table_->encoded_subjects();
    const EncodedColumn& prop = table_->encoded_properties();
    const EncodedColumn& obj = table_->encoded_objects();
    out.reserve(hi - lo);
    ForEachDecodedRows<3>({&subj, &prop, &obj}, lo, hi,
                          [&](uint64_t, const auto& v, uint64_t n) {
                            for (uint64_t i = 0; i < n; ++i) {
                              out.push_back({v[0][i], v[1][i], v[2][i]});
                            }
                          });
  } else if (lo < hi) {
    // Filter the range on the encoded residual columns, then decode only
    // the matching rows.
    PositionVector sel;
    bool filtered = false;
    for (int c = 0; c < 3; ++c) {
      if (!residual(c)) continue;
      if (filtered && sel.empty()) break;
      const EncodedColumn& col = table_->column(c).Encoded();
      sel = filtered ? SelectEq(col, sel, *bound[c], ectx)
                     : SelectEq(col, lo, hi, *bound[c], ectx);
      filtered = true;
    }
    if (!sel.empty()) {
      const std::vector<uint64_t> subj =
          Gather(table_->encoded_subjects(), sel, ectx);
      const std::vector<uint64_t> prop =
          Gather(table_->encoded_properties(), sel, ectx);
      const std::vector<uint64_t> obj =
          Gather(table_->encoded_objects(), sel, ectx);
      out.resize(sel.size());
      for (size_t i = 0; i < sel.size(); ++i) {
        out[i] = {subj[i], prop[i], obj[i]};
      }
    }
  }
  if (!tombstones_.empty()) {
    std::erase_if(out, [&](const rdf::Triple& t) {
      return tombstones_.count(t) != 0;
    });
  }
  // Unmerged inserts are visible to pattern lookups via a delta scan.
  for (const rdf::Triple& t : delta_) {
    if (pattern.Matches(t)) out.push_back(t);
  }
  span.set_rows_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// ColVerticalBackend
// ---------------------------------------------------------------------------

ColVerticalBackend::ColVerticalBackend(const rdf::Dataset& dataset,
                                       storage::DiskConfig disk_config,
                                       size_t pool_pages,
                                       colstore::ColumnCodec codec)
    : ColumnBackend("col_vert", disk_config, pool_pages) {
  codec_ = codec;
  dataset_ = &dataset;
  table_ = std::make_unique<colstore::VerticalTable>(pool_, disk_,
                                                     codec);
  table_->Load(dataset.triples());
}

ColVerticalBackend::ColVerticalBackend(const rdf::Dataset& dataset,
                                       storage::SimulatedDisk* disk,
                                       storage::BufferPool* pool,
                                       std::vector<rdf::Triple> subset,
                                       colstore::ColumnCodec codec)
    : ColumnBackend("col_vert", disk, pool) {
  codec_ = codec;
  dataset_ = &dataset;
  table_ = std::make_unique<colstore::VerticalTable>(pool_, disk_, codec);
  table_->Load(subset);
}

audit::AuditReport ColVerticalBackend::Audit(audit::AuditLevel level) const {
  audit::AuditReport report;
  table_->AuditInto(level, dataset_->dict().size(), &report);
  report.Merge(BackendBase::Audit(level));
  return report;
}

Status ColVerticalBackend::Insert(const rdf::Triple& triple) {
  if (tombstones_.erase(triple) != 0) {
    // Cancels a pending delete; the base partition still holds the row.
    return Status::OK();
  }
  if (delta_set_.count(triple) != 0) {
    return Status::AlreadyExists("triple already present");
  }
  if (table_->HasPartition(triple.property)) {
    const auto [lo, hi] =
        table_->SubjectRange(triple.property, triple.subject);
    const EncodedColumn& obj = table_->EncodedObjects(triple.property);
    for (uint32_t i = lo; i < hi; ++i) {
      if (obj.ValueAt(i) == triple.object) {
        return Status::AlreadyExists("triple already present");
      }
    }
  } else if (delta_.count(triple.property) == 0) {
    // The data-driven schema grows: a new property means a new table.
    ++partitions_created_;
  }
  delta_[triple.property].emplace_back(triple.subject, triple.object);
  delta_set_.insert(triple);
  return Status::OK();
}

Status ColVerticalBackend::Delete(const rdf::Triple& triple) {
  if (delta_set_.erase(triple) != 0) {
    // Deleting an unmerged insert cancels the delta entry directly.
    auto it = delta_.find(triple.property);
    SWAN_CHECK(it != delta_.end());
    const std::pair<uint64_t, uint64_t> row{triple.subject, triple.object};
    const auto pos = std::find(it->second.begin(), it->second.end(), row);
    SWAN_CHECK(pos != it->second.end());
    it->second.erase(pos);
    if (it->second.empty()) {
      delta_.erase(it);
      // The cancelled insert was the only claim on a new partition.
      if (!table_->HasPartition(triple.property)) --partitions_created_;
    }
    return Status::OK();
  }
  if (tombstones_.count(triple) != 0) {
    return Status::NotFound("triple not present");
  }
  bool in_base = false;
  if (table_->HasPartition(triple.property)) {
    const auto [lo, hi] = table_->SubjectRange(triple.property, triple.subject);
    const EncodedColumn& obj = table_->EncodedObjects(triple.property);
    for (uint32_t i = lo; i < hi; ++i) {
      if (obj.ValueAt(i) == triple.object) {
        in_base = true;
        break;
      }
    }
  }
  if (!in_base) return Status::NotFound("triple not present");
  tombstones_.insert(triple);
  return Status::OK();
}

uint64_t ColVerticalBackend::EnsureMerged() {
  // Every partition touched by an insert or a delete is rebuilt in full —
  // the data-driven vertical schema's update cost the paper warns about.
  using Row = std::pair<uint64_t, uint64_t>;
  // Per touched property: its tombstoned rows and its buffered inserts.
  std::unordered_map<uint64_t, std::pair<std::vector<Row>, std::vector<Row>>>
      touched;
  for (const rdf::Triple& t : tombstones_) {
    touched[t.property].first.emplace_back(t.subject, t.object);
  }
  for (auto& [property, fresh] : delta_) {
    touched[property].second = std::move(fresh);
  }
  uint64_t rewritten = 0;
  for (auto& [property, writes] : touched) {
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
        std::move(writes.first), std::move(writes.second), std::less<Row>());
    rewritten += rows.size();
    table_->ReplacePartition(property, rows);
  }
  delta_.clear();
  delta_set_.clear();
  tombstones_.clear();
  return rewritten;
}

std::string ColVerticalBackend::name() const { return "MonetDB vert. SO"; }

void ColVerticalBackend::DropCaches() {
  table_->DropCaches();
  pool_->Clear();
}

std::vector<uint64_t> ColVerticalBackend::SubjectsOf(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx) const {
  if (!table_->HasPartition(property)) return {};
  const PositionVector sel =
      SelectEq(table_->EncodedObjects(property), object, ectx);
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
  const std::vector<uint64_t> ps =
      Gather(table_->EncodedSubjects(property), sel, ectx);
  const std::vector<uint64_t> po =
      Gather(table_->EncodedObjects(property), sel, ectx);
  SubjectObjects out(sel.size());
  for (size_t i = 0; i < sel.size(); ++i) out[i] = {ps[i], po[i]};
  return out;
}

std::vector<uint64_t> ColVerticalBackend::SubjectsWithObjectIn(
    const MarkSet& objects, std::optional<uint64_t> property,
    const exec::ExecContext& ectx) const {
  if (property) {
    if (!table_->HasPartition(*property)) return {};
    const PositionVector sel =
        SelectMarked(table_->EncodedObjects(*property), objects, ectx);
    // Gathered from a sorted subject column: duplicates are adjacent.
    std::vector<uint64_t> out =
        Gather(table_->EncodedSubjects(*property), sel, ectx);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  // Every property table, fanned out over flattened (property, row-range)
  // morsels — the probe side is dominated by the few giant partitions,
  // which would otherwise serialize.
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
      const EncodedColumn& subj =
          table_->EncodedSubjects(all_props[ms.prop_idx]);
      const EncodedColumn& obj = table_->EncodedObjects(all_props[ms.prop_idx]);
      ForEachDecodedRows<2>(
          {&subj, &obj}, ms.lo, ms.hi,
          [&](uint64_t, const auto& v, uint64_t n) {
            CompactInto(
                0, n, [&](uint64_t i) { return objects.Test(v[1][i]); },
                [&](uint64_t i) { return v[0][i]; }, &hits[m]);
          });
    }
  });
  std::vector<uint64_t> out;
  for (const auto& h : hits) out.insert(out.end(), h.begin(), h.end());
  return SortDistinct(std::move(out));
}

std::vector<rdf::Triple> ColVerticalBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  // Per-partition range scans stay serial (canonical order); the span is
  // suppressed automatically when Match runs inside a BGP worker lane.
  obs::Span span(ectx.trace(), "col_vert.match");
  std::vector<uint64_t> props;
  if (pattern.property) {
    if (table_->HasPartition(*pattern.property)) {
      props.push_back(*pattern.property);
    }
  } else {
    props = table_->properties();
  }

  std::vector<rdf::Triple> out;
  for (uint64_t p : props) {
    colstore::MatchPartition(table_->SubjectColumn(p), table_->ObjectColumn(p),
                             p, pattern, ectx, &out);
  }
  if (!tombstones_.empty()) {
    std::erase_if(out, [&](const rdf::Triple& t) {
      return tombstones_.count(t) != 0;
    });
  }
  // Unmerged inserts are visible via a delta scan.
  for (const rdf::Triple& t : delta_set_) {
    if (pattern.Matches(t)) out.push_back(t);
  }
  span.set_rows_out(out.size());
  return out;
}

}  // namespace swan::core
