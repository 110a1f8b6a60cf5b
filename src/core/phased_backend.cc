#include "core/phased_backend.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <tuple>

#include "common/macros.h"
#include "obs/trace.h"
#include "plan/distributed.h"

namespace swan::core {

namespace {

using colstore::MinCount;
using colstore::PairCount;
using colstore::SortedIntersect;
using colstore::SortedUnion;
using plan::kBytesPerKey;
using plan::kBytesPerPair;
using plan::kBytesPerTriple;

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

// Merge-joins two sorted (key, value) row lists on the key:
// emit(key, left value, right value) for every pair of rows that agree.
template <typename Emit>
void MergeJoin(const SubjectObjects& left, const SubjectObjects& right,
               const Emit& emit) {
  size_t j = 0;
  for (const auto& [key, value] : left) {
    while (j < right.size() && right[j].first < key) ++j;
    for (size_t k = j; k < right.size() && right[k].first == key; ++k) {
      emit(key, value, right[k].second);
    }
  }
}

// A pattern step's filter: the ids of a sorted list at component c
// (0 = subject, 2 = object) as an id set. Never an IN-list, which a row
// store walks as one key prefix per listed id: an id set keeps the
// unfiltered pattern's access path.
rdf::PatternFilter IdSetAt(int c, std::span<const uint64_t> ids,
                           uint64_t universe) {
  rdf::MarkSet set(universe);
  set.MarkAll(ids);
  rdf::PatternFilter filter;
  (c == 0 ? filter.subject : filter.object) =
      rdf::ScanFilter::IdSet(std::move(set));
  return filter;
}

// Sorts `rows` unless they already are: one property's matches come
// sorted from every store but a row store's secondary-index walk.
template <typename T>
void SortRows(std::vector<T>* rows) {
  if (!std::is_sorted(rows->begin(), rows->end())) {
    std::sort(rows->begin(), rows->end());
  }
}

// A step's projections: the distinct subjects of its matches, and their
// (subject, object) rows, each ascending.
std::vector<uint64_t> DistinctSubjects(const std::vector<rdf::Triple>& rows) {
  std::vector<uint64_t> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) out[i] = rows[i].subject;
  SortRows(&out);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

SubjectObjects SubjectObjectRows(const std::vector<rdf::Triple>& rows) {
  SubjectObjects out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = {rows[i].subject, rows[i].object};
  }
  SortRows(&out);
  return out;
}

QueryResult SubjectRows(const std::vector<uint64_t>& subjects) {
  QueryResult result;
  result.column_names = {"subj"};
  result.rows.reserve(subjects.size());
  for (uint64_t s : subjects) result.rows.push_back({s});
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// PhasedBackend: the 12 queries as one scatter/gather over partitions
// ---------------------------------------------------------------------------

void PhasedBackend::MergeDelta(const exec::ExecContext& ectx) {
  const uint64_t pending = PendingWrites();
  if (pending == 0) return;
  obs::Span span(ectx.trace(), tag_ + ".merge_delta");
  span.set_rows_in(pending);
  span.set_rows_out(EnsureMerged());
  ++merge_count_;
}

QueryResult PhasedBackend::Run(QueryId id, const QueryContext& ctx,
                               const exec::ExecContext& ectx) {
  PhasedBackend* self = this;
  return RunPartitioned({&self, 1}, nullptr, tag_, id, ctx, ectx);
}

QueryResult PhasedBackend::RunPartitioned(
    std::span<PhasedBackend* const> parts, DistRouting* routing,
    std::string_view tag, QueryId id, const QueryContext& ctx,
    const exec::ExecContext& ectx) {
  SWAN_CHECK_MSG(routing == nullptr
                     ? parts.size() == 1
                     : parts.size() == static_cast<size_t>(routing->nodes()),
                 "one partition per node");
  for (PhasedBackend* p : parts) p->MergeDelta(ectx);
  obs::Span span(ectx.trace(), std::string(tag) + "." + FamilyName(id));
  const Vocabulary& v = ctx.vocab();
  const uint64_t universe = ctx.dict_size();
  const std::vector<uint64_t>* props = PropertyFilter(id, ctx);
  const int coordinator = routing == nullptr ? 0 : routing->Coordinator();
  std::vector<int> all(parts.size());
  std::iota(all.begin(), all.end(), 0);

  const auto part = [&](int n) -> const PhasedBackend& {
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
  // The subjects of (?s, property, object), broadcast from each holder to
  // every consumer as a semi-join filter.
  const auto subject_filter = [&](uint64_t property, uint64_t object,
                                  const std::vector<int>& consumers) {
    std::vector<std::vector<uint64_t>> partials;
    for (int n : holders(property)) {
      partials.push_back(DistinctSubjects(
          part(n).Match({{}, property, object}, {}, ectx)));
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
                              [&](const PhasedBackend& p) {
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
        const rdf::PatternFilter text_typed = IdSetAt(2, subjects, universe);
        for (int n : holders(v.records)) {
          const std::vector<uint64_t> local = DistinctSubjects(
              part(n).Match({{}, v.records, {}}, text_typed, ectx));
          for (int c : all) ship(n, c, kBytesPerKey * local.size());
          subjects = SortedUnion(subjects, local);
        }
      }
      result = KeyCountRows(
          {"prop", "count"},
          SumKeyCounts(gather(all, kBytesPerPair, [&](const PhasedBackend& p) {
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
                 [&](const PhasedBackend& p) {
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
      const rdf::PatternFilter in_a =
          IdSetAt(0, subject_filter(v.origin, v.dlc, rec_nodes), universe);
      // Bindings (b.subject, b.object) per records holder. A holder whose
      // bindings leave its node also counts its distinct join keys, the
      // size of its semi-join legs.
      std::vector<uint64_t> holder_rows(parts.size(), 0);
      std::vector<uint64_t> holder_keys(parts.size(), 0);
      std::vector<SubjectObjects> bindings;
      for (int n : rec_nodes) {
        bindings.push_back(SubjectObjectRows(
            part(n).Match({{}, v.records, {}}, in_a, ectx)));
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
      const rdf::PatternFilter keyed = IdSetAt(0, join_keys, universe);
      for (int n : type_nodes) {
        matches.push_back(SubjectObjectRows(
            part(n).Match({{}, v.type, {}}, keyed, ectx)));
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
      // Bindings (o, s) joined with the type rows (o, t), keeping
      // t != Text.
      result.column_names = {"subj", "obj"};
      MergeJoin(by_object, types, [&](uint64_t, uint64_t s, uint64_t t) {
        if (t != v.text) result.rows.push_back({s, t});
      });
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
      const rdf::PatternFilter in_a =
          IdSetAt(0, subject_filter(v.point, v.end, consumers), universe);
      const auto pairs_of = [&](uint64_t property) {
        return MergeSorted(
            gather(holders(property), kBytesPerPair,
                   [&](const PhasedBackend& p) {
                     return SubjectObjectRows(
                         p.Match({{}, property, {}}, in_a, ectx));
                   }),
            false);
      };
      // Two statements, so that <encoding> is read before <type>.
      const SubjectObjects encodings = pairs_of(v.encoding);
      const SubjectObjects types = pairs_of(v.type);
      result.column_names = {"subj", "encoding", "type"};
      MergeJoin(encodings, types, [&](uint64_t s, uint64_t e, uint64_t t) {
        result.rows.push_back({s, e, t});
      });
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
                 [&](const PhasedBackend& p) {
                   return p.ObjectsOf(hub, ectx);
                 }),
          true);
      for (int n : all) ship(coordinator, n, kBytesPerKey * t.size());
      // Every node probes its objects. The hub itself is not an answer and
      // drops before its node ships.
      result = SubjectRows(MergeSorted(
          gather(all, kBytesPerKey,
                 [&](const PhasedBackend& p) {
                   std::vector<uint64_t> local =
                       p.SubjectsWithObjectIn(t, universe, ectx);
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

}  // namespace swan::core
