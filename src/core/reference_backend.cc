#include "core/reference_backend.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"

namespace swan::core {

namespace {

bool ApplyFilter(QueryId id, const QueryContext& ctx) {
  return UsesPropertyFilter(id) && !IsStar(id) && !ctx.FilterCoversAll();
}

// Subjects s with (s, property, object) in the graph.
std::unordered_set<uint64_t> SubjectsOf(const std::vector<rdf::Triple>& triples,
                                        uint64_t property, uint64_t object) {
  std::unordered_set<uint64_t> out;
  for (const rdf::Triple& t : triples) {
    if (t.property == property && t.object == object) out.insert(t.subject);
  }
  return out;
}

}  // namespace

ReferenceBackend::ReferenceBackend(const rdf::Dataset& dataset)
    : BackendBase(storage::DiskConfig(), /*pool_pages=*/8),
      triples_(dataset.triples()),
      present_(triples_.begin(), triples_.end()) {}

Status ReferenceBackend::Insert(const rdf::Triple& triple) {
  if (!present_.insert(triple).second) {
    return Status::AlreadyExists("triple already present");
  }
  triples_.push_back(triple);
  return Status::OK();
}

Status ReferenceBackend::Delete(const rdf::Triple& triple) {
  if (present_.erase(triple) == 0) {
    return Status::NotFound("triple not present");
  }
  const auto it = std::find(triples_.begin(), triples_.end(), triple);
  SWAN_CHECK(it != triples_.end());
  triples_.erase(it);
  return Status::OK();
}

QueryResult ReferenceBackend::Run(QueryId id, const QueryContext& ctx,
                                  const exec::ExecContext& ectx) {
  (void)ectx;  // the oracle stays single-threaded by design
  const Vocabulary& v = ctx.vocab();
  QueryResult result;
  const bool filter = ApplyFilter(id, ctx);

  switch (BaseOf(id)) {
    case QueryId::kQ1: {
      result.column_names = {"obj", "count"};
      std::map<uint64_t, uint64_t> counts;
      for (const rdf::Triple& t : triples_) {
        if (t.property == v.type) ++counts[t.object];
      }
      for (const auto& [obj, count] : counts) result.rows.push_back({obj, count});
      break;
    }
    case QueryId::kQ2: {
      result.column_names = {"prop", "count"};
      const auto a = SubjectsOf(triples_, v.type, v.text);
      std::map<uint64_t, uint64_t> counts;
      for (const rdf::Triple& b : triples_) {
        if (a.count(b.subject) == 0) continue;
        if (filter && !ctx.IsInteresting(b.property)) continue;
        ++counts[b.property];
      }
      for (const auto& [p, count] : counts) result.rows.push_back({p, count});
      break;
    }
    case QueryId::kQ3:
    case QueryId::kQ4: {
      result.column_names = {"prop", "obj", "count"};
      const auto a = SubjectsOf(triples_, v.type, v.text);
      const bool q4 = BaseOf(id) == QueryId::kQ4;
      std::unordered_set<uint64_t> c;
      if (q4) c = SubjectsOf(triples_, v.language, v.french);
      std::map<std::pair<uint64_t, uint64_t>, uint64_t> counts;
      for (const rdf::Triple& b : triples_) {
        if (a.count(b.subject) == 0) continue;
        if (q4 && c.count(b.subject) == 0) continue;
        if (filter && !ctx.IsInteresting(b.property)) continue;
        ++counts[{b.property, b.object}];
      }
      for (const auto& [group, count] : counts) {
        if (count > 1) result.rows.push_back({group.first, group.second, count});
      }
      break;
    }
    case QueryId::kQ5: {
      result.column_names = {"subj", "obj"};
      const auto a = SubjectsOf(triples_, v.origin, v.dlc);
      std::unordered_multimap<uint64_t, uint64_t> types;  // subj -> type obj
      for (const rdf::Triple& t : triples_) {
        if (t.property == v.type) types.emplace(t.subject, t.object);
      }
      for (const rdf::Triple& b : triples_) {
        if (b.property != v.records || a.count(b.subject) == 0) continue;
        auto [lo, hi] = types.equal_range(b.object);
        for (auto it = lo; it != hi; ++it) {
          if (it->second != v.text) {
            result.rows.push_back({b.subject, it->second});
          }
        }
      }
      break;
    }
    case QueryId::kQ6: {
      result.column_names = {"prop", "count"};
      std::unordered_set<uint64_t> united = SubjectsOf(triples_, v.type, v.text);
      {
        const auto text_typed = united;
        for (const rdf::Triple& t : triples_) {
          if (t.property == v.records && text_typed.count(t.object) != 0) {
            united.insert(t.subject);
          }
        }
      }
      std::map<uint64_t, uint64_t> counts;
      for (const rdf::Triple& t : triples_) {
        if (united.count(t.subject) == 0) continue;
        if (filter && !ctx.IsInteresting(t.property)) continue;
        ++counts[t.property];
      }
      for (const auto& [p, count] : counts) result.rows.push_back({p, count});
      break;
    }
    case QueryId::kQ7: {
      result.column_names = {"subj", "encoding", "type"};
      const auto a = SubjectsOf(triples_, v.point, v.end);
      std::unordered_multimap<uint64_t, uint64_t> encodings, types;
      for (const rdf::Triple& t : triples_) {
        if (t.property == v.encoding) encodings.emplace(t.subject, t.object);
        if (t.property == v.type) types.emplace(t.subject, t.object);
      }
      for (uint64_t s : a) {
        auto [be, ee] = encodings.equal_range(s);
        auto [bt, et] = types.equal_range(s);
        for (auto ie = be; ie != ee; ++ie) {
          for (auto it = bt; it != et; ++it) {
            result.rows.push_back({s, ie->second, it->second});
          }
        }
      }
      break;
    }
    case QueryId::kQ8: {
      result.column_names = {"subj"};
      std::unordered_set<uint64_t> t_objects;
      for (const rdf::Triple& t : triples_) {
        if (t.subject == v.conferences) t_objects.insert(t.object);
      }
      std::set<uint64_t> subjects;
      for (const rdf::Triple& t : triples_) {
        if (t.subject != v.conferences && t_objects.count(t.object) != 0) {
          subjects.insert(t.subject);
        }
      }
      for (uint64_t s : subjects) result.rows.push_back({s});
      break;
    }
    default:
      SWAN_CHECK(false);
  }
  return result;
}

std::vector<rdf::Triple> ReferenceBackend::Match(
    const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
    const exec::ExecContext& ectx) const {
  (void)ectx;
  std::vector<rdf::Triple> out;
  for (const rdf::Triple& t : triples_) {
    if (pattern.Matches(t) && filter.Passes(t)) out.push_back(t);
  }
  return out;
}

}  // namespace swan::core
