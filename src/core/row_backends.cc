#include "core/row_backends.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "colstore/ops.h"
#include "common/macros.h"
#include "obs/trace.h"

namespace swan::core {

namespace {

rdf::TriplePattern PatternPO(uint64_t p,
                             std::optional<uint64_t> o = std::nullopt) {
  rdf::TriplePattern pattern;
  pattern.property = p;
  pattern.object = o;
  return pattern;
}

// Calls fn with the triples of `batch` that satisfy `keep`, as one batch
// (no call when none does).
template <typename Keep, typename Fn>
void ForKept(std::span<const rdf::Triple> batch, const Keep& keep,
             const Fn& fn) {
  std::vector<rdf::Triple> kept;
  kept.reserve(batch.size());
  for (const rdf::Triple& t : batch) {
    if (keep(t)) kept.push_back(t);
  }
  if (!kept.empty()) fn(std::span<const rdf::Triple>(kept));
}

// Adapts a per-triple callback to a scan's batches: the callback inlines
// into the batch loop, so the scan pays one indirect call per batch.
template <typename Fn>
auto EachTriple(const Fn& fn) {
  return [&fn](std::span<const rdf::Triple> batch) {
    for (const rdf::Triple& t : batch) fn(t);
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// RowBackend: the 12 queries over ScanPattern and ScanBranches
// ---------------------------------------------------------------------------

IdSet RowBackend::SubjectSet(uint64_t property, uint64_t object,
                             const exec::ExecContext& ectx,
                             const IdSet* within) const {
  obs::Span span(ectx.trace(), tag_ + ".index_scan");
  IdSet out;
  ScanPattern(PatternPO(property, object),
              EachTriple([&](const rdf::Triple& t) {
                if (within == nullptr || within->contains(t.subject)) {
                  out.Insert(t.subject);
                }
              }));
  span.set_rows_out(out.size());
  return out;
}

template <typename Key>
RowBackend::Counts RowBackend::CountPass(const Pass& pass,
                                         const exec::ExecContext& ectx,
                                         const Key& key) const {
  obs::Span span(ectx.trace(),
                 tag_ + (pass.subject ? ".index_scan" : ".full_scan"));
  std::vector<Counts> partials;
  ScanBranches(
      pass, ectx, [&](uint64_t branches) { partials.resize(branches); },
      [&](uint64_t branch, std::span<const rdf::Triple> batch) {
        Counts& partial = partials[branch];
        for (const rdf::Triple& t : batch) {
          if (const std::optional<uint64_t> k = key(t)) ++partial[*k];
        }
      });
  // Partial counts are additive, so the totals are width-independent: the
  // first partial becomes the total and the others add to it key by key,
  // into a table sized up front for every partial's keys.
  Counts counts;
  if (!partials.empty()) counts = std::move(partials.front());
  size_t keys = counts.size();
  for (size_t i = 1; i < partials.size(); ++i) keys += partials[i].size();
  counts.Reserve(keys);
  for (size_t i = 1; i < partials.size(); ++i) {
    partials[i].ForEach([&](uint64_t k, uint64_t n) { counts[k] += n; });
  }
  span.set_rows_out(counts.size());
  return counts;
}

void RowBackend::PropertyObjectPairs(const Pass& pass,
                                     const exec::ExecContext& ectx,
                                     std::vector<uint64_t>* props,
                                     std::vector<uint64_t>* objects) const {
  obs::Span span(ectx.trace(), tag_ + ".full_scan");
  std::vector<std::vector<uint64_t>> branch_props;
  std::vector<std::vector<uint64_t>> branch_objects;
  ScanBranches(
      pass, ectx,
      [&](uint64_t branches) {
        branch_props.resize(branches);
        branch_objects.resize(branches);
      },
      [&](uint64_t branch, std::span<const rdf::Triple> batch) {
        for (const rdf::Triple& t : batch) {
          branch_props[branch].push_back(t.property);
          branch_objects[branch].push_back(t.object);
        }
      });
  for (size_t i = 0; i < branch_props.size(); ++i) {
    props->insert(props->end(), branch_props[i].begin(),
                  branch_props[i].end());
    objects->insert(objects->end(), branch_objects[i].begin(),
                    branch_objects[i].end());
  }
  span.set_rows_out(props->size());
}

void RowBackend::JoinWithTypes(
    uint64_t build, bool key_by_object, const IdSet& a, uint64_t type,
    const exec::ExecContext& ectx,
    const std::function<void(uint64_t, const rdf::Triple&)>& emit,
    QueryResult* result) const {
  // The build rows' values, chained per key: head[key] is 1 + the index of
  // its last row, next[i] that of the row before row i (0 ends a chain).
  IdMap<uint64_t> head;
  std::vector<uint64_t> values;
  std::vector<uint64_t> next;
  {
    obs::Span span(ectx.trace(), tag_ + ".hash_build");
    ScanPattern(PatternPO(build), EachTriple([&](const rdf::Triple& t) {
                  if (!a.contains(t.subject)) return;
                  uint64_t& last = head[key_by_object ? t.object : t.subject];
                  values.push_back(key_by_object ? t.subject : t.object);
                  next.push_back(last);
                  last = values.size();
                }));
    span.set_rows_out(head.size());
  }
  obs::Span span(ectx.trace(), tag_ + ".hash_probe");
  ScanPattern(PatternPO(type), EachTriple([&](const rdf::Triple& t) {
                const uint64_t* last = head.Find(t.subject);
                if (last == nullptr) return;
                for (uint64_t i = *last; i != 0; i = next[i - 1]) {
                  emit(values[i - 1], t);
                }
              }));
  span.set_rows_out(result->rows.size());
}

QueryResult RowBackend::Run(QueryId id, const QueryContext& ctx,
                            const exec::ExecContext& ectx) {
  obs::Span span(ectx.trace(), tag_ + "." + FamilyName(id));
  const Vocabulary& v = ctx.vocab();
  const std::vector<uint64_t>* props = PropertyFilter(id, ctx);
  QueryResult result;
  const auto emit_counts = [&](const Counts& counts) {
    counts.ForEach([&](uint64_t key, uint64_t count) {
      result.rows.push_back({key, count});
    });
  };
  switch (BaseOf(id)) {
    case QueryId::kQ1: {
      Counts counts;
      ScanPattern(PatternPO(v.type), EachTriple([&](const rdf::Triple& t) {
                    ++counts[t.object];
                  }));
      result.column_names = {"obj", "count"};
      emit_counts(counts);
      break;
    }
    case QueryId::kQ2:
    case QueryId::kQ6: {
      IdSet a = SubjectSet(v.type, v.text, ectx);
      if (BaseOf(id) == QueryId::kQ6) {
        // Union: plus the subjects whose records-object is Text-typed.
        std::vector<uint64_t> via_records;
        ScanPattern(PatternPO(v.records),
                    EachTriple([&](const rdf::Triple& t) {
                      if (a.contains(t.object)) {
                        via_records.push_back(t.subject);
                      }
                    }));
        for (uint64_t s : via_records) a.Insert(s);
      }
      result.column_names = {"prop", "count"};
      emit_counts(CountPass({.props = props, .subjects = &a}, ectx,
                            [](const rdf::Triple& t) { return t.property; }));
      break;
    }
    case QueryId::kQ3:
    case QueryId::kQ4: {
      IdSet a = SubjectSet(v.type, v.text, ectx);
      // q4/q4*: the subject must also carry (language, fre).
      if (BaseOf(id) == QueryId::kQ4) {
        a = SubjectSet(v.language, v.french, ectx, &a);
      }
      std::vector<uint64_t> ps;
      std::vector<uint64_t> os;
      PropertyObjectPairs({.props = props, .subjects = &a}, ectx, &ps, &os);
      result.column_names = {"prop", "obj", "count"};
      // HAVING count > 1.
      for (const colstore::PairCount& g :
           colstore::CountPairs(ps, os, ctx.dict_size(), 2, ectx)) {
        result.rows.push_back({g.a, g.b, g.count});
      }
      break;
    }
    case QueryId::kQ5: {
      const IdSet a = SubjectSet(v.origin, v.dlc, ectx);
      result.column_names = {"subj", "obj"};
      JoinWithTypes(
          v.records, /*key_by_object=*/true, a, v.type, ectx,
          [&](uint64_t subject, const rdf::Triple& type) {
            if (type.object != v.text) {
              result.rows.push_back({subject, type.object});
            }
          },
          &result);
      break;
    }
    case QueryId::kQ7: {
      const IdSet a = SubjectSet(v.point, v.end, ectx);
      result.column_names = {"subj", "encoding", "type"};
      JoinWithTypes(
          v.encoding, /*key_by_object=*/false, a, v.type, ectx,
          [&](uint64_t encoding, const rdf::Triple& type) {
            result.rows.push_back({type.subject, encoding, type.object});
          },
          &result);
      break;
    }
    case QueryId::kQ8: {
      // Temporary table t: the objects of subject "conferences", joined
      // back against every property's objects.
      const Counts t_objects =
          CountPass({.subject = v.conferences}, ectx,
                    [](const rdf::Triple& t) { return t.object; });
      const Counts subjects = CountPass(
          {}, ectx, [&](const rdf::Triple& t) -> std::optional<uint64_t> {
            if (t.subject == v.conferences || !t_objects.contains(t.object)) {
              return std::nullopt;
            }
            return t.subject;
          });
      result.column_names = {"subj"};
      subjects.ForEach([&](uint64_t subject, uint64_t) {
        result.rows.push_back({subject});
      });
      break;
    }
    default:
      SWAN_CHECK(false);
  }
  span.set_rows_out(result.row_count());
  return result;
}

std::vector<rdf::Triple> RowBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  // The span is suppressed automatically when Match runs inside a BGP
  // worker lane.
  obs::Span span(ectx.trace(), match_span_);
  std::vector<rdf::Triple> out;
  ScanPattern(pattern, [&](std::span<const rdf::Triple> batch) {
    out.insert(out.end(), batch.begin(), batch.end());
  });
  span.set_rows_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// RowTripleBackend
// ---------------------------------------------------------------------------

RowTripleBackend::RowTripleBackend(const rdf::Dataset& dataset,
                                   rowstore::TripleRelation::Config config,
                                   storage::DiskConfig disk_config,
                                   size_t pool_pages)
    : RowBackend("row_triple", disk_config, pool_pages) {
  relation_ = std::make_unique<rowstore::TripleRelation>(
      pool_, disk_, std::move(config));
  relation_->Load(dataset.triples());
}

std::string RowTripleBackend::name() const {
  return std::string("DBX triple ") +
         rdf::ToString(relation_->config().clustered);
}

void RowTripleBackend::ScanPattern(const rdf::TriplePattern& pattern,
                                   const TripleFn& fn) const {
  relation_->ScanMatches(pattern, fn);
}

void RowTripleBackend::ScanBranches(const Pass& pass,
                                    const exec::ExecContext& ectx,
                                    const std::function<void(uint64_t)>& start,
                                    const BranchFn& fn) const {
  if (!pass.subject) {
    relation_->FullScan(ectx, pass.props, pass.subjects, start, fn);
    return;
  }
  start(1);
  rdf::TriplePattern pattern;
  pattern.subject = pass.subject;
  const auto keeps = [&pass](const rdf::Triple& t) {
    if (pass.subjects != nullptr && !pass.subjects->contains(t.subject)) {
      return false;
    }
    return pass.props == nullptr ||
           std::binary_search(pass.props->begin(), pass.props->end(),
                              t.property);
  };
  ScanPattern(pattern, [&](std::span<const rdf::Triple> batch) {
    ForKept(batch, keeps,
            [&](std::span<const rdf::Triple> kept) { fn(0, kept); });
  });
}

// ---------------------------------------------------------------------------
// RowVerticalBackend
// ---------------------------------------------------------------------------

RowVerticalBackend::RowVerticalBackend(const rdf::Dataset& dataset,
                                       storage::DiskConfig disk_config,
                                       size_t pool_pages)
    : RowBackend("row_vert", disk_config, pool_pages) {
  relation_ = std::make_unique<rowstore::VerticalRelation>(pool_,
                                                           disk_);
  relation_->Load(dataset.triples());
}

std::string RowVerticalBackend::name() const { return "DBX vert. SO"; }

void RowVerticalBackend::ScanPattern(const rdf::TriplePattern& pattern,
                                     const TripleFn& fn) const {
  const auto scan_partition = [&](uint64_t property) {
    relation_->ScanPartition(property, pattern.subject, pattern.object, fn);
  };
  if (pattern.property) {
    scan_partition(*pattern.property);
    return;
  }
  for (uint64_t p : relation_->properties()) scan_partition(p);
}

void RowVerticalBackend::ScanBranches(
    const Pass& pass, const exec::ExecContext& ectx,
    const std::function<void(uint64_t)>& start, const BranchFn& fn) const {
  const std::vector<uint64_t>& props =
      pass.props != nullptr ? *pass.props : relation_->properties();
  start(props.size());
  // The semi-join's subjects are materialized once as a temporary table,
  // but the generated SQL contains one join *per property table*,
  // and each union branch builds its own hash table from it — there is no
  // sub-plan sharing across the hundreds of branches. This per-branch
  // build cost is exactly the "proliferation of unions and joins"
  // overhead of §4.2.
  const bool semi_join = !pass.subject && pass.subjects != nullptr;
  std::vector<uint64_t> temp_table;
  if (semi_join) {
    obs::Span span(ectx.trace(), "row_vert.temp_table");
    temp_table.reserve(pass.subjects->size());
    pass.subjects->ForEach([&](uint64_t s) { temp_table.push_back(s); });
    span.set_rows_out(temp_table.size());
  }
  // The branches are independent, so they fan out across the context's
  // lanes. A subject probe is one B+tree descent per property table.
  obs::Span span(ectx.trace(), pass.subject ? "row_vert.probe_descents"
                                            : "row_vert.union_join");
  span.set_rows_in(props.size());
  ectx.ParallelFor(props.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t k = b; k < e; ++k) {
      if (semi_join) {
        JoinPartitionWithTempTable(props[k], temp_table, k, fn);
        continue;
      }
      relation_->ScanPartition(
          props[k], pass.subject, std::nullopt,
          [&](std::span<const rdf::Triple> batch) { fn(k, batch); });
    }
  });
}

void RowVerticalBackend::JoinPartitionWithTempTable(
    uint64_t property, const std::vector<uint64_t>& temp_table,
    uint64_t branch, const BranchFn& fn) const {
  const uint64_t partition_rows = relation_->PartitionSize(property);
  if (partition_rows == 0) return;
  if (partition_rows < temp_table.size()) {
    // Build on the partition side, probe with the temp table.
    std::unordered_multimap<uint64_t, uint64_t> build;
    build.reserve(partition_rows);
    relation_->ScanPartition(
        property, std::nullopt, std::nullopt,
        EachTriple([&](const rdf::Triple& t) {
          build.emplace(t.subject, t.object);
        }));
    std::vector<rdf::Triple> matches;
    for (uint64_t key : temp_table) {
      auto [lo, hi] = build.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        matches.push_back({key, property, it->second});
      }
    }
    if (!matches.empty()) fn(branch, matches);
  } else {
    // Build on the temp-table side, probe with the partition scan.
    const std::unordered_set<uint64_t> build(temp_table.begin(),
                                             temp_table.end());
    relation_->ScanPartition(
        property, std::nullopt, std::nullopt,
        [&](std::span<const rdf::Triple> batch) {
          ForKept(
              batch,
              [&](const rdf::Triple& t) { return build.count(t.subject) != 0; },
              [&](std::span<const rdf::Triple> kept) { fn(branch, kept); });
        });
  }
}

}  // namespace swan::core
