#include "core/row_backends.h"

#include <algorithm>

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

uint64_t PackPair(uint64_t a, uint64_t b) {
  SWAN_CHECK_MSG(a < (1ull << 32) && b < (1ull << 32),
                 "group keys must be 32-bit dictionary ids");
  return (a << 32) | b;
}

}  // namespace

// ---------------------------------------------------------------------------
// RowBackend: the 12 queries over ScanPattern and ScanBranches
// ---------------------------------------------------------------------------

bool RowBackend::Pass::Keeps(const rdf::Triple& t) const {
  if (subjects != nullptr && subjects->count(t.subject) == 0) return false;
  return props == nullptr ||
         std::binary_search(props->begin(), props->end(), t.property);
}

void RowBackend::ScanBranches(const Pass& pass, const exec::ExecContext& ectx,
                              const std::function<void(uint64_t)>& start,
                              const BranchFn& fn) const {
  (void)ectx;
  start(1);
  rdf::TriplePattern pattern;
  pattern.subject = pass.subject;
  ScanPattern(pattern, [&](const rdf::Triple& t) {
    if (pass.Keeps(t)) fn(0, t);
  });
}

std::unordered_set<uint64_t> RowBackend::SubjectSet(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx,
    const std::unordered_set<uint64_t>* within) const {
  obs::Span span(ectx.trace(), tag_ + ".index_scan");
  std::unordered_set<uint64_t> out;
  ScanPattern(PatternPO(property, object), [&](const rdf::Triple& t) {
    if (within == nullptr || within->count(t.subject) != 0) {
      out.insert(t.subject);
    }
  });
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
      [&](uint64_t branch, const rdf::Triple& t) {
        if (const std::optional<uint64_t> k = key(t)) ++partials[branch][*k];
      });
  // Partial counts are additive, so the totals are width-independent. The
  // largest partial becomes the total; keys new to it move over node by
  // node, and the rest add up.
  Counts counts;
  if (!partials.empty()) {
    counts.swap(*std::max_element(
        partials.begin(), partials.end(),
        [](const Counts& x, const Counts& y) { return x.size() < y.size(); }));
  }
  for (Counts& part : partials) {
    counts.merge(part);
    for (const auto& [k, n] : part) counts[k] += n;
  }
  span.set_rows_out(counts.size());
  return counts;
}

void RowBackend::JoinWithTypes(
    uint64_t build, bool key_by_object, const std::unordered_set<uint64_t>& a,
    uint64_t type, const exec::ExecContext& ectx,
    const std::function<void(uint64_t, const rdf::Triple&)>& emit,
    QueryResult* result) const {
  std::unordered_map<uint64_t, std::vector<uint64_t>> table;
  {
    obs::Span span(ectx.trace(), tag_ + ".hash_build");
    ScanPattern(PatternPO(build), [&](const rdf::Triple& t) {
      if (a.count(t.subject) == 0) return;
      if (key_by_object) {
        table[t.object].push_back(t.subject);
      } else {
        table[t.subject].push_back(t.object);
      }
    });
    span.set_rows_out(table.size());
  }
  obs::Span span(ectx.trace(), tag_ + ".hash_probe");
  ScanPattern(PatternPO(type), [&](const rdf::Triple& t) {
    auto it = table.find(t.subject);
    if (it == table.end()) return;
    for (uint64_t value : it->second) emit(value, t);
  });
  span.set_rows_out(result->rows.size());
}

QueryResult RowBackend::Run(QueryId id, const QueryContext& ctx,
                            const exec::ExecContext& ectx) {
  obs::Span span(ectx.trace(), tag_ + "." + FamilyName(id));
  const Vocabulary& v = ctx.vocab();
  const std::vector<uint64_t>* props = PropertyFilter(id, ctx);
  QueryResult result;
  const auto emit_counts = [&](const Counts& counts) {
    for (const auto& [key, count] : counts) result.rows.push_back({key, count});
  };
  switch (BaseOf(id)) {
    case QueryId::kQ1: {
      Counts counts;
      ScanPattern(PatternPO(v.type),
                  [&](const rdf::Triple& t) { ++counts[t.object]; });
      result.column_names = {"obj", "count"};
      emit_counts(counts);
      break;
    }
    case QueryId::kQ2:
    case QueryId::kQ6: {
      std::unordered_set<uint64_t> a = SubjectSet(v.type, v.text, ectx);
      if (BaseOf(id) == QueryId::kQ6) {
        // Union: plus the subjects whose records-object is Text-typed.
        std::vector<uint64_t> via_records;
        ScanPattern(PatternPO(v.records), [&](const rdf::Triple& t) {
          if (a.count(t.object) != 0) via_records.push_back(t.subject);
        });
        a.insert(via_records.begin(), via_records.end());
      }
      result.column_names = {"prop", "count"};
      emit_counts(CountPass({.props = props, .subjects = &a}, ectx,
                            [](const rdf::Triple& t) { return t.property; }));
      break;
    }
    case QueryId::kQ3:
    case QueryId::kQ4: {
      std::unordered_set<uint64_t> a = SubjectSet(v.type, v.text, ectx);
      // q4/q4*: the subject must also carry (language, fre).
      if (BaseOf(id) == QueryId::kQ4) {
        a = SubjectSet(v.language, v.french, ectx, &a);
      }
      const Counts groups =
          CountPass({.props = props, .subjects = &a}, ectx,
                    [](const rdf::Triple& t) {
                      return PackPair(t.property, t.object);
                    });
      result.column_names = {"prop", "obj", "count"};
      for (const auto& [packed, count] : groups) {
        if (count > 1) {
          result.rows.push_back({packed >> 32, packed & 0xFFFFFFFFull, count});
        }
      }
      break;
    }
    case QueryId::kQ5: {
      const std::unordered_set<uint64_t> a = SubjectSet(v.origin, v.dlc, ectx);
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
      const std::unordered_set<uint64_t> a = SubjectSet(v.point, v.end, ectx);
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
            if (t.subject == v.conferences || t_objects.count(t.object) == 0) {
              return std::nullopt;
            }
            return t.subject;
          });
      result.column_names = {"subj"};
      for (const auto& [subject, n] : subjects) result.rows.push_back({subject});
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
  ScanPattern(pattern, [&](const rdf::Triple& t) { out.push_back(t); });
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
  for (auto scan = relation_->Open(pattern); scan.Valid(); scan.Next()) {
    fn(scan.value());
  }
}

void RowTripleBackend::ScanBranches(const Pass& pass,
                                    const exec::ExecContext& ectx,
                                    const std::function<void(uint64_t)>& start,
                                    const BranchFn& fn) const {
  if (pass.subject) {
    RowBackend::ScanBranches(pass, ectx, start, fn);
    return;
  }
  relation_->FullScan(ectx, start,
                      [&](uint64_t part, const rdf::Triple& t) {
                        if (pass.Keeps(t)) fn(part, t);
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
    for (auto scan = relation_->OpenPartition(property, pattern.subject,
                                              pattern.object);
         scan.Valid(); scan.Next()) {
      fn(scan.value());
    }
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
    temp_table.assign(pass.subjects->begin(), pass.subjects->end());
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
      for (auto scan =
               relation_->OpenPartition(props[k], pass.subject, std::nullopt);
           scan.Valid(); scan.Next()) {
        fn(k, scan.value());
      }
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
    for (auto scan = relation_->OpenPartition(property, std::nullopt,
                                              std::nullopt);
         scan.Valid(); scan.Next()) {
      build.emplace(scan.value().subject, scan.value().object);
    }
    for (uint64_t key : temp_table) {
      auto [lo, hi] = build.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        fn(branch, rdf::Triple{key, property, it->second});
      }
    }
  } else {
    // Build on the temp-table side, probe with the partition scan.
    const std::unordered_set<uint64_t> build(temp_table.begin(),
                                             temp_table.end());
    for (auto scan = relation_->OpenPartition(property, std::nullopt,
                                              std::nullopt);
         scan.Valid(); scan.Next()) {
      if (build.count(scan.value().subject) != 0) fn(branch, scan.value());
    }
  }
}

}  // namespace swan::core
