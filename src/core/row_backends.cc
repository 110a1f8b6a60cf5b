#include "core/row_backends.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "colstore/ops.h"
#include "obs/trace.h"

namespace swan::core {

namespace {

// The pattern (?s, p, ?o).
rdf::TriplePattern PatternP(uint64_t p) {
  rdf::TriplePattern pattern;
  pattern.property = p;
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

// The ids of a sorted span as a hash set, probed per scanned tuple.
IdSet ToIdSet(std::span<const uint64_t> ids) {
  IdSet set;
  set.Reserve(ids.size());
  for (uint64_t id : ids) set.Insert(id);
  return set;
}

// A hash count table's groups, ascending by key.
KeyCounts SortedCounts(const IdMap<uint64_t>& counts) {
  KeyCounts out;
  out.reserve(counts.size());
  counts.ForEach([&](uint64_t k, uint64_t n) { out.emplace_back(k, n); });
  std::sort(out.begin(), out.end());
  return out;
}

// The keys of `groups`, in their order.
std::vector<uint64_t> KeysOf(const KeyCounts& groups) {
  std::vector<uint64_t> keys;
  keys.reserve(groups.size());
  for (const auto& group : groups) keys.push_back(group.first);
  return keys;
}

}  // namespace

// ---------------------------------------------------------------------------
// RowBackend: the five phases over ScanPattern and ScanBranches
// ---------------------------------------------------------------------------

template <typename Key>
KeyCounts RowBackend::CountPass(const Pass& pass,
                                const exec::ExecContext& ectx,
                                const Key& key) const {
  obs::Span span(ectx.trace(),
                 tag() + (pass.subject ? ".index_scan" : ".full_scan"));
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
  return SortedCounts(counts);
}

void RowBackend::PropertyObjectPairs(const Pass& pass,
                                     const exec::ExecContext& ectx,
                                     std::vector<uint64_t>* props,
                                     std::vector<uint64_t>* objects) const {
  obs::Span span(ectx.trace(), tag() + ".full_scan");
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

std::vector<uint64_t> RowBackend::ObjectsOf(
    uint64_t subject, const exec::ExecContext& ectx) const {
  return KeysOf(CountPass({.subject = subject}, ectx,
                          [](const rdf::Triple& t) { return t.object; }));
}

KeyCounts RowBackend::ObjectCounts(uint64_t property, uint64_t universe,
                                   const exec::ExecContext& ectx) const {
  (void)universe;
  (void)ectx;
  Counts counts;
  ScanPattern(PatternP(property), {}, EachTriple([&](const rdf::Triple& t) {
                ++counts[t.object];
              }));
  return SortedCounts(counts);
}

KeyCounts RowBackend::PropertyCounts(std::span<const uint64_t> subjects,
                                     const std::vector<uint64_t>* props,
                                     uint64_t universe,
                                     const exec::ExecContext& ectx) const {
  (void)universe;
  return CountPass({.props = props, .subjects = subjects}, ectx,
                   [](const rdf::Triple& t) { return t.property; });
}

std::vector<colstore::PairCount> RowBackend::PropertyObjectCounts(
    std::span<const uint64_t> subjects, const std::vector<uint64_t>* props,
    uint64_t universe, const colstore::MinCount& min_count,
    const exec::ExecContext& ectx) const {
  std::vector<uint64_t> ps;
  std::vector<uint64_t> os;
  PropertyObjectPairs({.props = props, .subjects = subjects}, ectx, &ps, &os);
  return colstore::CountPairs(ps, os, universe, min_count, ectx);
}

std::vector<uint64_t> RowBackend::SubjectsWithObjectIn(
    std::span<const uint64_t> objects, uint64_t universe,
    const exec::ExecContext& ectx) const {
  (void)universe;
  const IdSet in = ToIdSet(objects);
  return KeysOf(CountPass(
      {}, ectx, [&](const rdf::Triple& t) -> std::optional<uint64_t> {
        if (!in.contains(t.object)) return std::nullopt;
        return t.subject;
      }));
}

std::vector<rdf::Triple> RowBackend::Match(
    const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
    const exec::ExecContext& ectx) const {
  // The span is suppressed automatically when Match runs inside a BGP
  // worker lane.
  obs::Span span(ectx.trace(), match_span_);
  std::vector<rdf::Triple> out;
  ScanPattern(pattern, filter, [&](std::span<const rdf::Triple> batch) {
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
                                   const rdf::PatternFilter& filter,
                                   const TripleFn& fn) const {
  relation_->ScanMatches(pattern, filter, fn);
}

void RowTripleBackend::ScanBranches(const Pass& pass,
                                    const exec::ExecContext& ectx,
                                    const std::function<void(uint64_t)>& start,
                                    const BranchFn& fn) const {
  if (!pass.subject) {
    // A semi-join probes a hash set of its subjects once per key.
    const IdSet in =
        ToIdSet(pass.subjects.value_or(std::span<const uint64_t>()));
    relation_->FullScan(ectx, pass.props, pass.subjects ? &in : nullptr,
                        start, fn);
    return;
  }
  start(1);
  rdf::TriplePattern pattern;
  pattern.subject = pass.subject;
  const auto keeps = [&pass](const rdf::Triple& t) {
    return pass.props == nullptr ||
           std::binary_search(pass.props->begin(), pass.props->end(),
                              t.property);
  };
  ScanPattern(pattern, {}, [&](std::span<const rdf::Triple> batch) {
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
                                     const rdf::PatternFilter& filter,
                                     const TripleFn& fn) const {
  for (uint64_t p :
       rdf::PartitionsToOpen(pattern, filter, relation_->properties())) {
    relation_->ScanPartition(rdf::WithComponent(pattern, 1, p), filter, fn);
  }
}

void RowVerticalBackend::ScanBranches(
    const Pass& pass, const exec::ExecContext& ectx,
    const std::function<void(uint64_t)>& start, const BranchFn& fn) const {
  const std::vector<uint64_t>& props =
      pass.props != nullptr ? *pass.props : relation_->properties();
  start(props.size());
  // The semi-join's sorted subject list is its temporary table, but the
  // generated SQL contains one join *per property table*, and each union
  // branch builds its own hash table from it — there is no sub-plan
  // sharing across the hundreds of branches. This per-branch build cost
  // is exactly the "proliferation of unions and joins" overhead of §4.2.
  const bool semi_join = !pass.subject && pass.subjects;
  // The branches are independent, so they fan out across the context's
  // lanes. A subject probe is one B+tree descent per property table.
  obs::Span span(ectx.trace(), pass.subject ? "row_vert.probe_descents"
                                            : "row_vert.union_join");
  span.set_rows_in(props.size());
  ectx.ParallelFor(props.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t k = b; k < e; ++k) {
      if (semi_join) {
        JoinPartitionWithTempTable(props[k], *pass.subjects, k, fn);
        continue;
      }
      relation_->ScanPartition(
          {pass.subject, props[k], std::nullopt}, {},
          [&](std::span<const rdf::Triple> batch) { fn(k, batch); });
    }
  });
}

void RowVerticalBackend::JoinPartitionWithTempTable(
    uint64_t property, std::span<const uint64_t> temp_table,
    uint64_t branch, const BranchFn& fn) const {
  const uint64_t partition_rows = relation_->PartitionSize(property);
  if (partition_rows == 0) return;
  if (partition_rows < temp_table.size()) {
    // Build on the partition side, probe with the temp table.
    std::unordered_multimap<uint64_t, uint64_t> build;
    build.reserve(partition_rows);
    relation_->ScanPartition(
        PatternP(property), {},
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
        PatternP(property), {},
        [&](std::span<const rdf::Triple> batch) {
          ForKept(
              batch,
              [&](const rdf::Triple& t) { return build.count(t.subject) != 0; },
              [&](std::span<const rdf::Triple> kept) { fn(branch, kept); });
        });
  }
}

}  // namespace swan::core
