#include "cstore/cstore_engine.h"

#include <algorithm>
#include <unordered_set>

#include "colstore/ops.h"
#include "common/macros.h"

namespace swan::cstore {

using colstore::CountByKeyDense;
using colstore::EncodedColumn;
using colstore::Gather;
using colstore::MarkSet;
using colstore::MergeCountMatches;
using colstore::MergeJoin;
using colstore::MergeSelectPositions;
using colstore::PositionVector;
using colstore::SelectEq;
using colstore::SelectMarked;
using colstore::SortedIntersect;
using colstore::UnionDistinct;

storage::DiskConfig CStoreEngine::RecommendedDiskConfig(
    double bandwidth_mb_per_s) {
  storage::DiskConfig config;
  config.bandwidth_mb_per_s = bandwidth_mb_per_s;
  config.seek_latency_ms = 2.0;
  config.forced_seek_interval_pages = 4;
  return config;
}

CStoreEngine::CStoreEngine(storage::BufferPool* pool,
                           storage::SimulatedDisk* disk)
    : pool_(pool), disk_(disk) {}

void CStoreEngine::Load(std::span<const rdf::Triple> triples,
                        std::span<const uint64_t> properties) {
  SWAN_CHECK_MSG(partitions_.empty(), "CStoreEngine::Load called twice");
  const std::unordered_set<uint64_t> wanted(properties.begin(),
                                            properties.end());
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> groups;
  for (const rdf::Triple& t : triples) {
    if (wanted.count(t.property) != 0) {
      groups[t.property].emplace_back(t.subject, t.object);
    }
  }
  for (auto& [prop, rows] : groups) {
    std::sort(rows.begin(), rows.end());
    properties_.push_back(prop);
    Partition part;
    // The real C-Store compresses aggressively; pick the best codec per
    // column (sorted subjects delta-compress, objects fall back as needed).
    part.subj = std::make_unique<colstore::Column>(
        pool_, disk_, colstore::ColumnCodec::kAuto);
    part.obj = std::make_unique<colstore::Column>(
        pool_, disk_, colstore::ColumnCodec::kAuto);
    std::vector<uint64_t> buf(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) buf[i] = rows[i].first;
    part.subj->Build(buf);
    for (size_t i = 0; i < rows.size(); ++i) buf[i] = rows[i].second;
    part.obj->Build(buf);
    partitions_.emplace(prop, std::move(part));
  }
}

const CStoreEngine::Partition& CStoreEngine::Require(uint64_t property) const {
  auto it = partitions_.find(property);
  SWAN_CHECK_MSG(it != partitions_.end(), "property not loaded in C-Store");
  return it->second;
}

std::vector<uint64_t> CStoreEngine::SubjectsWhereObjEq(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx) const {
  if (!HasProperty(property)) return {};
  const PositionVector sel = SelectEq(Objects(property), object, ectx);
  return Gather(Subjects(property), sel, ectx);
}

CStoreEngine::Rows CStoreEngine::Q1(const CStoreConstants& c,
                                    const exec::ExecContext& ectx) const {
  Rows rows;
  if (!HasProperty(c.type)) return rows;
  for (const auto& [obj, count] : CountByKeyDense(Objects(c.type),
                                                  c.dict_size, ectx)) {
    rows.push_back({obj, count});
  }
  return rows;
}

CStoreEngine::Rows CStoreEngine::CountMatchesPerProperty(
    const std::vector<uint64_t>& keys, const exec::ExecContext& ectx) const {
  // One independent merge-count sub-plan per partition, fanned out across
  // the pool and emitted in property order.
  std::vector<uint64_t> counts(properties_.size(), 0);
  ectx.ParallelFor(
      properties_.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
        for (uint64_t k = b; k < e; ++k) {
          const EncodedColumn& subj = Subjects(properties_[k]);
          counts[k] = MergeCountMatches(subj, 0, subj.size(), keys, ectx);
        }
      });
  Rows rows;
  for (size_t k = 0; k < properties_.size(); ++k) {
    if (counts[k] > 0) rows.push_back({properties_[k], counts[k]});
  }
  return rows;
}

CStoreEngine::Rows CStoreEngine::GroupObjectsPerProperty(
    const std::vector<uint64_t>& keys, const exec::ExecContext& ectx) const {
  std::vector<Rows> groups(properties_.size());
  ectx.ParallelFor(
      properties_.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
        for (uint64_t k = b; k < e; ++k) {
          const uint64_t p = properties_[k];
          const EncodedColumn& subj = Subjects(p);
          const PositionVector sel =
              MergeSelectPositions(subj, 0, subj.size(), keys, ectx);
          std::vector<uint64_t> objs = Gather(Objects(p), sel, ectx);
          std::sort(objs.begin(), objs.end());
          size_t i = 0;
          while (i < objs.size()) {
            size_t j = i + 1;
            while (j < objs.size() && objs[j] == objs[i]) ++j;
            if (j - i > 1) {
              groups[k].push_back({p, objs[i], static_cast<uint64_t>(j - i)});
            }
            i = j;
          }
        }
      });
  Rows rows;
  for (auto& g : groups) {
    for (auto& row : g) rows.push_back(std::move(row));
  }
  return rows;
}

CStoreEngine::Rows CStoreEngine::Q2(const CStoreConstants& c,
                                    const exec::ExecContext& ectx) const {
  return CountMatchesPerProperty(SubjectsWhereObjEq(c.type, c.text, ectx),
                                 ectx);
}

CStoreEngine::Rows CStoreEngine::Q3(const CStoreConstants& c,
                                    const exec::ExecContext& ectx) const {
  return GroupObjectsPerProperty(SubjectsWhereObjEq(c.type, c.text, ectx),
                                 ectx);
}

CStoreEngine::Rows CStoreEngine::Q4(const CStoreConstants& c,
                                    const exec::ExecContext& ectx) const {
  return GroupObjectsPerProperty(
      SortedIntersect(SubjectsWhereObjEq(c.type, c.text, ectx),
                      SubjectsWhereObjEq(c.language, c.french, ectx)),
      ectx);
}

CStoreEngine::Rows CStoreEngine::Q5(const CStoreConstants& c,
                                    const exec::ExecContext& ectx) const {
  Rows rows;
  if (!HasProperty(c.records) || !HasProperty(c.type)) return rows;
  MarkSet a(c.dict_size);
  a.MarkAll(SubjectsWhereObjEq(c.origin, c.dlc, ectx));

  const EncodedColumn& rs = Subjects(c.records);
  const PositionVector rec_sel = SelectMarked(rs, a, ectx);
  const std::vector<uint64_t> rec_subjects = Gather(rs, rec_sel, ectx);
  const std::vector<uint64_t> rec_objects =
      Gather(Objects(c.records), rec_sel, ectx);
  std::vector<std::pair<uint64_t, uint64_t>> b_pairs(rec_sel.size());
  for (size_t i = 0; i < b_pairs.size(); ++i) {
    b_pairs[i] = {rec_objects[i], rec_subjects[i]};
  }
  std::sort(b_pairs.begin(), b_pairs.end());
  std::vector<uint64_t> b_objects(b_pairs.size());
  for (size_t i = 0; i < b_pairs.size(); ++i) b_objects[i] = b_pairs[i].first;

  const EncodedColumn& c_subjects = Subjects(c.type);
  const auto pairs =
      MergeJoin(b_objects, c_subjects, 0, c_subjects.size(), ectx);
  PositionVector c_sel(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) c_sel[i] = pairs[i].second;
  const std::vector<uint64_t> c_objects = Gather(Objects(c.type), c_sel, ectx);
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (c_objects[i] != c.text) {
      rows.push_back({b_pairs[pairs[i].first].second, c_objects[i]});
    }
  }
  return rows;
}

CStoreEngine::Rows CStoreEngine::Q6(const CStoreConstants& c,
                                    const exec::ExecContext& ectx) const {
  const std::vector<uint64_t> a1 = SubjectsWhereObjEq(c.type, c.text, ectx);
  MarkSet text_typed(c.dict_size);
  text_typed.MarkAll(a1);

  std::vector<uint64_t> via_records;
  if (HasProperty(c.records)) {
    const EncodedColumn& rs = Subjects(c.records);
    via_records =
        Gather(rs, SelectMarked(Objects(c.records), text_typed, ectx), ectx);
  }
  const std::vector<uint64_t> united = UnionDistinct({a1, via_records}, ectx);
  return CountMatchesPerProperty(united, ectx);
}

CStoreEngine::Rows CStoreEngine::Q7(const CStoreConstants& c,
                                    const exec::ExecContext& ectx) const {
  Rows rows;
  if (!HasProperty(c.encoding) || !HasProperty(c.type)) return rows;
  MarkSet a(c.dict_size);
  a.MarkAll(SubjectsWhereObjEq(c.point, c.end, ectx));

  auto collect = [&](uint64_t property, std::vector<uint64_t>* subjects,
                     std::vector<uint64_t>* objects) {
    const EncodedColumn& subj = Subjects(property);
    const PositionVector sel = SelectMarked(subj, a, ectx);
    *subjects = Gather(subj, sel, ectx);
    *objects = Gather(Objects(property), sel, ectx);
  };
  std::vector<uint64_t> b_subj, b_obj, c_subj, c_obj;
  collect(c.encoding, &b_subj, &b_obj);
  collect(c.type, &c_subj, &c_obj);

  for (const auto& [bi, ci] : MergeJoin(b_subj, c_subj, ectx)) {
    rows.push_back({b_subj[bi], b_obj[bi], c_obj[ci]});
  }
  return rows;
}

void CStoreEngine::DropCaches() const {
  for (const auto& [prop, part] : partitions_) {
    part.subj->DropCache();
    part.obj->DropCache();
  }
}

uint64_t CStoreEngine::disk_bytes() const {
  uint64_t total = 0;
  for (const auto& [prop, part] : partitions_) {
    total += part.subj->disk_bytes() + part.obj->disk_bytes();
  }
  return total;
}

uint64_t CStoreEngine::resident_bytes() const {
  uint64_t total = 0;
  for (const auto& [prop, part] : partitions_) {
    total += part.subj->resident_bytes() + part.obj->resident_bytes();
  }
  return total;
}

void CStoreEngine::AuditInto(audit::AuditLevel level,
                             std::optional<uint64_t> max_valid_id,
                             audit::AuditReport* report) const {
  if (properties_.size() != partitions_.size()) {
    report->Add(audit::FindingClass::kStructure, "cstore",
                "property index has " + std::to_string(properties_.size()) +
                    " entries, partition map has " +
                    std::to_string(partitions_.size()));
  }
  for (uint64_t prop : properties_) {
    if (partitions_.count(prop) == 0) {
      report->Add(audit::FindingClass::kStructure, "cstore",
                  "property " + std::to_string(prop) +
                      " indexed but has no partition");
    }
  }
  for (const auto& [prop, part] : partitions_) {
    const std::string name = "cstore.partition(" + std::to_string(prop) + ")";
    colstore::ColumnAuditOptions subj_opts;
    subj_opts.label = name + ".subject";
    subj_opts.expect_sorted = true;
    subj_opts.max_valid_id = max_valid_id;
    part.subj->AuditInto(level, subj_opts, report);
    colstore::ColumnAuditOptions obj_opts;
    obj_opts.label = name + ".object";
    obj_opts.max_valid_id = max_valid_id;
    part.obj->AuditInto(level, obj_opts, report);
    if (part.subj->size() != part.obj->size()) {
      report->Add(audit::FindingClass::kColumn, name,
                  "subject column has " + std::to_string(part.subj->size()) +
                      " values, object column has " +
                      std::to_string(part.obj->size()));
    }
  }
}

}  // namespace swan::cstore
