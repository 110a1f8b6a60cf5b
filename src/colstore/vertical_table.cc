#include "colstore/vertical_table.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"

namespace swan::colstore {

VerticalTable::VerticalTable(storage::BufferPool* pool,
                             storage::SimulatedDisk* disk, ColumnCodec codec)
    : pool_(pool), disk_(disk), codec_(codec) {}

void VerticalTable::Load(std::span<const rdf::Triple> triples) {
  SWAN_CHECK_MSG(partitions_.empty(), "VerticalTable::Load called twice");

  // Sort once as (p, s, o); each property's run is its partition, already
  // in (subject, object) order. Partitions are built in ascending
  // property order.
  std::vector<std::array<uint64_t, 3>> pso(triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    pso[i] = KeyOf(triples[i], rdf::TripleOrder::kPSO);
  }
  rdf::SortKeys(&pso);

  std::vector<uint64_t> buf;
  for (size_t begin = 0, end; begin < pso.size(); begin = end) {
    const uint64_t prop = pso[begin][0];
    end = begin;
    while (end < pso.size() && pso[end][0] == prop) ++end;
    SWAN_CHECK_LT(end - begin, 1ull << 32);
    properties_.push_back(prop);

    Partition part;
    part.rows = end - begin;
    part.subj = std::make_unique<Column>(pool_, disk_, codec_);
    part.obj = std::make_unique<Column>(pool_, disk_, codec_);
    buf.resize(end - begin);
    for (size_t i = begin; i < end; ++i) buf[i - begin] = pso[i][1];
    part.subj->Build(buf);
    for (size_t i = begin; i < end; ++i) buf[i - begin] = pso[i][2];
    part.obj->Build(buf);
    partitions_.emplace(prop, std::move(part));
  }
}

void VerticalTable::ReplacePartition(
    uint64_t property, std::span<const std::pair<uint64_t, uint64_t>> rows) {
  SWAN_CHECK_LT(rows.size(), 1ull << 32);
  for (size_t i = 1; i < rows.size(); ++i) {
    SWAN_DCHECK(rows[i - 1] < rows[i]);
  }
  Partition part;
  part.rows = rows.size();
  part.subj = std::make_unique<Column>(pool_, disk_, codec_);
  part.obj = std::make_unique<Column>(pool_, disk_, codec_);
  std::vector<uint64_t> buf(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) buf[i] = rows[i].first;
  part.subj->Build(buf);
  for (size_t i = 0; i < rows.size(); ++i) buf[i] = rows[i].second;
  part.obj->Build(buf);

  auto it = partitions_.find(property);
  if (it == partitions_.end()) {
    partitions_.emplace(property, std::move(part));
    properties_.insert(std::lower_bound(properties_.begin(), properties_.end(),
                                        property),
                       property);
  } else {
    // The replaced columns' pages are garbage: free them.
    disk_->DropFile(it->second.subj->file_id());
    disk_->DropFile(it->second.obj->file_id());
    it->second = std::move(part);
  }
}

uint64_t VerticalTable::PartitionSize(uint64_t property) const {
  auto it = partitions_.find(property);
  return it == partitions_.end() ? 0 : it->second.rows;
}

const VerticalTable::Partition& VerticalTable::Require(
    uint64_t property) const {
  auto it = partitions_.find(property);
  SWAN_CHECK_MSG(it != partitions_.end(), "no partition for property");
  return it->second;
}

const EncodedColumn& VerticalTable::EncodedSubjects(uint64_t property) const {
  return Require(property).subj->Encoded();
}

const EncodedColumn& VerticalTable::EncodedObjects(uint64_t property) const {
  return Require(property).obj->Encoded();
}

std::pair<uint32_t, uint32_t> VerticalTable::SubjectRange(uint64_t property,
                                                          uint64_t s) const {
  return EqRangeSorted(EncodedSubjects(property), s);
}

void VerticalTable::DropCaches() const {
  for (const auto& [prop, part] : partitions_) {
    part.subj->DropCache();
    part.obj->DropCache();
  }
}

uint64_t VerticalTable::disk_bytes() const {
  uint64_t total = 0;
  for (const auto& [prop, part] : partitions_) {
    total += part.subj->disk_bytes() + part.obj->disk_bytes();
  }
  return total;
}

uint64_t VerticalTable::resident_bytes() const {
  uint64_t total = 0;
  for (const auto& [prop, part] : partitions_) {
    total += part.subj->resident_bytes() + part.obj->resident_bytes();
  }
  return total;
}

uint64_t VerticalTable::stored_bytes() const {
  uint64_t total = 0;
  for (const auto& [prop, part] : partitions_) {
    total += part.subj->stored_bytes() + part.obj->stored_bytes();
  }
  return total;
}

uint64_t VerticalTable::logical_bytes() const {
  uint64_t total = 0;
  for (const auto& [prop, part] : partitions_) {
    total += part.subj->logical_bytes() + part.obj->logical_bytes();
  }
  return total;
}

void VerticalTable::AuditInto(audit::AuditLevel level,
                              std::optional<uint64_t> max_valid_id,
                              audit::AuditReport* report) const {
  // The property index and the partition map must describe the same set.
  if (properties_.size() != partitions_.size()) {
    report->Add(audit::FindingClass::kStructure, "vertical_table",
                "property index has " + std::to_string(properties_.size()) +
                    " entries, partition map has " +
                    std::to_string(partitions_.size()));
  }
  for (size_t i = 0; i < properties_.size(); ++i) {
    if (i > 0 && properties_[i - 1] >= properties_[i]) {
      report->Add(audit::FindingClass::kStructure, "vertical_table",
                  "property index not strictly ascending at entry " +
                      std::to_string(i));
    }
    if (partitions_.count(properties_[i]) == 0) {
      report->Add(audit::FindingClass::kStructure, "vertical_table",
                  "property " + std::to_string(properties_[i]) +
                      " indexed but has no partition");
    }
  }

  for (const auto& [prop, part] : partitions_) {
    const std::string name = "partition(" + std::to_string(prop) + ")";
    ColumnAuditOptions subj_opts;
    subj_opts.label = name + ".subject";
    subj_opts.expect_sorted = true;
    subj_opts.max_valid_id = max_valid_id;
    part.subj->AuditInto(level, subj_opts, report);
    ColumnAuditOptions obj_opts;
    obj_opts.label = name + ".object";
    obj_opts.max_valid_id = max_valid_id;
    part.obj->AuditInto(level, obj_opts, report);
    if (part.subj->size() != part.rows || part.obj->size() != part.rows) {
      report->Add(audit::FindingClass::kColumn, name,
                  "columns have " + std::to_string(part.subj->size()) + "/" +
                      std::to_string(part.obj->size()) +
                      " values, partition declares " +
                      std::to_string(part.rows) + " rows");
      continue;
    }
    if (level == audit::AuditLevel::kQuick) continue;

    // Cross-column check: (subject, object) pairs sorted without
    // duplicates — the contract ReplacePartition demands of its callers.
    std::vector<uint64_t> subj;
    std::vector<uint64_t> obj;
    if (!part.subj->AuditRead(name + ".subject", &subj, report)) continue;
    if (!part.obj->AuditRead(name + ".object", &obj, report)) continue;
    if (subj.size() != part.rows || obj.size() != part.rows) continue;
    for (uint64_t i = 1; i < part.rows; ++i) {
      const auto prev = std::make_pair(subj[i - 1], obj[i - 1]);
      const auto cur = std::make_pair(subj[i], obj[i]);
      if (prev >= cur) {
        report->Add(audit::FindingClass::kColumn, name,
                    "(subject, object) pairs not strictly ascending at row " +
                        std::to_string(i));
        break;
      }
    }
  }
}

}  // namespace swan::colstore
