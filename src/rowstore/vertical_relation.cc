#include "rowstore/vertical_relation.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/macros.h"

namespace swan::rowstore {

VerticalRelation::VerticalRelation(storage::BufferPool* pool,
                                   storage::SimulatedDisk* disk)
    : pool_(pool), disk_(disk) {}

void VerticalRelation::Load(std::span<const rdf::Triple> triples) {
  SWAN_CHECK_MSG(partitions_.empty(), "VerticalRelation::Load called twice");

  // The triples sorted as (p, s, o) and as (p, o, s), deduplicated: one
  // property's run of the first is its SO tree's keys, the same run of the
  // second its OS tree's. Partitions are built in ascending property order.
  const auto sorted_keys = [&](rdf::TripleOrder order) {
    std::vector<std::array<uint64_t, 3>> keys(triples.size());
    for (size_t i = 0; i < triples.size(); ++i) {
      keys[i] = KeyOf(triples[i], order);
    }
    rdf::SortKeys(&keys);
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  };
  const auto pso = sorted_keys(rdf::TripleOrder::kPSO);
  const auto pos = sorted_keys(rdf::TripleOrder::kPOS);
  const auto distinct_leading = [](const auto& rows) {
    uint64_t distinct = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i == 0 || rows[i][0] != rows[i - 1][0]) ++distinct;
    }
    return distinct;
  };

  std::vector<std::array<uint64_t, 2>> so, os;
  for (size_t begin = 0, end; begin < pso.size(); begin = end) {
    const uint64_t prop = pso[begin][0];
    end = begin;
    while (end < pso.size() && pso[end][0] == prop) ++end;
    so.clear();
    os.clear();
    for (size_t i = begin; i < end; ++i) {
      SWAN_DCHECK_EQ(pos[i][0], prop);
      so.push_back({pso[i][1], pso[i][2]});
      os.push_back({pos[i][1], pos[i][2]});
    }
    properties_.push_back(prop);
    Partition part;
    part.clustered_so = std::make_unique<BPlusTree<2>>(pool_, disk_);
    part.secondary_os = std::make_unique<BPlusTree<2>>(pool_, disk_);
    part.rows = so.size();
    part.clustered_so->BulkLoad(so);
    part.distinct_subjects = distinct_leading(so);
    part.secondary_os->BulkLoad(os);
    part.distinct_objects = distinct_leading(os);
    partitions_.emplace(prop, std::move(part));
  }
}

bool VerticalRelation::Insert(const rdf::Triple& triple) {
  auto it = partitions_.find(triple.property);
  if (it == partitions_.end()) {
    // Schema change: materialize a fresh partition for the new property.
    Partition part;
    part.clustered_so = std::make_unique<BPlusTree<2>>(pool_, disk_);
    part.clustered_so->BulkLoad({});
    part.secondary_os = std::make_unique<BPlusTree<2>>(pool_, disk_);
    part.secondary_os->BulkLoad({});
    it = partitions_.emplace(triple.property, std::move(part)).first;
    properties_.insert(std::lower_bound(properties_.begin(), properties_.end(),
                                        triple.property),
                       triple.property);
    ++partitions_created_;
  }
  Partition& part = it->second;
  if (!part.clustered_so->Insert({triple.subject, triple.object})) {
    return false;
  }
  const bool fresh = part.secondary_os->Insert({triple.object, triple.subject});
  SWAN_CHECK_MSG(fresh, "OS index out of sync with SO tree");
  ++part.rows;
  return true;
}

uint64_t VerticalRelation::PartitionSize(uint64_t property) const {
  auto it = partitions_.find(property);
  return it == partitions_.end() ? 0 : it->second.rows;
}

uint64_t VerticalRelation::disk_bytes() const {
  uint64_t total = 0;
  for (const auto& [prop, part] : partitions_) {
    total += part.clustered_so->disk_bytes() + part.secondary_os->disk_bytes();
  }
  return total;
}

void VerticalRelation::ScanPartition(const rdf::TriplePattern& pattern,
                                     const rdf::PatternFilter& filter,
                                     const BatchFn& fn) const {
  auto pit = partitions_.find(*pattern.property);
  if (pit == partitions_.end() || !filter.AdmitsConstants(pattern)) return;
  const Partition& part = pit->second;
  const double rows = static_cast<double>(part.rows);
  const auto per = [](double n, uint64_t distinct) {
    return n / static_cast<double>(std::max<uint64_t>(1, distinct));
  };
  // The clustered (s[,o]) prefix when the subject is bound; otherwise, for
  // a bound object, the OS secondary if the expected match count is small
  // enough to beat a full partition scan.
  const auto choose = [&](const rdf::TriplePattern& p) {
    AccessPath path;
    path.order = rdf::TripleOrder::kPSO;
    path.estimated_rows = rows;
    path.cost_pages = PathCost<2>(rows, false);
    if (p.subject) {
      path.kind = AccessPath::Kind::kClusteredPrefix;
      path.prefix_len = p.object ? 2 : 1;
      path.estimated_rows = per(rows, part.distinct_subjects);
      path.cost_pages = PathCost<2>(path.estimated_rows, false);
    } else if (p.object) {
      const double est = per(rows, part.distinct_objects);
      const double secondary_cost = PathCost<2>(est, true);
      if (secondary_cost < path.cost_pages) {
        path.kind = AccessPath::Kind::kSecondaryPrefix;
        path.order = rdf::TripleOrder::kPOS;
        path.prefix_len = 1;
        path.estimated_rows = est;
        path.cost_pages = secondary_cost;
      }
    }
    return path;
  };
  WalkCheapest(pattern, filter, choose,
               [&](const rdf::TriplePattern& p, const AccessPath& path) {
                 const bool secondary =
                     path.kind == AccessPath::Kind::kSecondaryPrefix;
                 WalkPattern<2>(
                     secondary ? *part.secondary_os : *part.clustered_so,
                     path, p, filter, *part.clustered_so,
                     rdf::TripleOrder::kPSO, fn);
               });
}

void VerticalRelation::AuditInto(audit::AuditLevel level,
                                 audit::AuditReport* report) const {
  if (properties_.size() != partitions_.size()) {
    report->Add(audit::FindingClass::kStructure, "vertical_relation",
                "property index has " + std::to_string(properties_.size()) +
                    " entries, partition map has " +
                    std::to_string(partitions_.size()));
  }
  for (uint64_t prop : properties_) {
    if (partitions_.count(prop) == 0) {
      report->Add(audit::FindingClass::kStructure, "vertical_relation",
                  "property " + std::to_string(prop) +
                      " indexed but has no partition");
    }
  }
  for (const auto& [prop, part] : partitions_) {
    const std::string name =
        "vertical_relation.partition(" + std::to_string(prop) + ")";
    part.clustered_so->AuditInto(level, report);
    part.secondary_os->AuditInto(level, report);
    if (part.clustered_so->size() != part.rows ||
        part.secondary_os->size() != part.rows) {
      report->Add(audit::FindingClass::kStructure, name,
                  "trees have " + std::to_string(part.clustered_so->size()) +
                      "/" + std::to_string(part.secondary_os->size()) +
                      " rows, partition declares " +
                      std::to_string(part.rows));
    }
  }
}

}  // namespace swan::rowstore
