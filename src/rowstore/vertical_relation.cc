#include "rowstore/vertical_relation.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/macros.h"

namespace swan::rowstore {

namespace {

constexpr double kRandomPenaltyPages = 24.0;
constexpr double kRowsPerLeafPage =
    static_cast<double>(BPlusTree<2>::kLeafCapacity);

double PagesFor(double rows) { return rows / kRowsPerLeafPage; }

}  // namespace

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

VerticalRelation::PartitionPath VerticalRelation::ChoosePartitionPath(
    const Partition& part, std::optional<uint64_t> subject,
    std::optional<uint64_t> object) {
  const double rows = static_cast<double>(part.rows);
  const auto per = [](double n, uint64_t distinct) {
    return n / static_cast<double>(std::max<uint64_t>(1, distinct));
  };
  // Access-path choice: clustered (s[,o]) prefix when the subject is
  // bound; otherwise, for a bound object, the OS secondary if the expected
  // match count is small enough to beat a full partition scan.
  PartitionPath path;
  path.cost_pages = kRandomPenaltyPages + PagesFor(rows);
  if (subject.has_value()) {
    path.prefix_len = object.has_value() ? 2 : 1;
    path.cost_pages =
        kRandomPenaltyPages + PagesFor(per(rows, part.distinct_subjects));
  } else if (object.has_value()) {
    const double est = per(rows, part.distinct_objects);
    const double secondary_cost =
        kRandomPenaltyPages + PagesFor(est) + est * kRandomPenaltyPages;
    if (secondary_cost < path.cost_pages) {
      path.object_order = true;
      path.prefix_len = 1;
      path.cost_pages = secondary_cost;
    }
  }
  return path;
}

void VerticalRelation::ScanPartition(uint64_t property,
                                     std::optional<uint64_t> subject,
                                     std::optional<uint64_t> object,
                                     const rdf::PatternFilter& filter,
                                     const BatchFn& fn) const {
  auto pit = partitions_.find(property);
  if (pit == partitions_.end()) return;
  const Partition& part = pit->second;
  if ((subject && !filter.subject.Passes(*subject)) ||
      (object && !filter.object.Passes(*object))) {
    return;
  }
  const PartitionPath path = ChoosePartitionPath(part, subject, object);
  // Bind a listed free subject or object instead, one walk per listed id,
  // when those walks price below the one walk that tests the list.
  const auto bound_to = [&](int c, uint64_t v) {
    return std::make_pair(c == 0 ? std::optional<uint64_t>(v) : subject,
                          c == 2 ? std::optional<uint64_t>(v) : object);
  };
  int expand = -1;  // 0 = subject, 2 = object
  double best = path.cost_pages;
  for (int c : {0, 2}) {
    const rdf::ScanFilter& f = filter.at(c);
    if ((c == 0 ? subject : object) ||
        f.kind() != rdf::ScanFilter::Kind::kIn) {
      continue;
    }
    double cost = 0.0;
    for (uint64_t v : f.ids()) {
      const auto [s, o] = bound_to(c, v);
      cost += ChoosePartitionPath(part, s, o).cost_pages;
    }
    if (cost < best) {
      best = cost;
      expand = c;
    }
  }
  if (expand < 0) {
    WalkPartition(property, part, subject, object, filter, path, fn);
    return;
  }
  for (uint64_t v : filter.at(expand).ids()) {
    const auto [s, o] = bound_to(expand, v);
    WalkPartition(property, part, s, o, filter,
                  ChoosePartitionPath(part, s, o), fn);
  }
}

void VerticalRelation::WalkPartition(uint64_t property, const Partition& part,
                                     std::optional<uint64_t> subject,
                                     std::optional<uint64_t> object,
                                     const rdf::PatternFilter& filter,
                                     const PartitionPath& path,
                                     const BatchFn& fn) {
  const bool object_order = path.object_order;
  const BPlusTree<2>* tree = object_order ? part.secondary_os.get()
                                          : part.clustered_so.get();
  // The bounds on the key slots: the first prefix_len bound the walk (the
  // walk starts at the prefix, zeros after it), the other is a residual
  // filter. A free slot's scan filter is tested beside them.
  const int subject_slot = object_order ? 1 : 0;
  const int object_slot = 1 - subject_slot;
  KeyMatch<2> prefix;
  KeyMatch<2> residual;
  SlotFilter<2> keep;
  const auto bind = [&](int slot, std::optional<uint64_t> value,
                        const rdf::ScanFilter& f) {
    if (value) {
      (slot < path.prefix_len ? prefix : residual).Bind(slot, *value);
    } else {
      keep.Bind(slot, f);
    }
  };
  bind(subject_slot, subject, filter.subject);
  bind(object_slot, object, filter.object);

  std::vector<rdf::Triple> batch;  // grows to its largest leaf once
  const auto walk = [&](const auto& keep_key) {
    tree->Walk(prefix.want, [&](const LeafKeys<2>& keys) {
      batch.clear();
      const bool more = ForEachMatch<2>(
          keys, prefix, residual, keep_key, [&](const BPlusTree<2>::Key& key) {
            const uint64_t s = key[subject_slot];
            const uint64_t o = key[object_slot];
            if (object_order) {
              // Non-covering secondary: fetch the row from the SO tree.
              const bool present = part.clustered_so->Contains({s, o});
              SWAN_CHECK_MSG(present, "OS index points at missing row");
            }
            batch.push_back({s, property, o});
          });
      if (!batch.empty()) fn(batch);
      return more;
    });
  };
  if (keep.empty()) {
    walk(kKeepAll);
  } else {
    walk(keep);
  }
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
