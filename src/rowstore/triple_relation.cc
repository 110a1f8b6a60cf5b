#include "rowstore/triple_relation.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/macros.h"

namespace swan::rowstore {

namespace {

// Number of leading components of `order` that are bound in `pattern`,
// plus the bound values.
int BoundPrefix(const rdf::TriplePattern& pattern, rdf::TripleOrder order,
                std::array<uint64_t, 3>* prefix) {
  const std::optional<uint64_t> spo[3] = {pattern.subject, pattern.property,
                                          pattern.object};
  const auto comp = ComponentsOf(order);
  int len = 0;
  for (int i = 0; i < 3; ++i) {
    if (!spo[comp[i]]) break;
    (*prefix)[len++] = *spo[comp[i]];
  }
  return len;
}

// Pattern restricted to the first `len` components of `order` (what a
// prefix range scan can apply; the rest is residual filtering).
rdf::TriplePattern PrefixPattern(const rdf::TriplePattern& pattern,
                                 rdf::TripleOrder order, int len) {
  rdf::TriplePattern out;
  const auto comp = ComponentsOf(order);
  for (int i = 0; i < len; ++i) {
    switch (comp[i]) {
      case 0:
        out.subject = pattern.subject;
        break;
      case 1:
        out.property = pattern.property;
        break;
      default:
        out.object = pattern.object;
        break;
    }
  }
  return out;
}

}  // namespace

TripleRelation::Config TripleRelation::PsoConfig() {
  using rdf::TripleOrder;
  Config config;
  config.clustered = TripleOrder::kPSO;
  config.secondaries = {TripleOrder::kSPO, TripleOrder::kSOP,
                        TripleOrder::kPOS, TripleOrder::kOSP,
                        TripleOrder::kOPS};
  return config;
}

TripleRelation::Config TripleRelation::SpoConfig() {
  using rdf::TripleOrder;
  Config config;
  config.clustered = TripleOrder::kSPO;
  config.secondaries = {TripleOrder::kPOS, TripleOrder::kOSP};
  return config;
}

TripleRelation::TripleRelation(storage::BufferPool* pool,
                               storage::SimulatedDisk* disk, Config config)
    : config_(std::move(config)), pool_(pool) {
  clustered_ = std::make_unique<BPlusTree<3>>(pool, disk);
  for (rdf::TripleOrder order : config_.secondaries) {
    SWAN_CHECK_MSG(order != config_.clustered,
                   "secondary duplicates clustered order");
    secondaries_.emplace_back(order, std::make_unique<BPlusTree<3>>(pool, disk));
  }
}

void TripleRelation::Load(std::span<const rdf::Triple> triples) {
  stats_ = TripleStats::Compute(triples);

  std::vector<std::array<uint64_t, 3>> keys(triples.size());
  auto load_tree = [&](rdf::TripleOrder order, BPlusTree<3>* tree) {
    for (size_t i = 0; i < triples.size(); ++i) {
      keys[i] = KeyOf(triples[i], order);
    }
    rdf::SortKeys(&keys);
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    tree->BulkLoad(keys);
    keys.resize(triples.size());
  };

  load_tree(config_.clustered, clustered_.get());
  for (auto& [order, tree] : secondaries_) {
    load_tree(order, tree.get());
  }
}

bool TripleRelation::Insert(const rdf::Triple& triple) {
  if (!clustered_->Insert(KeyOf(triple, config_.clustered))) return false;
  for (auto& [order, tree] : secondaries_) {
    const bool fresh = tree->Insert(KeyOf(triple, order));
    SWAN_CHECK_MSG(fresh, "secondary index out of sync with clustered tree");
  }
  stats_.Add(triple);
  return true;
}

uint64_t TripleRelation::disk_bytes() const {
  uint64_t total = clustered_->disk_bytes();
  for (const auto& [order, tree] : secondaries_) total += tree->disk_bytes();
  return total;
}

const BPlusTree<3>* TripleRelation::TreeFor(rdf::TripleOrder order) const {
  if (order == config_.clustered) return clustered_.get();
  for (const auto& [o, tree] : secondaries_) {
    if (o == order) return tree.get();
  }
  return nullptr;
}

std::string AccessPath::ToString() const {
  std::string out;
  switch (kind) {
    case Kind::kFullScan:
      out = "FullScan";
      break;
    case Kind::kClusteredPrefix:
      out = "ClusteredPrefix";
      break;
    case Kind::kSecondaryPrefix:
      out = "SecondaryPrefix";
      break;
  }
  out += "(" + rdf::ToString(order) + ", prefix=" + std::to_string(prefix_len) +
         ", est=" + std::to_string(static_cast<uint64_t>(estimated_rows)) + ")";
  return out;
}

TripleRelation::AccessPath TripleRelation::ChoosePath(
    const rdf::TriplePattern& pattern) const {
  const double total_rows = static_cast<double>(clustered_->size());

  AccessPath best;
  best.kind = AccessPath::Kind::kFullScan;
  best.order = config_.clustered;
  best.prefix_len = 0;
  best.estimated_rows = total_rows;
  best.cost_pages = PathCost<3>(total_rows, false);

  auto consider = [&](rdf::TripleOrder order, bool is_clustered) {
    std::array<uint64_t, 3> prefix{};
    const int len = BoundPrefix(pattern, order, &prefix);
    if (len == 0) return;
    const rdf::TriplePattern pp = PrefixPattern(pattern, order, len);
    const double est = stats_.EstimateMatches(pp);
    AccessPath candidate;
    candidate.order = order;
    candidate.prefix_len = len;
    candidate.estimated_rows = est;
    candidate.kind = is_clustered ? AccessPath::Kind::kClusteredPrefix
                                  : AccessPath::Kind::kSecondaryPrefix;
    candidate.cost_pages = PathCost<3>(est, !is_clustered);
    if (candidate.cost_pages < best.cost_pages) best = candidate;
  };

  consider(config_.clustered, /*is_clustered=*/true);
  for (const auto& [order, tree] : secondaries_) {
    consider(order, /*is_clustered=*/false);
  }
  return best;
}

// Leaves per full-scan chunk: ~32 pages (256 KB) keeps hundreds of
// morsels at benchmark scale for even lane balance while each chunk still
// amortizes its scheduling onto a long sequential page run.
constexpr uint32_t kLeavesPerFullScanChunk = 32;

uint64_t TripleRelation::FullScanChunks(const exec::ExecContext& ectx) const {
  if (!ectx.parallel() || !clustered_->LeafChainContiguous()) return 1;
  const uint32_t leaves = clustered_->num_leaves();
  if (leaves < 2 * kLeavesPerFullScanChunk) return 1;
  return (leaves + kLeavesPerFullScanChunk - 1) / kLeavesPerFullScanChunk;
}

void TripleRelation::FullScan(
    const exec::ExecContext& ectx, const std::vector<uint64_t>* props,
    const IdSet* subjects, const std::function<void(uint64_t parts)>& start,
    const std::function<void(uint64_t part, std::span<const rdf::Triple>)>&
        fn) const {
  const std::array<int, 3> slot = KeySlots<3>(config_.clustered);
  const int subject_slot = slot[0];
  const int property_slot = slot[1];
  // The property verdict of the last key tested, reused while the
  // property repeats: in PSO order it is tested once per property run.
  struct PropertyRun {
    std::optional<uint64_t> property;
    bool keep = false;
  };
  // Decodes the keys of one leaf that pass the filters into `kept`. Every
  // key pays its subject probe, as the semi-join does; the property list
  // is searched only for the keys the probe keeps.
  const auto keep_leaf = [&](const LeafKeys<3>& keys, PropertyRun* run,
                             std::vector<rdf::Triple>* kept) {
    kept->clear();
    for (size_t i = 0; i < keys.size(); ++i) {
      const BPlusTree<3>::Key key = keys[i];
      if (subjects != nullptr && !subjects->contains(key[subject_slot])) {
        continue;
      }
      if (props != nullptr) {
        const uint64_t property = key[property_slot];
        if (run->property != property) {
          run->property = property;
          run->keep =
              std::binary_search(props->begin(), props->end(), property);
        }
        if (!run->keep) continue;
      }
      kept->push_back({key[slot[0]], key[slot[1]], key[slot[2]]});
    }
  };

  const uint64_t parts = FullScanChunks(ectx);
  start(parts);
  if (parts == 1) {
    PropertyRun run;
    std::vector<rdf::Triple> kept;  // grows to its largest leaf once
    clustered_->Walk(BPlusTree<3>::Key{}, [&](const LeafKeys<3>& keys) {
      keep_leaf(keys, &run, &kept);
      if (!kept.empty()) fn(0, kept);
      return true;
    });
    return;
  }
  clustered_->ChargeScanDescent();
  const uint32_t leaves = clustered_->num_leaves();
  const uint32_t per = static_cast<uint32_t>((leaves + parts - 1) / parts);
  ectx.ParallelFor(parts, 1, [&](uint64_t b, uint64_t e, uint64_t) {
    PropertyRun run;
    std::vector<rdf::Triple> kept;
    kept.reserve(BPlusTree<3>::kLeafCapacity);
    for (uint64_t part = b; part < e; ++part) {
      const uint32_t lo = static_cast<uint32_t>(part) * per;
      const uint32_t hi = std::min(leaves, lo + per);
      if (lo >= hi) continue;
      clustered_->ScanLeaves(lo, hi, [&](const LeafKeys<3>& keys) {
        keep_leaf(keys, &run, &kept);
        if (!kept.empty()) fn(part, kept);
      });
    }
  });
}

void TripleRelation::ScanMatches(const rdf::TriplePattern& pattern,
                                 const rdf::PatternFilter& filter,
                                 const BatchFn& fn) const {
  if (!filter.AdmitsConstants(pattern)) return;
  WalkCheapest(
      pattern, filter,
      [&](const rdf::TriplePattern& p) { return ChoosePath(p); },
      [&](const rdf::TriplePattern& p, const AccessPath& path) {
        const BPlusTree<3>* tree = TreeFor(path.order);
        SWAN_CHECK(tree != nullptr);
        WalkPattern<3>(*tree, path, p, filter, *clustered_,
                       config_.clustered, fn);
      });
}

void TripleRelation::AuditInto(audit::AuditLevel level,
                               audit::AuditReport* report) const {
  clustered_->AuditInto(level, report);
  for (const auto& [order, tree] : secondaries_) {
    tree->AuditInto(level, report);
    if (tree->size() != clustered_->size()) {
      report->Add(audit::FindingClass::kStructure,
                  "triple_relation." + rdf::ToString(order),
                  "secondary index has " + std::to_string(tree->size()) +
                      " rows, clustered tree has " +
                      std::to_string(clustered_->size()));
    }
  }
}

}  // namespace swan::rowstore
