#include "rowstore/triple_relation.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace swan::rowstore {

namespace {

// One random page access costs as much as this many sequential page reads
// (a 0.5 ms seek at ~390 MB/s moves ~24 pages' worth of data). Fixed
// optimizer assumption, independent of the actual disk config — as in real
// systems, the cost model is an approximation of the hardware.
constexpr double kRandomPenaltyPages = 24.0;

constexpr double kRowsPerLeafPage =
    static_cast<double>(BPlusTree<3>::kLeafCapacity);

// Fractional leaf pages covering `rows`; fractional so near-complete range
// scans still compare as cheaper than a full scan.
double PagesFor(double rows) { return rows / kRowsPerLeafPage; }

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
    std::sort(keys.begin(), keys.end());
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
  ++stats_.total_triples;
  ++stats_.subject_count[triple.subject];
  ++stats_.property_count[triple.property];
  ++stats_.object_count[triple.object];
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

std::string TripleRelation::AccessPath::ToString() const {
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
  best.cost_pages = kRandomPenaltyPages + PagesFor(total_rows);

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
    if (is_clustered) {
      candidate.kind = AccessPath::Kind::kClusteredPrefix;
      // One positioning seek plus a sequential leaf range. (Upper tree
      // levels are hot in any real buffer pool, so the descent itself is
      // not charged beyond the seek.)
      candidate.cost_pages = kRandomPenaltyPages + PagesFor(est);
    } else {
      candidate.kind = AccessPath::Kind::kSecondaryPrefix;
      // Secondary leaf range plus one random row fetch per match.
      candidate.cost_pages =
          kRandomPenaltyPages + PagesFor(est) + est * kRandomPenaltyPages;
    }
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
    const exec::ExecContext& ectx,
    const std::function<void(uint64_t parts)>& start,
    const std::function<void(uint64_t part, const rdf::Triple&)>& fn) const {
  const uint64_t parts = FullScanChunks(ectx);
  start(parts);
  if (parts == 1) {
    for (Scan scan = Open(rdf::TriplePattern{}); scan.Valid(); scan.Next()) {
      fn(0, scan.value());
    }
    return;
  }
  clustered_->ChargeScanDescent();
  const uint32_t leaves = clustered_->num_leaves();
  const uint32_t per = static_cast<uint32_t>((leaves + parts - 1) / parts);
  const auto comp = rdf::ComponentsOf(config_.clustered);
  ectx.ParallelFor(parts, 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t part = b; part < e; ++part) {
      const uint32_t lo = static_cast<uint32_t>(part) * per;
      const uint32_t hi = std::min(leaves, lo + per);
      if (lo >= hi) continue;
      clustered_->ScanLeaves(lo, hi, [&](const BPlusTree<3>::Key& key) {
        uint64_t spo[3];
        for (int i = 0; i < 3; ++i) spo[comp[i]] = key[i];
        fn(part, rdf::Triple{spo[0], spo[1], spo[2]});
      });
    }
  });
}

TripleRelation::Scan TripleRelation::Open(
    const rdf::TriplePattern& pattern) const {
  const AccessPath path = ChoosePath(pattern);

  Scan scan;
  scan.relation_ = this;
  scan.tree_ = TreeFor(path.order);
  SWAN_CHECK(scan.tree_ != nullptr);
  scan.tree_order_ = path.order;
  scan.components_ = rdf::ComponentsOf(path.order);
  scan.charge_row_fetch_ =
      path.kind == AccessPath::Kind::kSecondaryPrefix;
  scan.prefix_len_ = path.prefix_len;
  scan.pattern_ = pattern;

  std::array<uint64_t, 3> lower{};
  lower.fill(0);
  BoundPrefix(pattern, path.order, &scan.prefix_);
  for (int i = 0; i < path.prefix_len; ++i) lower[i] = scan.prefix_[i];
  scan.it_ = scan.tree_->Seek(lower);
  scan.Advance();
  return scan;
}

void TripleRelation::Scan::Advance() {
  valid_ = false;
  while (it_.Valid()) {
    const auto& key = it_.key();
    // Stop once past the bound prefix.
    for (int i = 0; i < prefix_len_; ++i) {
      if (key[i] != prefix_[i]) return;
    }
    uint64_t spo[3];
    for (int i = 0; i < 3; ++i) spo[components_[i]] = key[i];
    const rdf::Triple t{spo[0], spo[1], spo[2]};
    if (pattern_.Matches(t)) {
      if (charge_row_fetch_) {
        // Non-covering secondary: fetch the base row from the clustered
        // tree (pays the random descent the cost model anticipated).
        const bool present = relation_->clustered_->Contains(
            KeyOf(t, relation_->config_.clustered));
        SWAN_CHECK_MSG(present, "secondary points at missing row");
      }
      current_ = t;
      valid_ = true;
      return;
    }
    it_.Next();
  }
}

void TripleRelation::Scan::Next() {
  SWAN_DCHECK(valid_);
  it_.Next();
  Advance();
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
