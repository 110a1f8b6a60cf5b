#ifndef SWANDB_ROWSTORE_ACCESS_PATH_H_
#define SWANDB_ROWSTORE_ACCESS_PATH_H_

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "rdf/pattern.h"
#include "rdf/scan_filter.h"
#include "rdf/triple.h"
#include "rowstore/bplus_tree.h"

namespace swan::rowstore {

// The access path a row relation picks for a pattern: a full scan of its
// clustered tree, or a walk of the bound leading key slots of the
// clustered tree or of a non-covering secondary, with its modeled cost.
struct AccessPath {
  enum class Kind { kFullScan, kClusteredPrefix, kSecondaryPrefix };
  Kind kind = Kind::kFullScan;
  // The walked tree's key order. A vertical partition's trees key on two
  // slots: kPSO is its (subject, object) tree, kPOS its (object, subject).
  rdf::TripleOrder order = rdf::TripleOrder::kSPO;
  int prefix_len = 0;  // leading key slots the walk binds
  double estimated_rows = 0.0;
  double cost_pages = 0.0;

  std::string ToString() const;
};

// One random page access costs as much as this many sequential page reads
// (a 0.5 ms seek at ~390 MB/s moves ~24 pages' worth of data). Fixed
// optimizer assumption, independent of the actual disk config — as in real
// systems, the cost model is an approximation of the hardware.
inline constexpr double kRandomPenaltyPages = 24.0;

// The modeled cost in pages of a walk over `rows` keys of a W-slot tree:
// one positioning seek plus the leaf pages (fractional, so a near-complete
// range still prices below a full scan), plus one random row fetch per
// key on a non-covering secondary. Upper tree levels are hot in any real
// buffer pool, so the descent is not charged beyond the seek.
template <int W>
double PathCost(double rows, bool fetch_rows) {
  return kRandomPenaltyPages +
         rows / static_cast<double>(BPlusTree<W>::kLeafCapacity) +
         (fetch_rows ? rows * kRandomPenaltyPages : 0.0);
}

// Calls walk(p, choose(p)) for `pattern`, or, when binding a free
// component's IN-list one id at a time prices below that one walk, for
// the pattern with each listed id of the cheapest such list, ascending.
// choose(p) returns p's AccessPath.
template <typename Choose, typename Walk>
void WalkCheapest(const rdf::TriplePattern& pattern,
                  const rdf::PatternFilter& filter, const Choose& choose,
                  const Walk& walk) {
  const AccessPath path = choose(pattern);
  int expand = -1;
  double best = path.cost_pages;
  for (int c = 0; c < 3; ++c) {
    const rdf::ScanFilter& f = filter.Free(pattern, c);
    if (f.kind() != rdf::ScanFilter::Kind::kIn) continue;
    double cost = 0.0;
    for (uint64_t v : f.ids()) {
      cost += choose(rdf::WithComponent(pattern, c, v)).cost_pages;
    }
    if (cost < best) {
      best = cost;
      expand = c;
    }
  }
  if (expand < 0) {
    walk(pattern, path);
    return;
  }
  for (uint64_t v : filter.at(expand).ids()) {
    const rdf::TriplePattern one = rdf::WithComponent(pattern, expand, v);
    walk(one, choose(one));
  }
}

// The key slot of each triple component (0 subject, 1 property, 2 object)
// in a W-slot tree keyed in `order`; -1 for the property of a two-slot
// tree, which does not store it.
template <int W>
std::array<int, 3> KeySlots(rdf::TripleOrder order) {
  std::array<int, 3> slot = {-1, -1, -1};
  int next = 0;
  for (int c : rdf::ComponentsOf(order)) {
    if (W == 3 || c != 1) slot[c] = next++;
  }
  return slot;
}

// The one leaf walk of the row relations: walks `tree` (keyed in
// path.order) from the pattern's first path.prefix_len key slots, a leaf
// at a time. The walk tests the other constants and the free components'
// scan filters on the raw key words (ForEachMatch) and hands fn the
// decoded matches of each leaf as one batch; a two-slot tree's property
// is the pattern's. On a secondary path every match first pays its row
// fetch from `clustered`, keyed in `clustered_order` (the non-covering
// index the cost model anticipated).
template <int W, typename Fn>
void WalkPattern(const BPlusTree<W>& tree, const AccessPath& path,
                 const rdf::TriplePattern& pattern,
                 const rdf::PatternFilter& filter,
                 const BPlusTree<W>& clustered,
                 rdf::TripleOrder clustered_order, const Fn& fn) {
  const std::array<int, 3> slot = KeySlots<W>(path.order);
  const std::array<int, 3> row_slot = KeySlots<W>(clustered_order);
  const bool fetch_rows = path.kind == AccessPath::Kind::kSecondaryPrefix;
  const std::optional<uint64_t> spo[3] = {pattern.subject, pattern.property,
                                          pattern.object};
  KeyMatch<W> prefix;
  KeyMatch<W> residual;
  SlotFilter<W> keep;
  for (int c = 0; c < 3; ++c) {
    if (slot[c] < 0) continue;
    keep.Bind(slot[c], filter.Free(pattern, c));
    if (!spo[c]) continue;
    (slot[c] < path.prefix_len ? prefix : residual).Bind(slot[c], *spo[c]);
  }
  const auto component = [&](const std::array<uint64_t, W>& key, int c) {
    if constexpr (W == 2) {
      if (c == 1) return *spo[1];
    }
    return key[slot[c]];
  };

  std::vector<rdf::Triple> batch;  // grows to its largest leaf once
  const auto walk = [&](const auto& keep_key) {
    tree.Walk(prefix.want, [&](const LeafKeys<W>& keys) {
      batch.clear();
      const bool more = ForEachMatch<W>(
          keys, prefix, residual, keep_key,
          [&](const std::array<uint64_t, W>& key) {
            const rdf::Triple t = {component(key, 0), component(key, 1),
                                   component(key, 2)};
            if (fetch_rows) {
              const uint64_t spo_of[3] = {t.subject, t.property, t.object};
              std::array<uint64_t, W> row{};
              for (int c = 0; c < 3; ++c) {
                if (row_slot[c] >= 0) row[row_slot[c]] = spo_of[c];
              }
              const bool present = clustered.Contains(row);
              SWAN_CHECK_MSG(present, "secondary points at missing row");
            }
            batch.push_back(t);
          });
      if (!batch.empty()) fn(std::span<const rdf::Triple>(batch));
      return more;
    });
  };
  if (keep.empty()) {
    walk(kKeepAll);
  } else {
    walk(keep);
  }
}

}  // namespace swan::rowstore

#endif  // SWANDB_ROWSTORE_ACCESS_PATH_H_
