#include "shard/placement.h"

#include <algorithm>
#include <map>

#include "common/macros.h"

namespace swan::shard {

namespace {

// A property is sub-split once it holds more than
// total_triples / (kSplitFactor * nodes) triples.
constexpr double kSplitFactor = 2.0;

}  // namespace

uint64_t Placement::HashId(uint64_t id) {
  uint64_t z = id + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Placement::Placement(std::span<const rdf::Triple> triples, int nodes)
    : nodes_(nodes) {
  SWAN_CHECK_MSG(nodes_ >= 1, "placement needs at least one node");
  loads_.assign(static_cast<size_t>(nodes_), 0);

  // std::map: frequency table in ascending property-id order, so the
  // sort below breaks frequency ties deterministically by id.
  std::map<uint64_t, uint64_t> freq;
  for (const rdf::Triple& t : triples) ++freq[t.property];

  std::vector<std::pair<uint64_t, uint64_t>> props(freq.begin(), freq.end());
  std::stable_sort(props.begin(), props.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second != b.second) return a.second > b.second;
                     return a.first < b.first;
                   });

  const uint64_t split_threshold =
      nodes_ == 1
          ? ~0ull
          : static_cast<uint64_t>(
                static_cast<double>(triples.size()) /
                (kSplitFactor * static_cast<double>(nodes_)));

  for (const auto& [prop, count] : props) {
    if (nodes_ > 1 && count > split_threshold) {
      split_.push_back(prop);
      continue;  // sub-split: load accounted per triple below
    }
    int best = 0;
    for (int n = 1; n < nodes_; ++n) {
      if (loads_[static_cast<size_t>(n)] < loads_[static_cast<size_t>(best)]) {
        best = n;
      }
    }
    home_[prop] = best;
    loads_[static_cast<size_t>(best)] += count;
  }
  std::sort(split_.begin(), split_.end());

  // Account sub-split loads exactly (subject hashes, not count / nodes).
  if (!split_.empty()) {
    for (const rdf::Triple& t : triples) {
      if (std::binary_search(split_.begin(), split_.end(), t.property)) {
        loads_[static_cast<size_t>(SubjectNode(t.subject))] += 1;
      }
    }
  }
}

int Placement::HomeNode(uint64_t property) const {
  if (nodes_ == 1) return 0;
  if (std::binary_search(split_.begin(), split_.end(), property)) return -1;
  const auto it = home_.find(property);
  if (it != home_.end()) return it->second;
  // Unknown property (first seen via a post-load insert): stable hash.
  return static_cast<int>(HashId(property) %
                          static_cast<uint64_t>(nodes_));
}

int Placement::NodeOf(const rdf::Triple& triple) const {
  const int home = HomeNode(triple.property);
  return home >= 0 ? home : SubjectNode(triple.subject);
}

}  // namespace swan::shard
