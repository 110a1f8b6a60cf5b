#ifndef SWANDB_SHARD_PLACEMENT_H_
#define SWANDB_SHARD_PLACEMENT_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "rdf/triple.h"

namespace swan::shard {

// Deterministic property-to-node placement: vertical partitions are the
// shards (the paper's own storage scheme doubling as the distribution
// key). Properties are placed by greedy bin-packing — sorted by triple
// count descending (id ascending on ties), each assigned to the currently
// least-loaded node — and oversized properties are sub-split by subject
// hash. A property holding more than half a node's fair share of the
// triples (total / (2 * nodes)) is oversized: without the sub-split a
// dominant property (Barton's <type> is ~a third of the data) pins its
// whole partition to one node and caps scale-out at that node's disk.
// The plan is a pure function of the triple multiset and the node count,
// so every node count yields one placement, reproducible across runs and
// machines.
class Placement {
 public:
  Placement(std::span<const rdf::Triple> triples, int nodes);

  int nodes() const { return nodes_; }

  // The node owning `property`'s partition, or -1 when sub-split across
  // all nodes. Properties never seen at placement time (post-load
  // inserts of a new property id) hash to a stable node.
  int HomeNode(uint64_t property) const;

  // The node storing this triple: HomeNode when pinned, subject-hash
  // otherwise.
  int NodeOf(const rdf::Triple& triple) const;

  // Node for a (sub-split property, subject) pair.
  int SubjectNode(uint64_t subject) const {
    return static_cast<int>(HashId(subject) %
                            static_cast<uint64_t>(nodes_));
  }

  // Triples placed per node (for the bench's balance report).
  const std::vector<uint64_t>& node_loads() const { return loads_; }
  // Properties that were sub-split.
  const std::vector<uint64_t>& split_properties() const { return split_; }

  // splitmix64 finalizer: a stable, well-mixed id hash (std::hash on
  // integers is identity on common toolchains, which would correlate with
  // generator id assignment).
  static uint64_t HashId(uint64_t id);

 private:
  int nodes_;
  std::unordered_map<uint64_t, int> home_;  // pinned properties only
  std::vector<uint64_t> loads_;
  std::vector<uint64_t> split_;
};

}  // namespace swan::shard

#endif  // SWANDB_SHARD_PLACEMENT_H_
