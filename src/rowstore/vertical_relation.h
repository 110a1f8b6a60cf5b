#ifndef SWANDB_ROWSTORE_VERTICAL_RELATION_H_
#define SWANDB_ROWSTORE_VERTICAL_RELATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "audit/audit.h"
#include "rdf/scan_filter.h"
#include "rdf/triple.h"
#include "rowstore/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"

namespace swan::rowstore {

// Row-store realization of the vertically-partitioned scheme: per
// property, a clustered B+tree on (subject, object) plus an unclustered
// (object, subject) index — exactly the paper's DBX layout ("For each
// table in DBX we define one clustered B+tree on SO and one un-clustered
// on OS", §4.2).
class VerticalRelation {
 public:
  VerticalRelation(storage::BufferPool* pool, storage::SimulatedDisk* disk);

  VerticalRelation(const VerticalRelation&) = delete;
  VerticalRelation& operator=(const VerticalRelation&) = delete;

  void Load(std::span<const rdf::Triple> triples);

  // Inserts one triple; returns false for duplicates. A triple with an
  // unseen property forces a *schema change* — two new B+trees — which is
  // the update-susceptibility of the data-driven vertical schema the paper
  // calls out in section 4.2. partitions_created() counts those events.
  bool Insert(const rdf::Triple& triple);
  uint64_t partitions_created() const { return partitions_created_; }

  const std::vector<uint64_t>& properties() const { return properties_; }
  uint64_t PartitionSize(uint64_t property) const;
  bool HasPartition(uint64_t property) const {
    return partitions_.count(property) != 0;
  }
  uint64_t disk_bytes() const;

  // A batch of decoded triples: one leaf's worth, valid only during the
  // call that receives it.
  using BatchFn = std::function<void(std::span<const rdf::Triple>)>;

  // Streams the rows of `property`'s partition that match the optional
  // subject/object equality bounds and pass the subject and object
  // filters of `filter`, as full triples, a leaf at a time. Picks
  // clustered-prefix / secondary / full-scan by the same cost heuristics
  // as TripleRelation; a secondary match pays its row fetch from the SO
  // tree first. A free subject's or object's IN-list is bound instead, one
  // walk per listed id, when those walks price below the one walk that
  // tests the list beside the key match. Streams nothing if the partition
  // does not exist.
  void ScanPartition(uint64_t property, std::optional<uint64_t> subject,
                     std::optional<uint64_t> object,
                     const rdf::PatternFilter& filter,
                     const BatchFn& fn) const;

  // Audit walker. Audits both B+trees of every partition and checks that
  // the SO and OS trees agree with the partition's declared row count and
  // that the property index matches the partition map.
  void AuditInto(audit::AuditLevel level, audit::AuditReport* report) const;

 private:
  struct Partition {
    std::unique_ptr<BPlusTree<2>> clustered_so;
    std::unique_ptr<BPlusTree<2>> secondary_os;
    uint64_t rows = 0;
    uint64_t distinct_subjects = 0;
    uint64_t distinct_objects = 0;
  };

  // An access path into one partition: which tree, how many leading key
  // slots the walk binds, and its modeled cost in pages.
  struct PartitionPath {
    bool object_order = false;  // the OS secondary
    int prefix_len = 0;
    double cost_pages = 0.0;
  };
  static PartitionPath ChoosePartitionPath(const Partition& part,
                                           std::optional<uint64_t> subject,
                                           std::optional<uint64_t> object);
  // One ScanPartition walk along `path`.
  static void WalkPartition(uint64_t property, const Partition& part,
                            std::optional<uint64_t> subject,
                            std::optional<uint64_t> object,
                            const rdf::PatternFilter& filter,
                            const PartitionPath& path, const BatchFn& fn);

  storage::BufferPool* pool_;
  storage::SimulatedDisk* disk_;
  uint64_t partitions_created_ = 0;
  std::vector<uint64_t> properties_;
  std::unordered_map<uint64_t, Partition> partitions_;
};

}  // namespace swan::rowstore

#endif  // SWANDB_ROWSTORE_VERTICAL_RELATION_H_
