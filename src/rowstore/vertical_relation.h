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
#include "rowstore/access_path.h"
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

  // Streams the rows of `pattern.property`'s partition that match
  // `pattern` and pass `filter`, as full triples, a leaf at a time:
  // the one leaf walk of the row relations (WalkPattern) along the SO
  // tree's (subject[, object]) prefix, the OS secondary's object prefix
  // when its row fetches price below a partition scan, or the whole SO
  // tree, by the relations' one path cost. A free subject's or object's
  // IN-list is bound instead, one walk per listed id, when those walks
  // price below the one walk that tests the list. Streams nothing if the
  // partition does not exist.
  void ScanPartition(const rdf::TriplePattern& pattern,
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

  storage::BufferPool* pool_;
  storage::SimulatedDisk* disk_;
  uint64_t partitions_created_ = 0;
  std::vector<uint64_t> properties_;
  std::unordered_map<uint64_t, Partition> partitions_;
};

}  // namespace swan::rowstore

#endif  // SWANDB_ROWSTORE_VERTICAL_RELATION_H_
