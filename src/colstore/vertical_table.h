#ifndef SWANDB_COLSTORE_VERTICAL_TABLE_H_
#define SWANDB_COLSTORE_VERTICAL_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "audit/audit.h"
#include "colstore/column.h"
#include "colstore/ops.h"
#include "rdf/triple.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"

namespace swan::colstore {

// The vertically-partitioned RDF scheme of Abadi et al.: one two-column
// (subject, object) table per distinct property, each sorted by (subject,
// object). A query touching k properties reads at most 2k columns — cheap
// when k is small, but the Barton set has 222 partitions and real RDF
// corpora thousands, which is the scalability cliff the paper probes
// (§4.4).
class VerticalTable {
 public:
  VerticalTable(storage::BufferPool* pool, storage::SimulatedDisk* disk,
                ColumnCodec codec = ColumnCodec::kRaw);

  VerticalTable(const VerticalTable&) = delete;
  VerticalTable& operator=(const VerticalTable&) = delete;

  void Load(std::span<const rdf::Triple> triples);

  // Replaces (or creates) one partition with `rows`, which must be sorted
  // (subject, object) pairs without duplicates. This is the merge step of
  // the delta-store update path: the partition's columns are rewritten,
  // and the files of the columns they replace are dropped from the disk.
  void ReplacePartition(uint64_t property,
                        std::span<const std::pair<uint64_t, uint64_t>> rows);

  // Distinct properties, ascending (the data-driven "logical schema").
  const std::vector<uint64_t>& properties() const { return properties_; }

  // Number of rows in a partition; 0 if the property does not exist.
  uint64_t PartitionSize(uint64_t property) const;

  bool HasPartition(uint64_t property) const {
    return partitions_.count(property) != 0;
  }

  // Encoded column views; the partition must exist. Subject columns are
  // sorted; object columns are in subject order. The cold load stops at
  // the parsed compressed image, kernels execute on it directly.
  const EncodedColumn& EncodedSubjects(uint64_t property) const;
  const EncodedColumn& EncodedObjects(uint64_t property) const;

  // The stored columns themselves (codec, stored bytes).
  const Column& SubjectColumn(uint64_t property) const {
    return *Require(property).subj;
  }
  const Column& ObjectColumn(uint64_t property) const {
    return *Require(property).obj;
  }

  // Row range within the partition where subject == s.
  std::pair<uint32_t, uint32_t> SubjectRange(uint64_t property,
                                             uint64_t s) const;

  void DropCaches() const;
  uint64_t disk_bytes() const;
  // Sum of the loaded columns' resident_bytes().
  uint64_t resident_bytes() const;
  // Exact on-disk payload bytes (encoded) vs the full-width logical image.
  uint64_t stored_bytes() const;
  uint64_t logical_bytes() const;

  // Audit walker. Verifies the property index (ascending, in one-to-one
  // correspondence with the partition map) and each partition: equal-size
  // subject/object columns, subjects sorted, and at kFull that the (s, o)
  // pairs are sorted and duplicate-free and ids are below `max_valid_id`
  // when provided.
  void AuditInto(audit::AuditLevel level, std::optional<uint64_t> max_valid_id,
                 audit::AuditReport* report) const;

 private:
  struct Partition {
    std::unique_ptr<Column> subj;
    std::unique_ptr<Column> obj;
    uint64_t rows = 0;
  };

  const Partition& Require(uint64_t property) const;

  storage::BufferPool* pool_;
  storage::SimulatedDisk* disk_;
  ColumnCodec codec_;
  std::vector<uint64_t> properties_;
  std::unordered_map<uint64_t, Partition> partitions_;
};

}  // namespace swan::colstore

#endif  // SWANDB_COLSTORE_VERTICAL_TABLE_H_
