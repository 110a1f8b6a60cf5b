#ifndef SWANDB_ROWSTORE_TRIPLE_RELATION_H_
#define SWANDB_ROWSTORE_TRIPLE_RELATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_context.h"

#include "audit/audit.h"
#include "rdf/pattern.h"
#include "rdf/triple.h"
#include "rowstore/bplus_tree.h"
#include "rowstore/stats.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"

namespace swan::rowstore {

// Row-store triple table: one clustered B+tree holding the rows in a
// chosen TripleOrder, plus unclustered secondary indices in other orders.
// Mirrors the paper's two DBX configurations (§4.1):
//   * SPO-clustered + unclustered POS, OSP   (as in Abadi et al.), and
//   * PSO-clustered + unclustered indices on all 5 other permutations.
//
// Secondary indexes are modelled as *non-covering*: scanning one yields
// row references, and producing the row costs a point lookup in the
// clustered tree (random I/O) — the classic reason optimizers avoid
// secondary ranges unless they are near-point predicates.
class TripleRelation {
 public:
  struct Config {
    rdf::TripleOrder clustered = rdf::TripleOrder::kPSO;
    std::vector<rdf::TripleOrder> secondaries;
  };

  // All-permutation PSO configuration ("triple PSO" in Tables 6/7).
  static Config PsoConfig();
  // Abadi-style SPO configuration ("triple SPO").
  static Config SpoConfig();

  TripleRelation(storage::BufferPool* pool, storage::SimulatedDisk* disk,
                 Config config);

  TripleRelation(const TripleRelation&) = delete;
  TripleRelation& operator=(const TripleRelation&) = delete;

  void Load(std::span<const rdf::Triple> triples);

  // Inserts one triple into the clustered tree and every secondary index;
  // returns false for duplicates. Frequency statistics are updated, but
  // distinct-value counts go stale until the next Load — just like real
  // optimizer statistics between ANALYZE runs.
  bool Insert(const rdf::Triple& triple);

  uint64_t size() const { return clustered_->size(); }
  const TripleStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  uint64_t disk_bytes() const;

  // Chosen physical access path for a pattern (exposed for EXPLAIN-style
  // inspection and tests).
  struct AccessPath {
    enum class Kind { kFullScan, kClusteredPrefix, kSecondaryPrefix };
    Kind kind = Kind::kFullScan;
    rdf::TripleOrder order = rdf::TripleOrder::kSPO;
    int prefix_len = 0;
    double estimated_rows = 0.0;
    double cost_pages = 0.0;

    std::string ToString() const;
  };
  AccessPath ChoosePath(const rdf::TriplePattern& pattern) const;

  // Tuple-at-a-time cursor over the triples matching `pattern`.
  class Scan {
   public:
    Scan() = default;

    bool Valid() const { return valid_; }
    const rdf::Triple& value() const { return current_; }
    void Next();

   private:
    friend class TripleRelation;

    void Advance();

    const TripleRelation* relation_ = nullptr;
    const BPlusTree<3>* tree_ = nullptr;
    rdf::TripleOrder tree_order_ = rdf::TripleOrder::kSPO;
    // Cached ComponentsOf(tree_order_): maps key slots to (s, p, o) roles.
    std::array<int, 3> components_{0, 1, 2};
    bool charge_row_fetch_ = false;
    int prefix_len_ = 0;
    std::array<uint64_t, 3> prefix_{};
    rdf::TriplePattern pattern_;
    BPlusTree<3>::Iterator it_;
    rdf::Triple current_{};
    bool valid_ = false;
  };
  Scan Open(const rdf::TriplePattern& pattern) const;

  // Full scan in clustered key order, fanned out over `ectx`. The relation
  // picks the split itself: leaf-range parts when the context is parallel
  // and the bulk-loaded leaf chain is intact; otherwise one part read by
  // the ordinary cursor, the bit-identical serial path (inserts break the
  // chain). A split scan charges the root-to-leaf descent once, so the
  // union of pages touched — and cold I/O bytes — equals the cursor's.
  // `start(parts)` runs once before the first triple; `fn(part, triple)`
  // then runs concurrently across parts, in key order within each.
  void FullScan(
      const exec::ExecContext& ectx,
      const std::function<void(uint64_t parts)>& start,
      const std::function<void(uint64_t part, const rdf::Triple&)>& fn) const;

  // Audit walker. Audits the clustered tree and every secondary index,
  // and checks that all trees agree on the row count.
  void AuditInto(audit::AuditLevel level, audit::AuditReport* report) const;

 private:
  const BPlusTree<3>* TreeFor(rdf::TripleOrder order) const;
  // Leaf-range parts of a full scan under `ectx` (1 = cursor).
  uint64_t FullScanChunks(const exec::ExecContext& ectx) const;

  Config config_;
  storage::BufferPool* pool_;
  std::unique_ptr<BPlusTree<3>> clustered_;
  std::vector<std::pair<rdf::TripleOrder, std::unique_ptr<BPlusTree<3>>>>
      secondaries_;
  TripleStats stats_;
};

}  // namespace swan::rowstore

#endif  // SWANDB_ROWSTORE_TRIPLE_RELATION_H_
