#ifndef SWANDB_ROWSTORE_TRIPLE_RELATION_H_
#define SWANDB_ROWSTORE_TRIPLE_RELATION_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/exec_context.h"

#include "audit/audit.h"
#include "common/id_hash.h"
#include "rdf/pattern.h"
#include "rdf/scan_filter.h"
#include "rdf/triple.h"
#include "rowstore/access_path.h"
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
  // returns false for duplicates. The frequency statistics count it, so
  // ChoosePath sees the insert at once.
  bool Insert(const rdf::Triple& triple);

  uint64_t size() const { return clustered_->size(); }
  const TripleStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  uint64_t disk_bytes() const;

  // Chosen physical access path for a pattern (exposed for EXPLAIN-style
  // inspection and tests).
  using AccessPath = rowstore::AccessPath;
  AccessPath ChoosePath(const rdf::TriplePattern& pattern) const;

  // A batch of decoded triples: one leaf's worth, valid only during the
  // call that receives it.
  using BatchFn = std::function<void(std::span<const rdf::Triple>)>;

  // Streams the triples matching `pattern` and passing `filter`, in the
  // key order of the path ChoosePath picks, a leaf at a time: the walk
  // checks the bound prefix, the residual constants and the free
  // components' filters on the raw key words and hands fn only the
  // matches of each leaf. A free component's IN-list is bound instead,
  // one walk per listed id in ascending order, when ChoosePath prices
  // those walks below the one walk that tests the list. On a secondary
  // path every match first pays its point lookup in the clustered tree
  // (the non-covering row fetch).
  void ScanMatches(const rdf::TriplePattern& pattern,
                   const rdf::PatternFilter& filter, const BatchFn& fn) const;

  // Full scan in clustered key order, fanned out over `ectx`, keeping the
  // triples whose property is in `props` (sorted) and whose subject is in
  // `subjects`; a null filter keeps every triple. The filters are tested
  // on each leaf's raw key words: `subjects` with one probe per key, then
  // `props` once per run of equal properties among the keys the probe
  // keeps. Only the kept keys are decoded. Every leaf is fetched whatever
  // it keeps, so the pages read do not depend on the filters. The
  // relation picks the split itself: leaf-range parts when the context is
  // parallel and the bulk-loaded leaf chain is intact; otherwise one part,
  // the walk from the smallest key that ScanMatches does for the empty
  // pattern (inserts break the chain). A split scan charges the
  // root-to-leaf descent once, so the union of pages touched — and cold
  // I/O bytes — equals the serial walk's. `start(parts)` runs once before
  // the first triple; `fn(part, batch)` then runs concurrently across
  // parts, one leaf's kept triples a call, in key order within each part.
  // A leaf that keeps no triple gets no call.
  void FullScan(const exec::ExecContext& ectx,
                const std::vector<uint64_t>* props, const IdSet* subjects,
                const std::function<void(uint64_t parts)>& start,
                const std::function<void(uint64_t part,
                                         std::span<const rdf::Triple>)>& fn)
      const;

  // Audit walker. Audits the clustered tree and every secondary index,
  // and checks that all trees agree on the row count.
  void AuditInto(audit::AuditLevel level, audit::AuditReport* report) const;

 private:
  const BPlusTree<3>* TreeFor(rdf::TripleOrder order) const;
  // Leaf-range parts of a full scan under `ectx` (1 = the serial walk).
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
