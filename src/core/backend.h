#ifndef SWANDB_CORE_BACKEND_H_
#define SWANDB_CORE_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "core/query.h"
#include "exec/exec_context.h"
#include "plan/stats.h"
#include "rdf/pattern.h"
#include "rdf/scan_filter.h"
#include "rdf/triple.h"
#include "storage/buffer_pool.h"
#include "storage/node_storage.h"
#include "storage/simulated_disk.h"

namespace swan::core {

// Routing surface a scale-out backend exposes to the planner and the BGP
// interpreter; single-node backends return nullptr from Backend::dist().
// The interface is deliberately small: placement (which node owns a
// property's partition), the network cost parameters the planner's
// ship-mode decision needs, and the charging hook the interpreter calls
// when a step actually ships bindings or a semi-join filter.
class DistRouting {
 public:
  virtual ~DistRouting() = default;

  // Number of nodes in the topology (>= 1).
  virtual int nodes() const = 0;

  // The node owning `property`'s vertical partition, or -1 when the
  // partition is subject-hash sub-split across every node.
  virtual int HomeNode(uint64_t property) const = 0;

  // Modeled network parameters (the NetworkModel's config).
  virtual double NetBandwidthBytesPerSec() const = 0;
  virtual double NetLatencySecondsPerMessage() const = 0;

  // The gather node for scatter/gather execution. The serve tier assigns
  // each session a coordinator (node affinity); execution is serialized
  // by the serve turnstile, so the setter is called only at quiescent
  // points between queries.
  virtual int Coordinator() const { return 0; }
  virtual void SetCoordinator(int node) { (void)node; }

  // Charges `bytes` over `messages` messages on the src -> dst link,
  // advancing the network's virtual clock and folding the cost into
  // `ectx`'s OpCounters. src == dst is free and not charged.
  virtual void Ship(int src, int dst, uint64_t bytes, uint64_t messages,
                    const exec::ExecContext& ectx) = 0;
};

// Where a store's memory sits, by structure, computed from the
// structures' sizes rather than from the allocator, so the figures are
// exact and the same on any host.
struct ResidentBytes {
  uint64_t page_images = 0;    // simulated-disk page images
  uint64_t pool_frames = 0;    // page bytes frames hold apart from page_images
  uint64_t frame_table = 0;    // buffer-pool frame records
  uint64_t column_images = 0;  // decoded images of the loaded columns

  ResidentBytes& operator+=(const ResidentBytes& other) {
    page_images += other.page_images;
    pool_frames += other.pool_frames;
    frame_table += other.frame_table;
    column_images += other.column_images;
    return *this;
  }
};

// One point in the paper's evaluation grid: a storage scheme realized in
// an engine architecture (e.g. "MonetDB / vertical SO" or "DBX / triple
// PSO"). Each backend owns its own simulated disk and buffer pool, so
// per-query I/O is attributable and the cold/hot protocol is independent
// of other backends.
class Backend {
 public:
  virtual ~Backend() = default;

  // Display name as used in the paper's tables, e.g. "DBX triple PSO".
  virtual std::string name() const = 0;

  // Whether this backend implements the query (the C-Store engine only
  // supports q1–q7, mirroring its hard-wired plans).
  virtual bool Supports(QueryId id) const {
    (void)id;
    return true;
  }

  // Executes a benchmark query under an explicit execution context (thread
  // budget + per-query operator counters). The caller is responsible for
  // the timing protocol (see bench_support::Harness). Running with
  // ExecContext(1) is bit-identical to the serial engine.
  virtual QueryResult Run(QueryId id, const QueryContext& ctx,
                          const exec::ExecContext& ectx) = 0;

  // Convenience: run under a default context (the globally configured
  // thread width). Derived classes re-expose this with
  // `using Backend::Run;`.
  QueryResult Run(QueryId id, const QueryContext& ctx) {
    return Run(id, ctx, exec::ExecContext());
  }

  // Generic triple-pattern lookup, the building block of the BGP
  // evaluator. Returns the triples that match `pattern` and pass `filter`
  // (one rdf::ScanFilter per position), in the backend's canonical
  // (deterministic) order regardless of the context's thread count. Each
  // store applies the filter inside its scan where its layout allows
  // (partitions, sorted ranges, key prefixes, selections); the order of
  // the returned triples is the unfiltered order with the rejected ones
  // removed, up to the order in which listed leading values are visited.
  virtual std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
      const exec::ExecContext& ectx) const = 0;

  // Convenience: no filter.
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern,
      const exec::ExecContext& ectx = exec::ExecContext()) const {
    return Match(pattern, rdf::PatternFilter{}, ectx);
  }

  // Access-path costs for the cost-based planner: how this backend's
  // physical design answers a Match call (clustering, subject access,
  // per-property fanout). Purely descriptive — returning the default
  // never affects correctness, only plan quality.
  virtual plan::AccessHints PlannerHints() const { return {}; }

  // Adds a triple (ids must already be interned in the owning dataset's
  // dictionary). Row backends update their B+trees in place; column
  // backends buffer into a delta store that is merged into the
  // read-optimized columns before the next query — so the cost of an
  // insert differs radically by architecture (bench/ablation_updates).
  // Returns AlreadyExists for duplicate triples (RDF set semantics) and
  // Unimplemented for read-only engines (C-Store).
  virtual Status Insert(const rdf::Triple& triple) {
    (void)triple;
    return Status::Unimplemented("read-only backend");
  }

  // Removes a triple. Column backends tombstone into the delta store and
  // apply the removal at the next merge; the row engines' B+trees have no
  // structural delete (the paper's workload is read-mostly), so they
  // return Unimplemented. Returns NotFound when the triple is absent.
  virtual Status Delete(const rdf::Triple& triple) {
    (void)triple;
    return Status::Unimplemented("backend does not support deletes");
  }

  // Cold-run protocol: drop all memory state (buffer pool, column caches)
  // so the next query pays full I/O.
  virtual void DropCaches() = 0;

  // Const-overloaded accessors (no const_cast laundering: a const backend
  // hands out a const disk). For sharded backends this is the coordinator
  // node's disk; aggregate modeled cost lives in the virtuals below.
  virtual storage::SimulatedDisk* disk() = 0;
  virtual const storage::SimulatedDisk* disk() const = 0;

  // The distributed-routing surface, or nullptr for single-node backends
  // (the default). When non-null, core::ExecuteBgp annotates physical
  // plans with a home node and ship mode per step. Non-const handle from
  // a const backend, like ExecContext::trace(): routing is observation
  // and cost accounting, not query semantics.
  virtual DistRouting* dist() const { return nullptr; }

  // --- aggregate modeled cost ------------------------------------------
  // Every consumer of "how much did this backend's model charge" (the
  // bench harness, ScopedProfile's trace sources, the serve tier's
  // virtual clock) reads these instead of poking disk() directly, so a
  // sharded backend can report max-over-node-clocks + network time while
  // single-node backends keep their exact previous semantics.

  // The backend's virtual clock: single-node = the disk clock; sharded =
  // max over per-node disk clocks (nodes run in parallel) + network time.
  virtual double VirtualSeconds() const { return disk()->clock().now(); }
  virtual uint64_t TotalBytesRead() const {
    return disk()->total_bytes_read();
  }
  virtual uint64_t TotalReads() const { return disk()->total_reads(); }
  virtual uint64_t TotalSeeks() const { return disk()->total_seeks(); }
  virtual std::vector<double> LaneSecondsSnapshot() const {
    return disk()->LaneSecondsSnapshot();
  }
  // Modeled network totals; zero on one node.
  virtual uint64_t TotalNetBytes() const { return 0; }
  virtual uint64_t TotalNetMessages() const { return 0; }
  virtual double NetSeconds() const { return 0.0; }

  // The backend's page cache, or nullptr for engines without one. The
  // profiling layer snapshots its hit/miss statistics around a traced run.
  virtual const storage::BufferPool* buffer_pool() const { return nullptr; }

  // Total on-disk footprint of the backend's physical design.
  virtual uint64_t disk_bytes() const = 0;

  // Resident bytes by structure; a sharded backend sums its nodes.
  virtual ResidentBytes Resident() const = 0;

  // Deep invariant audit of the backend's physical structures: page
  // checksums, B+tree/column/partition invariants, buffer-pool accounting.
  // kFull sweeps every page through the buffer pool, so it perturbs cache
  // state — callers running the cold/hot timing protocol should audit only
  // between measurements. The default covers backends with no persistent
  // state of their own.
  virtual audit::AuditReport Audit(audit::AuditLevel level) const {
    (void)level;
    return audit::AuditReport{};
  }
};

// Shared ownership plumbing for disk + buffer pool. All construction goes
// through storage::MakeNodeStorage — the node-disk lint rule's single
// sanctioned factory — so a backend's storage stack is the same unit a
// scale-out topology stamps out per node.
class BackendBase : public Backend {
 public:
  BackendBase(storage::DiskConfig disk_config, size_t pool_pages)
      : owned_(storage::MakeNodeStorage(disk_config, pool_pages)),
        disk_(owned_.disk.get()),
        pool_(owned_.pool.get()) {}

  // Borrowed storage: a scale-out topology owns this node's disk + pool
  // and outlives the backend (net::Topology hands out the pointers).
  BackendBase(storage::SimulatedDisk* disk, storage::BufferPool* pool)
      : disk_(disk), pool_(pool) {}

  storage::SimulatedDisk* disk() override { return disk_; }
  const storage::SimulatedDisk* disk() const override { return disk_; }
  storage::BufferPool* pool() { return pool_; }
  const storage::BufferPool* buffer_pool() const override { return pool_; }

  // Storage-level audit shared by every engine: buffer-pool accounting,
  // orphan files (the disk stores more bytes than the store's live
  // structures own, as when a rebuild leaves the files it replaced) and
  // (at kFull) a checksum sweep of every page on the simulated disk.
  // Subclasses override Audit(), call this, then add their own walkers. A
  // sharded store's nodes each own their disk, so each node checks its own.
  audit::AuditReport Audit(audit::AuditLevel level) const override {
    audit::AuditReport report;
    pool_->AuditInto(level, &report);
    disk_->AuditInto(level, &report);
    const uint64_t stored = disk_->TotalStoredBytes();
    const uint64_t owned = disk_bytes();
    if (stored > owned) {
      report.Add(audit::FindingClass::kStructure, "disk",
                 "disk stores " + std::to_string(stored) +
                     " bytes but the store's structures own " +
                     std::to_string(owned) + " (orphan files)");
    }
    return report;
  }

  // The disk's page images and the pool's frames (which share those
  // images, so only a frame's stale image counts); the column stores add
  // their loaded column images.
  ResidentBytes Resident() const override {
    ResidentBytes bytes;
    bytes.page_images = disk_->PageImageBytes();
    bytes.pool_frames = pool_->frame_bytes();
    bytes.frame_table = pool_->frame_table_bytes();
    return bytes;
  }

 protected:
  // For the column stores, whose column loads read every page through the
  // pool keeping no frame: a frame in their pool is a finding.
  void AuditNoFrames(audit::AuditReport* report) const {
    const size_t frames = pool_->frame_count();
    if (frames == 0) return;
    report->Add(audit::FindingClass::kBufferPool, "bufferpool",
                std::to_string(frames) +
                    " frame(s) in a column store's pool, whose column loads "
                    "keep none");
  }

  // Empty (null members) when the storage stack is borrowed.
  storage::NodeStorage owned_;
  storage::SimulatedDisk* const disk_;
  storage::BufferPool* const pool_;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_BACKEND_H_
