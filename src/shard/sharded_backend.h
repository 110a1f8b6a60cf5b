#ifndef SWANDB_SHARD_SHARDED_BACKEND_H_
#define SWANDB_SHARD_SHARDED_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "colstore/compression.h"
#include "core/backend.h"
#include "core/col_backends.h"
#include "core/query.h"
#include "net/topology.h"
#include "rdf/dataset.h"
#include "rdf/triple.h"
#include "shard/placement.h"

namespace swan::shard {

struct ShardOptions {
  // Simulated node count (>= 1; 1 is the degenerate topology used as the
  // scale-out baseline — same orchestration, no network traffic).
  int nodes = 2;
  // Per-node engine: the vertical column scheme (the paper's) or the
  // column triple store in `order`.
  bool vertical = true;
  rdf::TripleOrder order = rdf::TripleOrder::kPSO;
  storage::DiskConfig disk;
  // TOTAL buffer-pool pages, split across nodes by the topology.
  size_t pool_pages = 65536;
  net::NetworkConfig network;
  colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw;
};

// The scale-out backend: N column-store partitions over a simulated
// multi-node topology. Placement is by property (vertical partitions are
// the shards) with a subject-hash sub-split for dominant properties;
// every node owns a private disk + buffer pool inside the net::Topology,
// and all inter-node movement is charged to the NetworkModel on the
// shared virtual-clock discipline.
//
// Run is core::PhasedBackend::RunPartitioned over the node partitions and
// this backend's DistRouting: the one q1–q8 skeleton that every
// single-node engine but C-Store and the reference runs as one
// partition. Match serves BGPs alone.
//
// Equivalence contract: Run and Match return the same row bags as the
// single-node backends at every node count and thread width. Node loops
// run in node order, partials merge sorted, and placement is a pure
// function of the data, so the serve tier's byte-identical replay
// guarantee survives distribution.
//
// Network accounting contract: Match charges its scan filter's forward
// leg (coordinator -> owner, ScanFilter::wire_bytes of the free
// positions, one message per remote node) and the result-return leg
// (owner -> coordinator, 24 bytes/triple, one message per remote part).
// Any other request/shipping leg belongs to the caller: RunPartitioned
// charges its filters and partials per phase, and the BGP interpreter
// charges per annotated step (plan::AnnotateDistribution decides bindings
// vs semi-join from modeled network cost).
class ShardedBackend : public core::Backend {
 public:
  ShardedBackend(const rdf::Dataset& dataset, ShardOptions options);
  ~ShardedBackend() override;

  std::string name() const override;

  using core::Backend::Run;
  using core::Backend::Match;
  core::QueryResult Run(core::QueryId id, const core::QueryContext& ctx,
                        const exec::ExecContext& ectx) override;
  // Opens only the nodes that can hold a bound or listed property; each
  // applies the filter inside its own scan and ships only its matches.
  std::vector<rdf::Triple> Match(const rdf::TriplePattern& pattern,
                                 const rdf::PatternFilter& filter,
                                 const exec::ExecContext& ectx) const override;

  plan::AccessHints PlannerHints() const override;

  Status Insert(const rdf::Triple& triple) override;
  Status Delete(const rdf::Triple& triple) override;

  void DropCaches() override;

  // The coordinator node's disk (aggregate modeled cost lives in the
  // virtuals below).
  storage::SimulatedDisk* disk() override;
  const storage::SimulatedDisk* disk() const override;
  const storage::BufferPool* buffer_pool() const override;
  uint64_t disk_bytes() const override;

  core::DistRouting* dist() const override;

  double VirtualSeconds() const override;
  uint64_t TotalBytesRead() const override;
  uint64_t TotalReads() const override;
  uint64_t TotalSeeks() const override;
  std::vector<double> LaneSecondsSnapshot() const override;
  uint64_t TotalNetBytes() const override;
  uint64_t TotalNetMessages() const override;
  double NetSeconds() const override;

  core::ResidentBytes Resident() const override;
  audit::AuditReport Audit(audit::AuditLevel level) const override;

  const net::Topology& topology() const { return *topology_; }
  const Placement& placement() const { return placement_; }
  const ShardOptions& options() const { return options_; }
  int coordinator() const { return coordinator_; }
  // Node `node`'s column backend.
  const core::PhasedBackend& node_backend(int node) const {
    return *inner_[static_cast<size_t>(node)];
  }

 private:
  class Routing;

  std::vector<int> AllNodes() const;
  // Nodes that can hold triples of `property`: its home, or all when
  // sub-split.
  std::vector<int> NodesFor(uint64_t property) const;
  // Charges a transfer on the modeled network (src == dst is free).
  void Ship(int src, int dst, uint64_t bytes, uint64_t messages,
            const exec::ExecContext& ectx) const;

  ShardOptions options_;
  Placement placement_;
  std::unique_ptr<net::Topology> topology_;
  // One column backend per node, over the topology's borrowed storage;
  // parts_ views them as RunPartitioned's partitions.
  std::vector<std::unique_ptr<core::PhasedBackend>> inner_;
  std::vector<core::PhasedBackend*> parts_;
  std::unique_ptr<Routing> routing_;
  // Session node affinity: written by the serve tier between queries
  // (turnstile-serialized), read during Run/Match.
  int coordinator_ = 0;
  // Charges request legs for Insert/Delete, which carry no ExecContext.
  exec::ExecContext write_ectx_{1};
};

}  // namespace swan::shard

#endif  // SWANDB_SHARD_SHARDED_BACKEND_H_
