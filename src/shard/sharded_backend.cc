#include "shard/sharded_backend.h"

#include <utility>

#include "common/macros.h"
#include "core/col_backends.h"
#include "obs/trace.h"
#include "plan/distributed.h"

namespace swan::shard {

// DistRouting over the backend's placement + network. Lives behind a
// unique_ptr so the const backend can hand out a usable routing surface
// (cost accounting, not query semantics).
class ShardedBackend::Routing : public core::DistRouting {
 public:
  explicit Routing(ShardedBackend* owner) : owner_(owner) {}

  int nodes() const override { return owner_->options_.nodes; }
  int HomeNode(uint64_t property) const override {
    return owner_->placement_.HomeNode(property);
  }
  double NetBandwidthBytesPerSec() const override {
    return owner_->options_.network.bandwidth_mb_per_s * 1e6;
  }
  double NetLatencySecondsPerMessage() const override {
    return owner_->options_.network.latency_ms_per_message * 1e-3;
  }
  int Coordinator() const override { return owner_->coordinator_; }
  void SetCoordinator(int node) override {
    SWAN_CHECK_MSG(node >= 0 && node < owner_->options_.nodes,
                   "coordinator out of range");
    owner_->coordinator_ = node;
  }
  void Ship(int src, int dst, uint64_t bytes, uint64_t messages,
            const exec::ExecContext& ectx) override {
    owner_->Ship(src, dst, bytes, messages, ectx);
  }

 private:
  ShardedBackend* owner_;
};

ShardedBackend::ShardedBackend(const rdf::Dataset& dataset,
                               ShardOptions options)
    : options_(options),
      placement_(dataset.triples(), options.nodes) {
  SWAN_CHECK_MSG(options_.nodes >= 1, "sharded backend needs >= 1 node");
  net::TopologyConfig topo;
  topo.nodes = options_.nodes;
  topo.disk = options_.disk;
  topo.pool_pages = options_.pool_pages;
  topo.network = options_.network;
  topology_ = std::make_unique<net::Topology>(topo);

  // Split the dataset into per-node subsets (node order, stable within a
  // node: dataset order).
  std::vector<std::vector<rdf::Triple>> subsets(
      static_cast<size_t>(options_.nodes));
  for (const rdf::Triple& t : dataset.triples()) {
    subsets[static_cast<size_t>(placement_.NodeOf(t))].push_back(t);
  }
  inner_.reserve(subsets.size());
  parts_.reserve(subsets.size());
  for (int n = 0; n < options_.nodes; ++n) {
    auto& subset = subsets[static_cast<size_t>(n)];
    if (options_.vertical) {
      inner_.push_back(std::make_unique<core::ColVerticalBackend>(
          dataset, topology_->disk(n), topology_->pool(n), std::move(subset),
          options_.codec));
    } else {
      inner_.push_back(std::make_unique<core::ColTripleBackend>(
          dataset, options_.order, topology_->disk(n), topology_->pool(n),
          std::move(subset), options_.codec));
    }
    parts_.push_back(inner_.back().get());
  }
  routing_ = std::make_unique<Routing>(this);
}

ShardedBackend::~ShardedBackend() = default;

core::DistRouting* ShardedBackend::dist() const { return routing_.get(); }

std::string ShardedBackend::name() const {
  std::string engine = options_.vertical
                           ? std::string("vert. SO")
                           : std::string("triple ") + ToString(options_.order);
  return "Sharded " + engine + " x" + std::to_string(options_.nodes);
}

plan::AccessHints ShardedBackend::PlannerHints() const {
  return inner_.front()->PlannerHints();
}

std::vector<int> ShardedBackend::AllNodes() const {
  std::vector<int> nodes(static_cast<size_t>(options_.nodes));
  for (int n = 0; n < options_.nodes; ++n) nodes[static_cast<size_t>(n)] = n;
  return nodes;
}

std::vector<int> ShardedBackend::NodesFor(uint64_t property) const {
  const int home = placement_.HomeNode(property);
  if (home >= 0) return {home};
  return AllNodes();
}

void ShardedBackend::Ship(int src, int dst, uint64_t bytes, uint64_t messages,
                          const exec::ExecContext& ectx) const {
  if (src == dst) return;
  obs::Span span(ectx.trace(), "net.ship");
  span.set_rows_in(bytes);
  topology_->network().Ship(src, dst, bytes, messages, ectx);
}

core::QueryResult ShardedBackend::Run(core::QueryId id,
                                      const core::QueryContext& ctx,
                                      const exec::ExecContext& ectx) {
  return core::PhasedBackend::RunPartitioned(parts_, routing_.get(), "shard",
                                             id, ctx, ectx);
}

std::vector<rdf::Triple> ShardedBackend::Match(
    const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
    const exec::ExecContext& ectx) const {
  std::vector<rdf::Triple> out;
  if (!filter.AdmitsConstants(pattern)) return out;
  // Only the nodes holding a bound or listed property open; a sub-split
  // property with a bound subject lives on that subject's node.
  const rdf::ScanFilter& listed = filter.Free(pattern, 1);
  std::vector<int> nodes = AllNodes();
  if (pattern.property || listed.kind() == rdf::ScanFilter::Kind::kIn) {
    std::vector<bool> opens(nodes.size(), false);
    for (uint64_t p : pattern.property
                          ? std::vector<uint64_t>{*pattern.property}
                          : listed.ids()) {
      std::vector<int> holders = NodesFor(p);
      if (holders.size() > 1 && pattern.subject) {
        holders = {placement_.SubjectNode(*pattern.subject)};
      }
      for (int node : holders) opens[static_cast<size_t>(node)] = true;
    }
    std::erase_if(nodes,
                  [&](int node) { return !opens[static_cast<size_t>(node)]; });
  }
  uint64_t filter_bytes = 0;
  for (int c = 0; c < 3; ++c) {
    filter_bytes += filter.Free(pattern, c).wire_bytes();
  }
  for (int node : nodes) {
    // The filter goes to the node with the pattern, which applies it inside
    // its scan; only the matches return.
    if (filter_bytes > 0) Ship(coordinator_, node, filter_bytes, 1, ectx);
    std::vector<rdf::Triple> part =
        inner_[static_cast<size_t>(node)]->Match(pattern, filter, ectx);
    Ship(node, coordinator_, plan::kBytesPerTriple * part.size(), 1, ectx);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Status ShardedBackend::Insert(const rdf::Triple& triple) {
  const int node = placement_.NodeOf(triple);
  Ship(coordinator_, node, plan::kBytesPerTriple, 1, write_ectx_);
  return inner_[static_cast<size_t>(node)]->Insert(triple);
}

Status ShardedBackend::Delete(const rdf::Triple& triple) {
  const int node = placement_.NodeOf(triple);
  Ship(coordinator_, node, plan::kBytesPerTriple, 1, write_ectx_);
  return inner_[static_cast<size_t>(node)]->Delete(triple);
}

void ShardedBackend::DropCaches() {
  for (auto& backend : inner_) backend->DropCaches();
}

storage::SimulatedDisk* ShardedBackend::disk() {
  return topology_->disk(coordinator_);
}
const storage::SimulatedDisk* ShardedBackend::disk() const {
  return topology_->disk(coordinator_);
}
const storage::BufferPool* ShardedBackend::buffer_pool() const {
  return topology_->pool(coordinator_);
}

uint64_t ShardedBackend::disk_bytes() const {
  uint64_t total = 0;
  for (const auto& backend : inner_) total += backend->disk_bytes();
  return total;
}

double ShardedBackend::VirtualSeconds() const {
  return topology_->VirtualNow();
}
uint64_t ShardedBackend::TotalBytesRead() const {
  return topology_->TotalBytesRead();
}
uint64_t ShardedBackend::TotalReads() const { return topology_->TotalReads(); }
uint64_t ShardedBackend::TotalSeeks() const { return topology_->TotalSeeks(); }
std::vector<double> ShardedBackend::LaneSecondsSnapshot() const {
  return topology_->LaneSecondsSnapshot();
}
uint64_t ShardedBackend::TotalNetBytes() const {
  return topology_->network().total_bytes();
}
uint64_t ShardedBackend::TotalNetMessages() const {
  return topology_->network().total_messages();
}
double ShardedBackend::NetSeconds() const {
  return topology_->network().seconds();
}

core::ResidentBytes ShardedBackend::Resident() const {
  core::ResidentBytes total;
  for (const auto& backend : inner_) total += backend->Resident();
  return total;
}

audit::AuditReport ShardedBackend::Audit(audit::AuditLevel level) const {
  audit::AuditReport report;
  for (const auto& backend : inner_) report.Merge(backend->Audit(level));
  return report;
}

}  // namespace swan::shard
