#include "shard/sharded_backend.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "core/col_backends.h"
#include "obs/trace.h"

namespace swan::shard {

namespace {

// Wire-format model: 8 bytes per id (one column value), 16 per keyed
// count or id pair, 24 per triple. Messages are one per gathered part.
constexpr uint64_t kBytesPerKey = 8;
constexpr uint64_t kBytesPerPair = 16;
constexpr uint64_t kBytesPerTriple = 24;

void SortUnique(std::vector<uint64_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

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
      placement_(dataset.triples(),
                 PlacementConfig{options.nodes, options.split_factor}) {
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

bool ShardedBackend::Supports(core::QueryId id) const {
  (void)id;
  return true;
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

std::vector<uint64_t> ShardedBackend::GatherSubjectFilter(
    uint64_t property, uint64_t object, const std::vector<int>& consumers,
    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.semijoin_filter");
  std::vector<uint64_t> keys;
  for (int holder : NodesFor(property)) {
    const std::vector<uint64_t> local =
        node(holder).SubjectsOf(property, object, ectx);
    // Broadcast the filter from its producer to every consumer.
    for (int consumer : consumers) {
      Ship(holder, consumer, kBytesPerKey * local.size(), 1, ectx);
    }
    keys.insert(keys.end(), local.begin(), local.end());
  }
  SortUnique(&keys);
  span.set_rows_out(keys.size());
  return keys;
}

core::QueryResult ShardedBackend::Run(core::QueryId id,
                                      const core::QueryContext& ctx,
                                      const exec::ExecContext& ectx) {
  // Phases read merged base columns only.
  for (auto& backend : inner_) backend->MergeDelta(ectx);
  switch (core::BaseOf(id)) {
    case core::QueryId::kQ1:
      return RunQ1(ctx, ectx);
    case core::QueryId::kQ2:
    case core::QueryId::kQ6:
      return RunPropertyCounts(id, ctx, ectx);
    case core::QueryId::kQ3:
    case core::QueryId::kQ4:
      return RunQ3Family(id, ctx, ectx);
    case core::QueryId::kQ5:
      return RunQ5(ctx, ectx);
    case core::QueryId::kQ7:
      return RunQ7(ctx, ectx);
    case core::QueryId::kQ8:
      return RunQ8(ctx, ectx);
    default:
      SWAN_CHECK(false);
  }
  return {};
}

// q1: per-node partial counts of <type> objects, sum-merged at the
// coordinator — the canonical partition-local aggregate (scatter tokens,
// gather small partials).
core::QueryResult ShardedBackend::RunQ1(const core::QueryContext& ctx,
                                        const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q1");
  const uint64_t type = ctx.vocab().type;
  std::vector<core::KeyCounts> partials;
  for (int n : NodesFor(type)) {
    partials.push_back(node(n).ObjectCounts(type, ctx.dict_size(), ectx));
    Ship(n, coordinator_, kBytesPerPair * partials.back().size(), 1, ectx);
  }
  core::QueryResult result =
      core::KeyCountRows({"obj", "count"}, core::SumKeyCounts(partials));
  span.set_rows_out(result.rows.size());
  return result;
}

// q2/q6 (and stars): ship the subject filter to every node, count the
// local properties of the filtered subjects, sum-merge the partials. q6's
// filter is the union of the Text-typed subjects and the subjects that
// record a Text-typed object — the second leg is computed on the
// <records> holders and broadcast as a filter of its own.
core::QueryResult ShardedBackend::RunPropertyCounts(
    core::QueryId id, const core::QueryContext& ctx,
    const exec::ExecContext& ectx) const {
  const bool q6 = core::BaseOf(id) == core::QueryId::kQ6;
  obs::Span span(ectx.trace(), q6 ? "shard.q6" : "shard.q2");
  const core::Vocabulary& v = ctx.vocab();
  std::vector<uint64_t> subjects =
      GatherSubjectFilter(v.type, v.text, AllNodes(), ectx);
  if (q6) {
    colstore::MarkSet text_typed(ctx.dict_size());
    text_typed.MarkAll(subjects);
    for (int rn : NodesFor(v.records)) {
      const std::vector<uint64_t> local =
          node(rn).SubjectsWithObjectIn(text_typed, v.records, ectx);
      for (int consumer : AllNodes()) {
        Ship(rn, consumer, kBytesPerKey * local.size(), 1, ectx);
      }
      subjects = colstore::SortedUnion(subjects, local);
    }
  }

  const std::vector<uint64_t>* props = core::PropertyFilter(id, ctx);
  std::vector<core::KeyCounts> partials;
  for (int n : AllNodes()) {
    partials.push_back(
        node(n).PropertyCounts(subjects, props, ctx.dict_size(), ectx));
    Ship(n, coordinator_, kBytesPerPair * partials.back().size(), 1, ectx);
  }
  core::QueryResult result =
      core::KeyCountRows({"prop", "count"}, core::SumKeyCounts(partials));
  span.set_rows_out(result.rows.size());
  return result;
}

// q3/q4 (and stars): like q2 with (property, object) group keys; the
// HAVING count > 1 predicate only holds over the MERGED counts, so it is
// applied at the coordinator, never on a partial.
core::QueryResult ShardedBackend::RunQ3Family(
    core::QueryId id, const core::QueryContext& ctx,
    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q3");
  const core::Vocabulary& v = ctx.vocab();
  std::vector<uint64_t> subjects =
      GatherSubjectFilter(v.type, v.text, AllNodes(), ectx);
  if (core::BaseOf(id) == core::QueryId::kQ4) {
    subjects = colstore::SortedIntersect(
        subjects, GatherSubjectFilter(v.language, v.french, AllNodes(), ectx));
  }

  const std::vector<uint64_t>* props = core::PropertyFilter(id, ctx);
  std::vector<std::vector<colstore::PairCount>> partials;
  for (int n : AllNodes()) {
    partials.push_back(
        node(n).PropertyObjectCounts(subjects, props, ctx.dict_size(), ectx));
    Ship(n, coordinator_, kBytesPerTriple * partials.back().size(), 1, ectx);
  }
  core::QueryResult result =
      core::PairCountRowsOverOne(core::SumPairCounts(partials));
  span.set_rows_out(result.rows.size());
  return result;
}

// q5: the cross-partition join. DLC-origin records bindings live on
// <records>' nodes, the type table on <type>'s — the planner-style choice
// between shipping the full bindings to the type holders and shipping a
// compact semi-join filter (distinct join keys) is made from modeled
// network cost, and the losing strategy's bytes appear nowhere.
core::QueryResult ShardedBackend::RunQ5(const core::QueryContext& ctx,
                                        const exec::ExecContext& ectx) const {
  const core::Vocabulary& v = ctx.vocab();
  const std::vector<int> rec_nodes = NodesFor(v.records);
  const std::vector<int> type_nodes = NodesFor(v.type);

  const std::vector<uint64_t> a_keys =
      GatherSubjectFilter(v.origin, v.dlc, rec_nodes, ectx);

  // Bindings (b.subject, b.object) at the records holders, with each
  // holder's row and distinct-key (b.object) counts for its ship legs.
  const size_t n_nodes = static_cast<size_t>(options_.nodes);
  std::vector<uint64_t> holder_rows(n_nodes, 0), holder_keys(n_nodes, 0);
  core::SubjectObjects bindings;
  for (int rn : rec_nodes) {
    const core::SubjectObjects local =
        node(rn).SubjectObjectPairs(v.records, a_keys, ectx);
    holder_rows[static_cast<size_t>(rn)] = local.size();
    holder_keys[static_cast<size_t>(rn)] =
        core::DistinctFirsts(core::ByObject(local)).size();
    bindings.insert(bindings.end(), local.begin(), local.end());
  }
  const core::SubjectObjects by_object = core::ByObject(bindings);
  const std::vector<uint64_t> join_keys = core::DistinctFirsts(by_object);

  // Matching (subject, type-object) pairs at the type holders.
  std::vector<uint64_t> match_rows(n_nodes, 0);
  core::SubjectObjects types;
  for (int tn : type_nodes) {
    const core::SubjectObjects local =
        node(tn).SubjectObjectPairs(v.type, join_keys, ectx);
    match_rows[static_cast<size_t>(tn)] = local.size();
    types.insert(types.end(), local.begin(), local.end());
  }
  std::sort(types.begin(), types.end());

  // Ship-mode decision on modeled cost. Bindings mode: every records
  // holder ships its full bindings to every type holder, results return
  // to the coordinator. Semi-join mode: holders ship only distinct join
  // keys, the type holders return matching pairs, and the bindings take
  // one hop straight to the coordinator for the final join.
  const double bw = options_.network.bandwidth_mb_per_s * 1e6;
  const double lat = options_.network.latency_ms_per_message * 1e-3;
  const auto model_cost = [&](uint64_t bytes, uint64_t msgs) {
    return static_cast<double>(bytes) / bw + static_cast<double>(msgs) * lat;
  };
  const uint64_t fanout = type_nodes.size();
  const uint64_t total_bindings = bindings.size();
  const uint64_t total_matches = types.size();
  const double bindings_cost =
      model_cost(kBytesPerPair * total_bindings * fanout,
                 rec_nodes.size() * fanout) +
      model_cost(kBytesPerPair * total_matches, type_nodes.size());
  const double semijoin_cost =
      model_cost(kBytesPerKey * join_keys.size() * fanout,
                 rec_nodes.size() * fanout) +
      model_cost(kBytesPerPair * total_matches, type_nodes.size()) +
      model_cost(kBytesPerPair * total_bindings, rec_nodes.size());
  const bool semijoin = semijoin_cost <= bindings_cost;

  obs::Span span(ectx.trace(),
                 semijoin ? "shard.q5.semijoin" : "shard.q5.bindings");
  span.set_rows_in(total_bindings);
  for (int rn : rec_nodes) {
    const uint64_t rows = holder_rows[static_cast<size_t>(rn)];
    for (int tn : type_nodes) {
      // Semi-join mode charges each holder its own distinct keys (the key
      // set is global, already deduplicated across holders).
      Ship(rn, tn,
           semijoin ? kBytesPerKey * holder_keys[static_cast<size_t>(rn)]
                    : kBytesPerPair * rows,
           1, ectx);
    }
    if (semijoin) Ship(rn, coordinator_, kBytesPerPair * rows, 1, ectx);
  }
  for (int tn : type_nodes) {
    Ship(tn, coordinator_, kBytesPerPair * match_rows[static_cast<size_t>(tn)],
         1, ectx);
  }

  // Final join at the coordinator: bindings x type pairs on b.object.
  core::QueryResult result = core::JoinRecordsTypes(by_object, types, v.text);
  span.set_rows_out(result.rows.size());
  return result;
}

// q7: three-way star on the subject — the Point/"end" subject filter
// ships to the <encoding> and <type> holders, whose matching pairs
// gather at the coordinator for the cross product.
core::QueryResult ShardedBackend::RunQ7(const core::QueryContext& ctx,
                                        const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q7");
  const core::Vocabulary& v = ctx.vocab();
  std::vector<int> consumers = NodesFor(v.encoding);
  for (int n : NodesFor(v.type)) consumers.push_back(n);
  std::sort(consumers.begin(), consumers.end());
  consumers.erase(std::unique(consumers.begin(), consumers.end()),
                  consumers.end());

  const std::vector<uint64_t> a_keys =
      GatherSubjectFilter(v.point, v.end, consumers, ectx);

  const auto gather_pairs = [&](uint64_t property) {
    core::SubjectObjects pairs;
    for (int n : NodesFor(property)) {
      const core::SubjectObjects local =
          node(n).SubjectObjectPairs(property, a_keys, ectx);
      Ship(n, coordinator_, kBytesPerPair * local.size(), 1, ectx);
      pairs.insert(pairs.end(), local.begin(), local.end());
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  const core::SubjectObjects encodings = gather_pairs(v.encoding);
  const core::SubjectObjects types = gather_pairs(v.type);

  core::QueryResult result = core::JoinOnSubject(encodings, types);
  span.set_rows_out(result.rows.size());
  return result;
}

// q8: object-object join through the <conferences> subject. The probe
// side is subject-bound (scatters to every node — property partitions
// split a subject's triples), the build side's object set broadcasts as
// a filter.
core::QueryResult ShardedBackend::RunQ8(const core::QueryContext& ctx,
                                        const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q8");
  const uint64_t hub = ctx.vocab().conferences;

  std::vector<uint64_t> t_objects;
  for (int n : AllNodes()) {
    const std::vector<uint64_t> local = node(n).ObjectsOf(hub, ectx);
    Ship(n, coordinator_, kBytesPerKey * local.size(), 1, ectx);
    t_objects.insert(t_objects.end(), local.begin(), local.end());
  }
  SortUnique(&t_objects);
  colstore::MarkSet shared(ctx.dict_size());
  shared.MarkAll(t_objects);
  // Broadcast the build side to the probing nodes.
  for (int n : AllNodes()) {
    Ship(coordinator_, n, kBytesPerKey * t_objects.size(), 1, ectx);
  }

  std::vector<uint64_t> subjects;
  for (int n : AllNodes()) {
    std::vector<uint64_t> local =
        node(n).SubjectsWithObjectIn(shared, std::nullopt, ectx);
    // The hub itself is not an answer; drop it before it ships.
    local.erase(std::remove(local.begin(), local.end(), hub), local.end());
    Ship(n, coordinator_, kBytesPerKey * local.size(), 1, ectx);
    subjects.insert(subjects.end(), local.begin(), local.end());
  }
  SortUnique(&subjects);

  core::QueryResult result = core::SubjectRowsExcept(subjects, hub);
  span.set_rows_out(result.rows.size());
  return result;
}

std::vector<rdf::Triple> ShardedBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  std::vector<int> nodes;
  if (pattern.property) {
    nodes = NodesFor(*pattern.property);
    if (nodes.size() > 1 && pattern.subject) {
      // Sub-split property with a bound subject: one node holds it.
      nodes = {placement_.SubjectNode(*pattern.subject)};
    }
  } else {
    nodes = AllNodes();
  }
  std::vector<rdf::Triple> out;
  for (int node : nodes) {
    std::vector<rdf::Triple> part =
        inner_[static_cast<size_t>(node)]->Match(pattern, ectx);
    // Result-return leg only; the request leg is the caller's (see the
    // class comment).
    Ship(node, coordinator_, kBytesPerTriple * part.size(), 1, ectx);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Status ShardedBackend::Insert(const rdf::Triple& triple) {
  const int node = placement_.NodeOf(triple);
  Ship(coordinator_, node, kBytesPerTriple, 1, write_ectx_);
  return inner_[static_cast<size_t>(node)]->Insert(triple);
}

Status ShardedBackend::Delete(const rdf::Triple& triple) {
  const int node = placement_.NodeOf(triple);
  Ship(coordinator_, node, kBytesPerTriple, 1, write_ectx_);
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

audit::AuditReport ShardedBackend::Audit(audit::AuditLevel level) const {
  audit::AuditReport report;
  for (const auto& backend : inner_) report.Merge(backend->Audit(level));
  return report;
}

}  // namespace swan::shard
