// Scale-out equivalence and model tests: the sharded backend must return
// the same row bags as the single-node reference for all 12 benchmark
// queries at every node count and thread width, also after unmerged
// writes; a cold query must read no more than on one node; placement must
// be a pure function of the data; network cost must be visible in the
// counters, pinned per query, and obey the documented lock order (network
// above disk).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/ledger.h"
#include "bench_support/query_bgps.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/col_backends.h"
#include "core/reference_backend.h"
#include "core/store.h"
#include "net/network_model.h"
#include "net/topology.h"
#include "shard/placement.h"
#include "shard/sharded_backend.h"
#include "sparql/sparql.h"

namespace swan {
namespace {

using bench_support::BartonConfig;
using bench_support::GenerateBarton;
using bench_support::MakeBartonContext;
using core::QueryId;

struct ScaleCombo {
  int nodes;
  bool vertical;
};

class ScaleoutEquivalenceTest : public ::testing::TestWithParam<ScaleCombo> {};

TEST_P(ScaleoutEquivalenceTest, AllQueriesMatchReferenceAtAllWidths) {
  BartonConfig config;
  config.target_triples = 12000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  core::ReferenceBackend reference(barton.dataset);
  shard::ShardOptions options;
  options.nodes = GetParam().nodes;
  options.vertical = GetParam().vertical;
  shard::ShardedBackend sharded(barton.dataset, options);

  for (QueryId id : core::AllQueries()) {
    core::QueryResult expected = reference.Run(id, ctx);
    for (int threads : {1, 8}) {
      exec::ExecContext ectx(threads);
      core::QueryResult got = sharded.Run(id, ctx, ectx);
      EXPECT_TRUE(expected.SameRows(got))
          << sharded.name() << " diverged on " << ToString(id) << " at "
          << threads << " thread(s)";
    }
    // Cold runs see the same rows.
    sharded.DropCaches();
    core::QueryResult cold = sharded.Run(id, ctx);
    EXPECT_TRUE(expected.SameRows(cold)) << "cold " << ToString(id);
  }
}

TEST_P(ScaleoutEquivalenceTest, MatchAgreesWithReference) {
  BartonConfig config;
  config.target_triples = 8000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);
  const core::Vocabulary& v = ctx.vocab();

  core::ReferenceBackend reference(barton.dataset);
  shard::ShardOptions options;
  options.nodes = GetParam().nodes;
  options.vertical = GetParam().vertical;
  shard::ShardedBackend sharded(barton.dataset, options);

  const uint64_t some_subject = barton.dataset.triples().front().subject;
  const std::vector<rdf::TriplePattern> patterns = {
      {{}, v.type, v.text},        // (?s, p, o)
      {{}, v.type, {}},            // (?s, p, ?o)
      {some_subject, {}, {}},      // (s, ?p, ?o)
      {some_subject, v.type, {}},  // (s, p, ?o)
      {{}, {}, v.text},            // (?s, ?p, o)
  };
  for (const rdf::TriplePattern& pattern : patterns) {
    std::vector<rdf::Triple> expected = reference.Match(pattern);
    std::vector<rdf::Triple> got = sharded.Match(pattern);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(expected, got) << pattern.ToString();
  }
}

std::string ComboName(const ::testing::TestParamInfo<ScaleCombo>& info) {
  return std::string(info.param.vertical ? "vert" : "triple") + "_n" +
         std::to_string(info.param.nodes);
}

INSTANTIATE_TEST_SUITE_P(
    NodesAndEngines, ScaleoutEquivalenceTest,
    ::testing::Values(ScaleCombo{1, true}, ScaleCombo{2, true},
                      ScaleCombo{4, true}, ScaleCombo{1, false},
                      ScaleCombo{2, false}, ScaleCombo{4, false}),
    ComboName);

// Run's phases read merged base columns, so every node must fold its
// write store in first: unmerged inserts (one of them a brand-new
// property), deletes, and the re-insert of a tombstoned row all have to
// show up in the 12 answers exactly as in the reference.
class ScaleoutWritesTest : public ::testing::TestWithParam<ScaleCombo> {};

TEST_P(ScaleoutWritesTest, WritesBeforeRunMatchReference) {
  BartonConfig config;
  config.target_triples = 12000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);
  const core::Vocabulary& v = ctx.vocab();

  core::ReferenceBackend probe(barton.dataset);
  const auto text_typed = probe.Match({{}, v.type, v.text});
  const auto records = probe.Match({{}, v.records, {}});
  const auto dlc = probe.Match({{}, v.origin, v.dlc});
  const auto point_end = probe.Match({{}, v.point, v.end});
  const auto french = probe.Match({{}, v.language, v.french});
  ASSERT_GE(text_typed.size(), 6u);
  ASSERT_FALSE(records.empty() || dlc.empty() || point_end.empty() ||
               french.empty());
  // An id that is no property of the data set: inserting under it
  // creates a new vertical partition (and a new q2*/q3* group).
  const uint64_t new_prop = v.dlc;
  ASSERT_TRUE(probe.Match({{}, new_prop, {}}).empty());

  struct Write {
    bool insert;
    rdf::Triple triple;
  };
  const rdf::Triple tombstoned = text_typed[1];
  const std::vector<Write> writes = {
      {false, text_typed[0]},
      {false, tombstoned},
      {true, tombstoned},
      {true, {text_typed[2].subject, new_prop, v.text}},
      {true, {text_typed[3].subject, new_prop, v.text}},
      {true, {french[0].subject, v.type, v.text}},
      {true, {dlc[0].subject, v.records, text_typed[4].subject}},
      {false, records[0]},
      {true, {v.conferences, new_prop, v.point}},
      {true, {text_typed[5].subject, v.type, v.point}},
      {true, {point_end[0].subject, v.encoding, v.text}},
  };
  const auto apply = [&](core::Backend* backend) {
    std::vector<StatusCode> codes;
    for (const Write& w : writes) {
      codes.push_back(w.insert ? backend->Insert(w.triple).code()
                               : backend->Delete(w.triple).code());
    }
    return codes;
  };

  core::ReferenceBackend reference(barton.dataset);
  const std::vector<StatusCode> expected_codes = apply(&reference);
  for (int threads : {1, 8}) {
    shard::ShardOptions options;
    options.nodes = GetParam().nodes;
    options.vertical = GetParam().vertical;
    shard::ShardedBackend sharded(barton.dataset, options);
    EXPECT_EQ(apply(&sharded), expected_codes);
    exec::ExecContext ectx(threads);
    for (QueryId id : core::AllQueries()) {
      EXPECT_TRUE(reference.Run(id, ctx).SameRows(sharded.Run(id, ctx, ectx)))
          << sharded.name() << " diverged on " << ToString(id) << " at "
          << threads << " thread(s) after writes";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NodesAndEngines, ScaleoutWritesTest,
                         ::testing::Values(ScaleCombo{2, true},
                                           ScaleCombo{4, true},
                                           ScaleCombo{2, false},
                                           ScaleCombo{4, false}),
                         ComboName);

// The node-local phases read the columns a single node reads, so a cold
// query costs no more bytes spread over N nodes than on one. At one node
// both sides run the same scatter/gather over one partition and must read
// exactly the same bytes. The 5 % allowance at 2 and 4 nodes is page
// rounding: at 4 nodes the sub-split <type> partition is four column
// files, each ending in a partial page (at this scale the worst query,
// q1, reads 4.3 % more).
TEST(ScaleoutColdBytesTest, ShardedReadsWhatOneNodeReads) {
  BartonConfig config;
  config.target_triples = 100000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);
  const exec::ExecContext ectx(1);

  const auto cold_bytes = [&](core::Backend* backend, QueryId id) {
    backend->DropCaches();
    const uint64_t before = backend->TotalBytesRead();
    (void)backend->Run(id, ctx, ectx);
    return backend->TotalBytesRead() - before;
  };
  core::ColVerticalBackend single(barton.dataset);
  for (int nodes : {1, 2, 4}) {
    shard::ShardOptions options;
    options.nodes = nodes;
    shard::ShardedBackend sharded(barton.dataset, options);
    for (QueryId id : core::AllQueries()) {
      const uint64_t one = cold_bytes(&single, id);
      const uint64_t many = cold_bytes(&sharded, id);
      if (nodes == 1) {
        EXPECT_EQ(many, one) << ToString(id) << " on a one-node topology";
      } else {
        EXPECT_LE(static_cast<double>(many), 1.05 * static_cast<double>(one))
            << ToString(id) << " at " << nodes << " nodes: " << many
            << " bytes vs " << one << " on one node";
      }
    }
  }
}

TEST(PlacementTest, DeterministicAndBalanced) {
  BartonConfig config;
  config.target_triples = 12000;
  const auto barton = GenerateBarton(config);

  shard::Placement a(barton.dataset.triples(), 4);
  shard::Placement b(barton.dataset.triples(), 4);
  EXPECT_EQ(a.node_loads(), b.node_loads());
  EXPECT_EQ(a.split_properties(), b.split_properties());

  // Every node carries a nontrivial share (greedy bin-pack + sub-split).
  uint64_t total = 0;
  for (uint64_t load : a.node_loads()) total += load;
  EXPECT_EQ(total, barton.dataset.triples().size());
  for (uint64_t load : a.node_loads()) {
    EXPECT_GT(load, total / 16) << "a node is nearly empty";
  }

  // Placement agrees with itself triple by triple.
  for (const rdf::Triple& t : barton.dataset.triples()) {
    const int home = a.HomeNode(t.property);
    if (home >= 0) {
      EXPECT_EQ(a.NodeOf(t), home);
    } else {
      EXPECT_EQ(a.NodeOf(t), a.SubjectNode(t.subject));
    }
  }
}

// q3*'s HAVING on a sharded store. A node applies HAVING itself only to
// the groups of properties it holds whole; a sub-split property's group
// whose two rows sit on two nodes, one each, reaches count 2 only in the
// coordinator's sum and must still be kept.
TEST(ScaleoutHavingTest, SubSplitGroupIsKeptOnlyAfterTheSum) {
  for (int nodes : {2, 4}) {
    rdf::Dataset data;
    // <type> and <big> each hold about half the triples, so both are
    // sub-split; <small> is pinned to one node.
    for (int i = 0; i < 64; ++i) {
      const std::string s = "<s" + std::to_string(i) + ">";
      data.Add(s, "<type>", "<Text>");
      data.Add(s, "<big>", "\"o" + std::to_string(i) + "\"");
    }
    data.Add("<s1>", "<small>", "\"a\"");
    data.Add("<s2>", "<small>", "\"a\"");
    data.Add("<s3>", "<small>", "\"b\"");
    const auto id = [&](std::string_view term) {
      return *data.dict().Find(term);
    };
    // Two subjects on different nodes share one <big> object.
    const uint64_t first = id("<s0>");
    const auto node_of = [&](uint64_t subject) {
      return shard::Placement::HashId(subject) % static_cast<uint64_t>(nodes);
    };
    int other = 1;
    while (node_of(id("<s" + std::to_string(other) + ">")) == node_of(first)) {
      ++other;
      ASSERT_LT(other, 64);
    }
    data.Add("<s0>", "<big>", "\"shared\"");
    data.Add("<s" + std::to_string(other) + ">", "<big>", "\"shared\"");

    const shard::Placement placement(data.triples(), nodes);
    ASSERT_LT(placement.HomeNode(id("<big>")), 0);
    ASSERT_GE(placement.HomeNode(id("<small>")), 0);

    core::Vocabulary vocab;
    vocab.type = id("<type>");
    vocab.text = id("<Text>");
    const core::QueryContext ctx(vocab, data.DistinctProperties(),
                                 data.dict().size(),
                                 data.DistinctProperties().size());
    core::ReferenceBackend reference(data);
    const core::QueryResult expected = reference.Run(QueryId::kQ3Star, ctx);
    const std::vector<uint64_t> shared = {id("<big>"), id("\"shared\""), 2};
    const std::vector<uint64_t> pinned = {id("<small>"), id("\"a\""), 2};
    ASSERT_NE(std::find(expected.rows.begin(), expected.rows.end(), shared),
              expected.rows.end());
    for (bool vertical : {true, false}) {
      shard::ShardOptions options;
      options.nodes = nodes;
      options.vertical = vertical;
      shard::ShardedBackend sharded(data, options);
      for (int threads : {1, 2, 8}) {
        const core::QueryResult got =
            sharded.Run(QueryId::kQ3Star, ctx, exec::ExecContext(threads));
        const std::string what = sharded.name() + " at " +
                                 std::to_string(threads) + " thread(s)";
        EXPECT_TRUE(expected.SameRows(got)) << what;
        EXPECT_NE(std::find(got.rows.begin(), got.rows.end(), shared),
                  got.rows.end())
            << what;
        EXPECT_NE(std::find(got.rows.begin(), got.rows.end(), pinned),
                  got.rows.end())
            << what;
        EXPECT_TRUE(std::is_sorted(got.rows.begin(), got.rows.end())) << what;
      }
    }
  }
}

TEST(ScaleoutNetworkTest, CrossPartitionQueriesChargeTheNetwork) {
  BartonConfig config;
  config.target_triples = 8000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  shard::ShardOptions options;
  options.nodes = 4;
  shard::ShardedBackend sharded(barton.dataset, options);

  exec::ExecContext ectx(1);
  (void)sharded.Run(QueryId::kQ5, ctx, ectx);

  EXPECT_GT(sharded.TotalNetBytes(), 0u);
  EXPECT_GT(sharded.TotalNetMessages(), 0u);
  EXPECT_GT(sharded.NetSeconds(), 0.0);
  const auto snap = ectx.counters().Snap();
  EXPECT_GT(snap.net_bytes, 0u);
  EXPECT_GT(snap.net_messages, 0u);

  // The virtual clock folds network time on top of the slowest node.
  EXPECT_GE(sharded.VirtualSeconds(),
            sharded.topology().MaxNodeSeconds() + sharded.NetSeconds() - 1e-12);

  // Per-link stats are consistent with the totals.
  uint64_t link_bytes = 0;
  for (const net::LinkStats& link : sharded.topology().network().PerLink()) {
    EXPECT_NE(link.src, link.dst) << "local transfers must not be charged";
    link_bytes += link.bytes;
  }
  EXPECT_EQ(link_bytes, sharded.TotalNetBytes());
}

TEST(ScaleoutNetworkTest, SingleNodeTopologyShipsNothing) {
  BartonConfig config;
  config.target_triples = 6000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  shard::ShardOptions options;
  options.nodes = 1;
  shard::ShardedBackend sharded(barton.dataset, options);
  for (QueryId id : core::AllQueries()) (void)sharded.Run(id, ctx);
  EXPECT_EQ(sharded.TotalNetBytes(), 0u);
  EXPECT_EQ(sharded.TotalNetMessages(), 0u);
  EXPECT_EQ(sharded.NetSeconds(), 0.0);
}

// The network model prices partial sizes, so the wire bytes and messages
// of every query are a fingerprint of the orchestration: what each node
// ships and how often. Pinned at 12k triples, seed 7
// (bench/baselines/scaleout_wire.csv); both schemes ship the same
// partials.
TEST(ScaleoutNetworkTest, WireAccountingIsPinned) {
  BartonConfig config;
  config.target_triples = 12000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  bench_support::Ledger got(
      config, {"backend", "query", "net_bytes", "net_messages"});
  for (bool vertical : {true, false}) {
    for (int nodes : {2, 4}) {
      shard::ShardOptions options;
      options.nodes = nodes;
      options.vertical = vertical;
      shard::ShardedBackend sharded(barton.dataset, options);
      for (QueryId id : core::AllQueries()) {
        const uint64_t bytes = sharded.TotalNetBytes();
        const uint64_t messages = sharded.TotalNetMessages();
        (void)sharded.Run(id, ctx, exec::ExecContext(1));
        got.rows.push_back(
            {sharded.name(), ToString(id),
             std::to_string(sharded.TotalNetBytes() - bytes),
             std::to_string(sharded.TotalNetMessages() - messages)});
      }
    }
  }
  for (const std::string& diff :
       bench_support::CheckPinnedLedger("scaleout_wire", std::move(got))) {
    ADD_FAILURE() << diff;
  }
}

// SPARQL plans through the same step as ExecuteBgp (core::PlanQuery), so
// on a sharded store it ships the same forward legs: every benchmark BGP,
// written as SELECT * text, returns the same rows and charges the same
// network at every node count and coordinator. EXPLAIN plans through that
// step too, so a 2-node plan shows where its steps run.
TEST(ScaleoutNetworkTest, SparqlShipsWhatExecuteBgpShips) {
  BartonConfig config;
  config.target_triples = 20000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);
  const auto term_text = [&](const core::Term& term) {
    return term.is_var ? "?" + term.var
                       : sparql::TermText(barton.dataset, term.id);
  };
  const auto sparql_text = [&](const bench_support::NamedBgp& bgp) {
    std::string text = "SELECT * WHERE {";
    for (const core::BgpPattern& p : bgp.patterns) {
      text += " " + term_text(p.subject) + " " + term_text(p.property) + " " +
              term_text(p.object) + " .";
    }
    return text + " }";
  };
  const auto bgps = bench_support::BenchmarkBgps(ctx.vocab());

  for (int nodes : {2, 4}) {
    core::StoreOptions options;
    options.nodes = nodes;
    auto store = core::RdfStore::Open(barton.dataset, options);
    core::DistRouting* dist = store->backend().dist();
    ASSERT_NE(dist, nullptr);
    uint64_t shipped = 0;
    for (int coordinator = 0; coordinator < nodes; ++coordinator) {
      dist->SetCoordinator(coordinator);
      for (const auto& bgp : bgps) {
        const std::string text = sparql_text(bgp);
        const std::string cell = bgp.name + " at " + std::to_string(nodes) +
                                 " nodes, coordinator " +
                                 std::to_string(coordinator);
        const exec::ExecContext bgp_ectx(1);
        const exec::ExecContext sparql_ectx(1);
        auto expected = store->ExecuteBgp(bgp.patterns, bgp_ectx);
        auto got = sparql::Execute(store->backend(), barton.dataset, text,
                                   sparql_ectx, &store->stats());
        ASSERT_TRUE(expected.ok()) << cell;
        ASSERT_TRUE(got.ok()) << cell << ": " << got.status().ToString();
        EXPECT_EQ(got.value().vars, expected.value().vars) << cell;
        EXPECT_EQ(got.value().rows, expected.value().rows) << cell;
        const auto want = bgp_ectx.counters().Snap();
        const auto have = sparql_ectx.counters().Snap();
        shipped += want.net_bytes;
        EXPECT_EQ(have.net_bytes, want.net_bytes) << cell;
        EXPECT_EQ(have.net_messages, want.net_messages) << cell;
      }
    }
    EXPECT_GT(shipped, 0u) << nodes << " nodes";
    if (nodes != 2) continue;
    dist->SetCoordinator(0);
    auto parsed = sparql::Parse(sparql_text(bgps[4]));  // q5
    ASSERT_TRUE(parsed.ok());
    auto logical = sparql::BuildLogicalPlan(parsed.value(), barton.dataset);
    ASSERT_TRUE(logical.ok());
    const std::string explain = plan::ExplainText(
        core::PlanQuery(store->backend(), logical.value(),
                        store->planner_options(), exec::ExecContext(1)));
    EXPECT_TRUE(explain.find("[node ") != std::string::npos ||
                explain.find("[ship-") != std::string::npos)
        << explain;
  }
}

TEST(ScaleoutNetworkTest, NetworkModelIsOrderIndependent) {
  exec::ExecContext ectx(1);
  net::NetworkConfig config;
  net::NetworkModel forward(4, config), reverse(4, config);
  forward.Ship(0, 1, 1000, 2, ectx);
  forward.Ship(2, 3, 500, 1, ectx);
  reverse.Ship(2, 3, 500, 1, ectx);
  reverse.Ship(0, 1, 1000, 2, ectx);
  EXPECT_DOUBLE_EQ(forward.seconds(), reverse.seconds());
  EXPECT_EQ(forward.total_bytes(), reverse.total_bytes());
  EXPECT_EQ(forward.total_messages(), reverse.total_messages());
}

TEST(ScaleoutStoreTest, StoreFacadeOpensShardedColumnStore) {
  BartonConfig config;
  config.target_triples = 8000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  core::StoreOptions single;
  auto reference_store = core::RdfStore::Open(barton.dataset, single);

  core::StoreOptions scaled = single;
  scaled.nodes = 2;
  auto sharded_store = core::RdfStore::Open(barton.dataset, scaled);
  EXPECT_NE(sharded_store->backend().dist(), nullptr);
  EXPECT_EQ(sharded_store->backend().dist()->nodes(), 2);

  // Fixed benchmark queries and ad-hoc BGPs agree across the node count.
  for (QueryId id : {QueryId::kQ1, QueryId::kQ2, QueryId::kQ5}) {
    core::QueryResult expected = reference_store->Run(id, ctx);
    core::QueryResult got = sharded_store->Run(id, ctx);
    EXPECT_TRUE(expected.SameRows(got)) << ToString(id);
  }
  for (const auto& bgp : bench_support::BenchmarkBgps(ctx.vocab())) {
    auto expected = reference_store->ExecuteBgp(bgp.patterns);
    auto got = sharded_store->ExecuteBgp(bgp.patterns);
    ASSERT_TRUE(expected.ok() && got.ok()) << bgp.name;
    core::QueryResult expected_rows{expected.value().vars,
                                    expected.value().rows};
    core::QueryResult got_rows{got.value().vars, got.value().rows};
    EXPECT_TRUE(expected_rows.SameRows(got_rows)) << bgp.name;
  }
}

TEST(ScaleoutStoreTest, WritesRouteToOwningNode) {
  BartonConfig config;
  config.target_triples = 6000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  core::StoreOptions scaled;
  scaled.nodes = 4;
  auto store = core::RdfStore::Open(barton.dataset, scaled);

  const rdf::Triple existing = barton.dataset.triples().front();
  EXPECT_FALSE(store->Insert(existing).ok()) << "duplicate must be rejected";

  const uint64_t v1 = 1, v2 = 2;  // small interned ids always exist
  rdf::Triple fresh{v1, ctx.vocab().type, v2};
  if (store->Match(rdf::TriplePattern{v1, ctx.vocab().type, v2}).empty()) {
    const uint64_t before = store->snapshot_version();
    ASSERT_TRUE(store->Insert(fresh).ok());
    EXPECT_EQ(store->snapshot_version(), before + 1);
    EXPECT_EQ(store->Match(rdf::TriplePattern{v1, ctx.vocab().type, v2}).size(),
              1u);
    ASSERT_TRUE(store->Delete(fresh).ok());
    EXPECT_TRUE(
        store->Match(rdf::TriplePattern{v1, ctx.vocab().type, v2}).empty());
  }
}

// The documented direction: network (350) above disk (300) — shipping
// may charge the network, then read the destination node's disk.
void AcquireDiskUnderNetwork() SWAN_NO_THREAD_SAFETY_ANALYSIS {
  Mutex network(LockRank::kNetwork, "test.network");
  Mutex disk(LockRank::kStorageDisk, "test.disk");
  MutexLock n(&network);
  MutexLock d(&disk);
}

void AcquireNetworkUnderDisk() SWAN_NO_THREAD_SAFETY_ANALYSIS {
  Mutex network(LockRank::kNetwork, "test.network");
  Mutex disk(LockRank::kStorageDisk, "test.disk");
  MutexLock d(&disk);
  MutexLock n(&network);
}

TEST(ScaleoutLockRankTest, DiskUnderNetworkIsTheLegalDirection) {
  AcquireDiskUnderNetwork();  // must not abort
  SUCCEED();
}

TEST(ScaleoutLockRankDeathTest, NetworkUnderDiskAborts) {
  if (!LockRankChecksEnabled()) GTEST_SKIP() << "rank checks compiled out";
  EXPECT_DEATH(AcquireNetworkUnderDisk(), "lock-rank violation");
}

TEST(ScaleoutCoordinatorTest, AffinityMovesTheGatherNode) {
  BartonConfig config;
  config.target_triples = 6000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  shard::ShardOptions options;
  options.nodes = 2;
  shard::ShardedBackend sharded(barton.dataset, options);
  core::ReferenceBackend reference(barton.dataset);

  EXPECT_EQ(sharded.dist()->Coordinator(), 0);
  sharded.dist()->SetCoordinator(1);
  EXPECT_EQ(sharded.dist()->Coordinator(), 1);
  EXPECT_EQ(sharded.coordinator(), 1);

  // Results are coordinator-independent; only link attribution moves.
  core::QueryResult expected = reference.Run(QueryId::kQ2, ctx);
  core::QueryResult got = sharded.Run(QueryId::kQ2, ctx);
  EXPECT_TRUE(expected.SameRows(got));
}

}  // namespace
}  // namespace swan
