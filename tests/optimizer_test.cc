// Conformance tests for the statistics-driven cost-based planner: the
// plan it picks must never cost more than the hand-wired textual order
// (match calls and modeled disk bytes, on every backend, on every
// benchmark BGP), the run-time scan-join must pay off where it fires,
// and the widened SPARQL surface (FILTER / OPTIONAL / UNION /
// OFFSET) must agree with the naive reference backend at every thread
// width.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/ledger.h"
#include "bench_support/query_bgps.h"
#include "core/col_backends.h"
#include "core/property_table_backend.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"
#include "core/store.h"
#include "exec/exec_context.h"
#include "plan/optimizer.h"
#include "plan/physical.h"
#include "plan/stats.h"
#include "shard/sharded_backend.h"
#include "sparql/sparql.h"

namespace swan {
namespace {

struct RunCost {
  std::vector<std::vector<uint64_t>> rows;  // sorted binding rows
  uint64_t match_calls = 0;
  uint64_t cold_bytes = 0;
};

RunCost RunWithMode(core::Backend* backend,
                    const std::vector<core::BgpPattern>& patterns,
                    const plan::PlannerOptions& options) {
  backend->DropCaches();
  const uint64_t bytes_before = backend->disk()->total_bytes_read();
  const exec::ExecContext ectx(1);
  auto result = core::ExecuteBgp(*backend, patterns, ectx, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunCost cost;
  if (result.ok()) cost.rows = std::move(result.value().rows);
  std::sort(cost.rows.begin(), cost.rows.end());
  cost.match_calls = ectx.counters().Snap().match_calls;
  cost.cold_bytes = backend->disk()->total_bytes_read() - bytes_before;
  return cost;
}

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.target_triples = 20000;
    barton_ = bench_support::GenerateBarton(config_);
    auto vocab = core::Vocabulary::Resolve(barton_.dataset);
    ASSERT_TRUE(vocab.ok()) << vocab.status().ToString();
    vocab_ = vocab.value();
    stats_ = plan::StoreStats::Collect(barton_.dataset);
  }

  plan::PlannerOptions CostOptions(const core::Backend& backend) const {
    plan::PlannerOptions options;
    options.mode = plan::PlanMode::kCostBased;
    options.stats = &stats_;
    options.hints = backend.PlannerHints();
    return options;
  }

  static plan::PlannerOptions AsWrittenOptions() {
    plan::PlannerOptions options;
    options.mode = plan::PlanMode::kAsWritten;
    return options;
  }

  bench_support::BartonConfig config_;
  bench_support::BartonDataset barton_;
  core::Vocabulary vocab_;
  plan::StoreStats stats_;
};

TEST_F(OptimizerTest, StatsAgreeWithTheDataset) {
  EXPECT_EQ(stats_.total_triples, barton_.dataset.size());
  uint64_t by_property_sum = 0;
  for (const auto& [property, ps] : stats_.by_property) {
    by_property_sum += ps.count;
    EXPECT_GE(ps.count, ps.distinct_subjects > 0 ? 1u : 0u);
    EXPECT_LE(ps.distinct_subjects, ps.count);
    EXPECT_LE(ps.distinct_objects, ps.count);
  }
  EXPECT_EQ(by_property_sum, stats_.total_triples);
  // A property the dictionary never saw estimates to zero matches.
  EXPECT_EQ(stats_.EstimateMatches(std::nullopt, stats_.total_triples + 999,
                                   std::nullopt),
            0.0);
}

TEST_F(OptimizerTest, StatsSurviveTheStoreAudit) {
  auto store = core::RdfStore::Open(barton_.dataset, {});
  const auto report = store->Audit(audit::AuditLevel::kFull);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// The gate behind the refactor: on every benchmark BGP and every backend,
// the cost-based plan must produce the same bindings as the hand-wired
// textual order at no more Match calls, and must never regress against
// the statistics-free heuristic that shipped before the planner: at most
// its pinned Match calls, and its pinned cold bytes plus 5% and one page
// of slack for layout noise (bench/baselines/planner_heuristic_20k.csv,
// recorded on this fixture's dataset). Against the hand-wired order the
// bytes bound is structural, not tight: an indexed probe plan may read a
// secondary index the sequential baseline never touches (row PSO keeps
// five of them), so it is allowed up to one extra structure's worth of
// cold pages (2x) — bounded, never unbounded.
TEST_F(OptimizerTest, CostPlannerEqualsOrBeatsHandWiredOrderEverywhere) {
  const auto pinned = bench_support::LoadLedger(
      bench_support::BaselinePath("planner_heuristic_20k.csv"));
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  ASSERT_EQ(pinned.value().triples, config_.target_triples);
  ASSERT_EQ(pinned.value().seed, config_.seed);

  core::ColTripleBackend col_triple(barton_.dataset, rdf::TripleOrder::kPSO);
  core::ColVerticalBackend col_vert(barton_.dataset);
  core::RowTripleBackend row_triple(barton_.dataset,
                                    rowstore::TripleRelation::PsoConfig());
  core::RowVerticalBackend row_vert(barton_.dataset);
  std::vector<core::Backend*> backends = {&col_triple, &col_vert, &row_triple,
                                          &row_vert};

  for (core::Backend* backend : backends) {
    for (const auto& bgp : bench_support::BenchmarkBgps(vocab_)) {
      SCOPED_TRACE(backend->name() + " " + bgp.name);
      const RunCost as_written =
          RunWithMode(backend, bgp.patterns, AsWrittenOptions());
      const auto heuristic_calls =
          pinned.value().Count({backend->name(), bgp.name}, "match_calls");
      const auto heuristic_bytes =
          pinned.value().Count({backend->name(), bgp.name}, "cold_bytes");
      ASSERT_TRUE(heuristic_calls && heuristic_bytes);
      const RunCost cost =
          RunWithMode(backend, bgp.patterns, CostOptions(*backend));
      EXPECT_EQ(cost.rows, as_written.rows);
      EXPECT_LE(cost.match_calls, as_written.match_calls);
      EXPECT_LE(cost.match_calls, *heuristic_calls);
      EXPECT_LE(cost.cold_bytes,
                *heuristic_bytes + *heuristic_bytes / 20 + 4096);
      EXPECT_LE(cost.cold_bytes, as_written.cold_bytes * 2 + 4096);
    }
  }
}

// The run-time join on a same-subject star whose arms all bind fresh
// variables: arms whose extent is cheaper to read once than to probe per
// binding row run as scan-joins, the rest stay probes. The plan must run
// at least one scan-join and strictly reduce Match calls without changing
// the bindings; the as-written plan carries no extents and only probes.
TEST_F(OptimizerTest, ScanJoinFiresOnAllVarStarAndReducesMatchCalls) {
  core::ColVerticalBackend backend(barton_.dataset);
  const std::vector<core::BgpPattern> star = {
      {core::Term::Var("s"), core::Term::Const(vocab_.point),
       core::Term::Var("w")},
      {core::Term::Var("s"), core::Term::Const(vocab_.encoding),
       core::Term::Var("e")},
      {core::Term::Var("s"), core::Term::Const(vocab_.type),
       core::Term::Var("t")},
  };

  const exec::ExecContext as_written_ectx(1);
  auto as_written = core::ExecuteBgp(backend, star, as_written_ectx,
                                     AsWrittenOptions());
  ASSERT_TRUE(as_written.ok());
  EXPECT_EQ(as_written_ectx.counters().Snap().star_gathers, 0u);

  const exec::ExecContext cost_ectx(1);
  auto cost = core::ExecuteBgp(backend, star, cost_ectx,
                               CostOptions(backend));
  ASSERT_TRUE(cost.ok());
  EXPECT_GE(cost_ectx.counters().Snap().star_gathers, 1u);
  EXPECT_LT(cost_ectx.counters().Snap().match_calls,
            as_written_ectx.counters().Snap().match_calls);

  auto sorted = [](std::vector<std::vector<uint64_t>> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(sorted(cost.value().rows), sorted(as_written.value().rows));
}

// The serve workload's type_lang_star shape with its Zipf-top class:
//   ?s <type> <top> . ?s <language> ?l
// The planner's per-class estimate is uniform, so it undershoots the
// bindings of the most frequent class; the run-time choice still sees the
// actual row count and joins <language> in one pass. Every engine must
// answer with exactly two Match calls — one per pattern — and one
// scan-join step, and agree with the reference at widths 1 and 8.
TEST_F(OptimizerTest, TopClassStarRunsAsScanJoinOnEveryBackend) {
  std::map<uint64_t, uint64_t> class_counts;
  for (const rdf::Triple& t : barton_.dataset.triples()) {
    if (t.property == vocab_.type) ++class_counts[t.object];
  }
  const uint64_t top =
      std::max_element(class_counts.begin(), class_counts.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->first;
  const std::vector<core::BgpPattern> star = {
      {core::Term::Var("s"), core::Term::Const(vocab_.type),
       core::Term::Const(top)},
      {core::Term::Var("s"), core::Term::Const(vocab_.language),
       core::Term::Var("l")},
  };

  core::ReferenceBackend reference(barton_.dataset);
  auto expected = core::ExecuteBgp(reference, star, exec::ExecContext(1),
                                   CostOptions(reference));
  ASSERT_TRUE(expected.ok());
  std::sort(expected.value().rows.begin(), expected.value().rows.end());
  ASSERT_GT(expected.value().rows.size(), 100u);

  std::vector<std::unique_ptr<core::Backend>> backends;
  backends.push_back(std::make_unique<core::RowTripleBackend>(
      barton_.dataset, rowstore::TripleRelation::SpoConfig()));
  backends.push_back(std::make_unique<core::RowTripleBackend>(
      barton_.dataset, rowstore::TripleRelation::PsoConfig()));
  backends.push_back(
      std::make_unique<core::RowVerticalBackend>(barton_.dataset));
  backends.push_back(
      std::make_unique<core::PropertyTableBackend>(barton_.dataset));
  backends.push_back(std::make_unique<core::ColTripleBackend>(
      barton_.dataset, rdf::TripleOrder::kPSO));
  backends.push_back(
      std::make_unique<core::ColVerticalBackend>(barton_.dataset));
  for (int nodes : {2, 4}) {
    shard::ShardOptions options;
    options.nodes = nodes;
    backends.push_back(
        std::make_unique<shard::ShardedBackend>(barton_.dataset, options));
  }

  for (const auto& backend : backends) {
    for (int width : {1, 8}) {
      SCOPED_TRACE(backend->name() + " width " + std::to_string(width));
      const exec::ExecContext ectx(width);
      auto got =
          core::ExecuteBgp(*backend, star, ectx, CostOptions(*backend));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::sort(got.value().rows.begin(), got.value().rows.end());
      EXPECT_EQ(got.value().rows, expected.value().rows);
      EXPECT_EQ(ectx.counters().Snap().match_calls, 2u);
      EXPECT_EQ(ectx.counters().Snap().star_gathers, 1u);
    }
  }
}

TEST_F(OptimizerTest, CostModeAnnotatesEstimates) {
  core::ColVerticalBackend backend(barton_.dataset);
  const auto bgps = bench_support::BenchmarkBgps(vocab_);
  const auto physical = plan::Optimize(plan::BuildBgpLogical(bgps[4].patterns),
                                       CostOptions(backend));
  ASSERT_EQ(physical.branches.size(), 1u);
  for (const auto& step : physical.branches[0].steps) {
    EXPECT_GE(step.est_out, 0.0);
  }
  EXPECT_NE(physical.mode_note.find("cost-based"), std::string::npos);
  const std::string text = plan::ExplainText(physical);
  EXPECT_NE(text.find("plan:"), std::string::npos);
  EXPECT_NE(text.find("est"), std::string::npos);
  // Constant-property steps carry the extent the run-time join weighs.
  EXPECT_NE(text.find(", extent "), std::string::npos);
}

// Ordering by cost needs statistics; planning without them is a caller
// bug, not a quieter plan.
TEST_F(OptimizerTest, CostModeWithoutStatsDies) {
  const auto bgps = bench_support::BenchmarkBgps(vocab_);
  const plan::LogicalPlan logical = plan::BuildBgpLogical(bgps[1].patterns);
  for (plan::PlanMode mode :
       {plan::PlanMode::kCostBased, plan::PlanMode::kWorstOrder}) {
    plan::PlannerOptions options;
    options.mode = mode;  // no stats attached
    EXPECT_DEATH((void)plan::Optimize(logical, options),
                 "without statistics");
  }
}

TEST_F(OptimizerTest, UnsatisfiablePatternConstantFoldsToEmpty) {
  std::vector<core::BgpPattern> patterns = {
      {core::Term::Var("s"), core::Term::Const(vocab_.type),
       core::Term::Var("t")}};
  plan::BgpPattern dead;
  dead.subject = plan::Term::Var("s");
  dead.property = plan::Term::Const(0);
  dead.object = plan::Term::Var("o");
  auto scan = plan::MakeScan(std::move(dead), /*unsatisfiable=*/true);
  std::vector<std::unique_ptr<plan::LogicalNode>> scans;
  scans.push_back(plan::MakeScan(
      plan::BgpPattern{plan::Term::Var("s"), plan::Term::Const(vocab_.type),
                       plan::Term::Var("t")}));
  scans.push_back(std::move(scan));
  plan::LogicalPlan logical;
  logical.root = plan::MakeJoin(std::move(scans));
  core::ColVerticalBackend backend(barton_.dataset);
  const auto physical = plan::Optimize(logical, CostOptions(backend));
  ASSERT_EQ(physical.branches.size(), 1u);
  EXPECT_TRUE(physical.branches[0].always_empty);

  const exec::ExecContext ectx(1);
  auto result = core::ExecutePlan(backend, physical, ectx);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().rows.empty());
  // Constant folding means no Match call was ever issued.
  EXPECT_EQ(ectx.counters().Snap().match_calls, 0u);
}

// --- SPARQL surface conformance vs the reference backend ----------------

// The widened language forms, executed cost-based on an optimized backend
// and on the naive reference, must agree row-for-row at one and at eight
// threads.
TEST_F(OptimizerTest, WidenedSparqlAgreesWithReferenceAtEveryWidth) {
  const std::vector<std::string> queries = {
      // FILTER: identity inequality over an object variable.
      "SELECT ?s ?t WHERE { ?s <type> ?t . FILTER(?t != <Text>) }",
      // FILTER IN.
      "SELECT ?s WHERE { ?s <type> ?t . FILTER(?t IN (<Text>)) }",
      // OPTIONAL with a filter inside the optional group.
      "SELECT ?s ?o WHERE { ?s <type> <Text> . "
      "OPTIONAL { ?s <records> ?o } }",
      // UNION of two branches.
      "SELECT ?s WHERE { { ?s <type> <Text> } UNION "
      "{ ?s <language> <language/iso639-2b/fre> } }",
      // OFFSET composed with LIMIT and DISTINCT.
      "SELECT DISTINCT ?t WHERE { ?s <type> ?t } OFFSET 1 LIMIT 3",
  };
  core::ColVerticalBackend optimized(barton_.dataset);
  core::ReferenceBackend reference(barton_.dataset);

  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    const exec::ExecContext ref_ectx(1);
    auto expected =
        sparql::Execute(reference, barton_.dataset, query, ref_ectx, &stats_);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto key = [](sparql::QueryOutput out) {
      std::sort(out.rows.begin(), out.rows.end());
      return out.rows;
    };
    const auto want = key(expected.value());
    for (int width : {1, 8}) {
      const exec::ExecContext ectx(width);
      auto got =
          sparql::Execute(optimized, barton_.dataset, query, ectx, &stats_);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value().vars, expected.value().vars) << "width " << width;
      EXPECT_EQ(key(got.value()), want) << "width " << width;
    }
  }
}

// OFFSET/LIMIT slice a deterministic row order, so they are compared
// positionally on a single backend across widths instead of as sets.
TEST_F(OptimizerTest, OffsetIsDeterministicAcrossWidths) {
  core::ColVerticalBackend backend(barton_.dataset);
  const std::string query =
      "SELECT ?s ?t WHERE { ?s <type> ?t } OFFSET 5 LIMIT 10";
  const exec::ExecContext serial(1);
  auto baseline =
      sparql::Execute(backend, barton_.dataset, query, serial, &stats_);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline.value().rows.size(), 10u);
  const exec::ExecContext wide(8);
  auto parallel =
      sparql::Execute(backend, barton_.dataset, query, wide, &stats_);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel.value().rows.size(), baseline.value().rows.size());
  for (size_t i = 0; i < baseline.value().rows.size(); ++i) {
    EXPECT_EQ(parallel.value().rows[i], baseline.value().rows[i]);
  }
}

// A star of 65 arms binds 66 variables, more than the planner's variable
// bitmaps hold: the group runs in textual order, the mode note says so,
// and every single-node backend still answers like the reference at
// widths 1 and 8.
TEST(WideGroupTest, StarOverSixtyFourVariablesRunsAsWritten) {
  constexpr int kArms = 65;
  rdf::Dataset data;
  const auto property = [](int i) { return "<p" + std::to_string(i) + ">"; };
  for (int i = 0; i < kArms; ++i) {
    const std::string value = "\"v" + std::to_string(i) + "\"";
    data.Add("<s0>", property(i), value);
    data.Add("<s1>", property(i), value);
    if (i + 1 < kArms) data.Add("<s2>", property(i), value);  // misses one
  }
  data.Add("<s0>", property(3), "\"extra\"");  // two rows for <s0>
  const plan::StoreStats stats = plan::StoreStats::Collect(data);

  std::string query = "SELECT * WHERE {";
  for (int i = 0; i < kArms; ++i) {
    query += " ?s " + property(i) + " ?o" + std::to_string(i) + " .";
  }
  query += " }";

  core::ReferenceBackend reference(data);
  auto expected =
      sparql::Execute(reference, data, query, exec::ExecContext(1), &stats);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(expected.value().vars.size(), size_t{kArms + 1});
  EXPECT_NE(expected.value().plan_note.find("over 64 variables as written"),
            std::string::npos)
      << expected.value().plan_note;
  std::sort(expected.value().rows.begin(), expected.value().rows.end());
  ASSERT_EQ(expected.value().rows.size(), 3u);

  std::vector<std::unique_ptr<core::Backend>> backends;
  backends.push_back(
      std::make_unique<core::ColTripleBackend>(data, rdf::TripleOrder::kSPO));
  backends.push_back(
      std::make_unique<core::ColTripleBackend>(data, rdf::TripleOrder::kPSO));
  backends.push_back(std::make_unique<core::ColVerticalBackend>(data));
  backends.push_back(std::make_unique<core::RowTripleBackend>(
      data, rowstore::TripleRelation::SpoConfig()));
  backends.push_back(std::make_unique<core::RowTripleBackend>(
      data, rowstore::TripleRelation::PsoConfig()));
  backends.push_back(std::make_unique<core::RowVerticalBackend>(data));
  backends.push_back(std::make_unique<core::PropertyTableBackend>(data));
  for (const auto& backend : backends) {
    for (int width : {1, 8}) {
      SCOPED_TRACE(backend->name() + " width " + std::to_string(width));
      auto got = sparql::Execute(*backend, data, query,
                                 exec::ExecContext(width), &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value().vars, expected.value().vars);
      std::sort(got.value().rows.begin(), got.value().rows.end());
      EXPECT_EQ(got.value().rows, expected.value().rows);
    }
  }
}

}  // namespace
}  // namespace swan
