#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "core/bgp.h"
#include "core/col_backends.h"
#include "core/profiling.h"
#include "core/property_table_backend.h"
#include "core/row_backends.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/stats.h"

namespace swan {
namespace {

using bench_support::Measurement;

// ---------------------------------------------------------------------------
// Metrics primitives
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAccumulates) {
  obs::Counter c;
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.value(), 7u);
}

TEST(MetricsTest, HistogramBucketsInclusiveUpperBounds) {
  obs::Histogram h({1, 4, 16});
  h.Observe(1);   // <= 1
  h.Observe(4);   // <= 4 (inclusive)
  h.Observe(5);   // <= 16
  h.Observe(17);  // overflow
  const auto snap = h.Snap();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.total_count, 4u);
  EXPECT_EQ(snap.sum, 1u + 4u + 5u + 17u);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("a");
  obs::Counter* again = registry.GetCounter("a");
  EXPECT_EQ(a, again);
  a->Add(2);
  obs::Histogram* h = registry.GetHistogram("h", {8});
  h->Observe(3);
  const auto snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("a"), 2u);
  EXPECT_EQ(snap.histograms.at("h").total_count, 1u);
}

// Observation order must not matter: the snapshot is the same whichever
// lane got there first, which is what makes metrics width-invariant.
TEST(MetricsTest, ConcurrentObservationsAreOrderIndependent) {
  exec::SetThreads(4);
  obs::Histogram h({2, 8, 32});
  obs::Counter c;
  exec::ParallelFor(256, 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t i = b; i < e; ++i) {
      h.Observe(i % 40);
      c.Add(1);
    }
  });
  exec::SetThreads(1);
  obs::Histogram serial({2, 8, 32});
  for (uint64_t i = 0; i < 256; ++i) serial.Observe(i % 40);
  const auto par = h.Snap();
  const auto ref = serial.Snap();
  EXPECT_EQ(par.counts, ref.counts);
  EXPECT_EQ(par.sum, ref.sum);
  EXPECT_EQ(c.value(), 256u);
}

// ---------------------------------------------------------------------------
// Span mechanics (no backend, explicit sources)
// ---------------------------------------------------------------------------

TEST(TraceTest, RecordsNestedSpansWithRows) {
  double now = 0.0;
  obs::TraceSources sources;
  sources.now = [&now] { return now; };
  sources.sample = [] { return obs::CounterSample{}; };
  obs::TraceSession session("root", sources, 1);
  {
    obs::Span outer(&session, "outer");
    outer.set_rows_in(10);
    now = 1.0;
    {
      obs::Span inner(&session, "inner");
      now = 3.0;
      inner.set_rows_out(5);
    }
    outer.set_rows_out(7);
  }
  session.Finish(0.25);
  const obs::SpanNode& root = session.root();
  ASSERT_EQ(root.children.size(), 1u);
  const obs::SpanNode& outer = *root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.rows_in, 10u);
  EXPECT_EQ(outer.rows_out, 7u);
  EXPECT_DOUBLE_EQ(outer.vt_seconds(), 3.0);
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0]->name, "inner");
  EXPECT_DOUBLE_EQ(outer.children[0]->vt_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(outer.ExclusiveVtSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(session.RootRealSeconds(), 0.25 + 3.0);
}

TEST(TraceTest, NullSessionSpanIsInert) {
  obs::Span span(nullptr, "nothing");
  EXPECT_FALSE(span.active());
  span.set_rows_in(1);
  span.set_rows_out(1);  // must not crash
}

TEST(TraceTest, SpansInsideParallelRegionsAreSuppressed) {
  obs::TraceSources sources;
  sources.now = [] { return 0.0; };
  sources.sample = [] { return obs::CounterSample{}; };
  obs::TraceSession session("root", sources, 4);
  exec::SetThreads(4);
  exec::ParallelFor(8, 1, [&](uint64_t, uint64_t, uint64_t) {
    obs::Span span(&session, "worker");
    EXPECT_FALSE(span.active());
  });
  exec::SetThreads(1);
  // The inline serial path of a region counts as "inside" too — the tree
  // shape is a function of call structure, not of the thread budget.
  exec::ParallelFor(8, 1, [&](uint64_t, uint64_t, uint64_t) {
    obs::Span span(&session, "inline");
    EXPECT_FALSE(span.active());
  });
  session.Finish(0.0);
  EXPECT_TRUE(session.root().children.empty());
}

// ---------------------------------------------------------------------------
// End-to-end profiles over the benchmark backends
// ---------------------------------------------------------------------------

class ObsProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_support::BartonConfig config;
    config.target_triples = 30000;
    barton_ = bench_support::GenerateBarton(config);
    ctx_ = std::make_unique<core::QueryContext>(
        bench_support::MakeBartonContext(barton_.dataset, 28));
    exec::SetThreads(8);
  }
  void TearDown() override { exec::SetThreads(1); }

  // "name(child,child,...)" — the structural fingerprint of a span tree.
  static std::string Shape(const obs::SpanNode& node) {
    std::string out = node.name;
    out += '(';
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (i) out += ',';
      out += Shape(*node.children[i]);
    }
    out += ')';
    return out;
  }

  bench_support::BartonDataset barton_;
  std::unique_ptr<core::QueryContext> ctx_;
};

// Acceptance: the profile's root-span modeled real time equals the
// harness's Measurement::real_seconds to within 1e-9, cold and hot, on a
// column-store and a row-store backend.
TEST_F(ObsProfileTest, RootRealSecondsMatchesMeasurement) {
  core::ColVerticalBackend col(barton_.dataset);
  core::RowTripleBackend row(barton_.dataset,
                             rowstore::TripleRelation::PsoConfig());
  const exec::ExecContext ectx(8);
  for (core::BackendBase* backend :
       {static_cast<core::BackendBase*>(&col),
        static_cast<core::BackendBase*>(&row)}) {
    const Measurement cold = bench_support::MeasureColdProfiled(
        backend, core::QueryId::kQ2, *ctx_, ectx, 1);
    ASSERT_NE(cold.profile, nullptr) << backend->name();
    EXPECT_LT(std::abs(cold.profile->RootRealSeconds() - cold.real_seconds),
              1e-9)
        << backend->name();
    EXPECT_GT(cold.profile->root().bytes(), 0u) << backend->name();

    const Measurement hot = bench_support::MeasureHotProfiled(
        backend, core::QueryId::kQ2, *ctx_, ectx, 1);
    ASSERT_NE(hot.profile, nullptr) << backend->name();
    EXPECT_LT(std::abs(hot.profile->RootRealSeconds() - hot.real_seconds),
              1e-9)
        << backend->name();
  }
}

// Acceptance: the span-tree shape is identical at 1, 2, and 8 threads —
// parallelism changes durations, never structure.
TEST_F(ObsProfileTest, SpanTreeShapeInvariantAcrossWidths) {
  core::ColVerticalBackend col(barton_.dataset);
  core::RowTripleBackend row(barton_.dataset,
                             rowstore::TripleRelation::PsoConfig());
  core::RowVerticalBackend row_vert(barton_.dataset);
  core::PropertyTableBackend property_table(barton_.dataset, 20);
  const std::vector<core::QueryId> queries = {
      core::QueryId::kQ1, core::QueryId::kQ2, core::QueryId::kQ5,
      core::QueryId::kQ2Star, core::QueryId::kQ6Star};
  for (core::BackendBase* backend :
       {static_cast<core::BackendBase*>(&col),
        static_cast<core::BackendBase*>(&row),
        static_cast<core::BackendBase*>(&row_vert),
        static_cast<core::BackendBase*>(&property_table)}) {
    for (core::QueryId q : queries) {
      if (!backend->Supports(q)) continue;
      std::string reference;
      for (int width : {1, 2, 8}) {
        const exec::ExecContext ectx(width);
        const Measurement m = bench_support::MeasureColdProfiled(
            backend, q, *ctx_, ectx, 1);
        ASSERT_NE(m.profile, nullptr);
        const std::string shape = Shape(m.profile->root());
        if (width == 1) {
          reference = shape;
          EXPECT_NE(shape.find('('), std::string::npos);
        } else {
          EXPECT_EQ(shape, reference)
              << backend->name() << " " << core::ToString(q) << " width "
              << width;
        }
      }
    }
  }
}

// Every row engine's query root span carries the rows the query returned,
// so the text/JSON profile and the profile aggregator report them.
TEST_F(ObsProfileTest, RowEngineRootSpanReportsRowsOut) {
  core::RowTripleBackend row_triple(barton_.dataset,
                                    rowstore::TripleRelation::PsoConfig());
  core::RowVerticalBackend row_vert(barton_.dataset);
  core::PropertyTableBackend property_table(barton_.dataset, 20);
  const exec::ExecContext ectx(8);
  for (core::BackendBase* backend :
       {static_cast<core::BackendBase*>(&row_triple),
        static_cast<core::BackendBase*>(&row_vert),
        static_cast<core::BackendBase*>(&property_table)}) {
    for (core::QueryId q : core::AllQueries()) {
      const Measurement m =
          bench_support::MeasureColdProfiled(backend, q, *ctx_, ectx, 1);
      ASSERT_NE(m.profile, nullptr);
      const obs::SpanNode& session = m.profile->root();
      ASSERT_EQ(session.children.size(), 1u)
          << backend->name() << " " << core::ToString(q);
      EXPECT_GT(m.rows_returned, 0u)
          << backend->name() << " " << core::ToString(q);
      EXPECT_EQ(session.children[0]->rows_out, m.rows_returned)
          << backend->name() << " " << core::ToString(q) << " span "
          << session.children[0]->name;
    }
  }
}

// Acceptance: at a fixed width the deterministic exporters are
// byte-identical run-to-run — same spans, same virtual times, same
// metrics, same lane tracks.
TEST_F(ObsProfileTest, ProfileByteIdenticalAcrossRuns) {
  core::ColVerticalBackend col(barton_.dataset);
  core::RowTripleBackend row(barton_.dataset,
                             rowstore::TripleRelation::PsoConfig());
  const exec::ExecContext ectx(8);
  for (core::BackendBase* backend :
       {static_cast<core::BackendBase*>(&col),
        static_cast<core::BackendBase*>(&row)}) {
    const Measurement a = bench_support::MeasureColdProfiled(
        backend, core::QueryId::kQ2, *ctx_, ectx, 1);
    const Measurement b = bench_support::MeasureColdProfiled(
        backend, core::QueryId::kQ2, *ctx_, ectx, 1);
    ASSERT_NE(a.profile, nullptr);
    ASSERT_NE(b.profile, nullptr);
    EXPECT_EQ(obs::ProfileJson(*a.profile, /*include_host_time=*/false),
              obs::ProfileJson(*b.profile, /*include_host_time=*/false))
        << backend->name();
    EXPECT_EQ(obs::ChromeTraceJson(*a.profile),
              obs::ChromeTraceJson(*b.profile))
        << backend->name();
  }
}

// The Chrome export names one track per lane of the context's budget.
TEST_F(ObsProfileTest, ChromeTraceHasOneTrackPerLane) {
  core::ColVerticalBackend col(barton_.dataset);
  const exec::ExecContext ectx(4);
  const Measurement m = bench_support::MeasureColdProfiled(
      &col, core::QueryId::kQ2Star, *ctx_, ectx, 1);
  ASSERT_NE(m.profile, nullptr);
  EXPECT_EQ(m.profile->threads(), 4);
  const std::string json = obs::ChromeTraceJson(*m.profile);
  for (int lane = 0; lane < 4; ++lane) {
    const std::string track =
        "\"name\":\"lane " + std::to_string(lane) + " I/O\"";
    EXPECT_NE(json.find(track), std::string::npos) << track;
  }
  EXPECT_EQ(json.find("\"name\":\"lane 4 I/O\""), std::string::npos);
}

// Buffer-pool and disk totals land in the metrics registry, and the hit
// ratio behaves: a cold run misses, the hot rerun of the same query hits.
TEST_F(ObsProfileTest, BufferPoolMetricsReflectCacheState) {
  core::RowTripleBackend row(barton_.dataset,
                             rowstore::TripleRelation::PsoConfig());
  const exec::ExecContext ectx(1);
  const Measurement cold = bench_support::MeasureColdProfiled(
      &row, core::QueryId::kQ1, *ctx_, ectx, 1);
  ASSERT_NE(cold.profile, nullptr);
  const auto cold_snap = cold.profile->metrics().Snap();
  EXPECT_GT(cold_snap.counters.at("buffer_pool.misses"), 0u);
  EXPECT_GT(cold_snap.counters.at("disk.bytes_read"), 0u);

  const Measurement hot = bench_support::MeasureHotProfiled(
      &row, core::QueryId::kQ1, *ctx_, ectx, 1);
  ASSERT_NE(hot.profile, nullptr);
  const auto hot_snap = hot.profile->metrics().Snap();
  EXPECT_EQ(hot_snap.counters.at("disk.bytes_read"), 0u);
  EXPECT_GT(hot_snap.counters.at("buffer_pool.hits"), 0u);
}

// The BGP batch-size histogram observes the logical batch split, a pure
// function of the binding counts — so serial and 8-wide runs produce the
// same distribution, and the merge side of the metrics surface stays
// width-invariant.
TEST_F(ObsProfileTest, BgpBatchHistogramWidthInvariant) {
  core::ColVerticalBackend col(barton_.dataset);
  const auto& vocab = ctx_->vocab();
  const std::vector<core::BgpPattern> query = {
      {core::Term::Var("s"), core::Term::Const(vocab.origin),
       core::Term::Var("o")},
      {core::Term::Var("s"), core::Term::Const(vocab.type),
       core::Term::Var("t")}};
  const plan::StoreStats stats = plan::StoreStats::Collect(barton_.dataset);

  auto run = [&](int width) {
    const exec::ExecContext ectx(width);
    core::ScopedProfile scoped("bgp", col, ectx);
    auto result = core::ExecuteBgp(
        col, query, ectx,
        plan::PlannerOptions{plan::PlanMode::kCostBased, &stats,
                             col.PlannerHints()});
    EXPECT_TRUE(result.ok());
    return scoped.Finish();
  };
  const auto serial = run(1);
  const auto wide = run(8);
  const auto s = serial->metrics().Snap();
  const auto w = wide->metrics().Snap();
  ASSERT_TRUE(s.histograms.count("bgp.batch_rows"));
  ASSERT_TRUE(w.histograms.count("bgp.batch_rows"));
  EXPECT_EQ(s.histograms.at("bgp.batch_rows").counts,
            w.histograms.at("bgp.batch_rows").counts);
  EXPECT_EQ(s.histograms.at("bgp.batch_rows").sum,
            w.histograms.at("bgp.batch_rows").sum);
}

// TextProfile renders the tree and the metrics; the profiled shell path
// leans on this output, so pin the load-bearing pieces.
TEST_F(ObsProfileTest, TextProfileContainsTreeAndMetrics) {
  core::ColVerticalBackend col(barton_.dataset);
  const exec::ExecContext ectx(2);
  const Measurement m = bench_support::MeasureColdProfiled(
      &col, core::QueryId::kQ2, *ctx_, ectx, 1);
  ASSERT_NE(m.profile, nullptr);
  const std::string text = obs::TextProfile(*m.profile);
  EXPECT_NE(text.find("modeled real"), std::string::npos);
  EXPECT_NE(text.find("col_vert.q2_family"), std::string::npos);
  EXPECT_NE(text.find("metrics:"), std::string::npos);
  EXPECT_NE(text.find("disk.bytes_read"), std::string::npos);
}

}  // namespace
}  // namespace swan
