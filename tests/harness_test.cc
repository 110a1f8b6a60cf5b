#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_support/barton_generator.h"
#include "bench_support/designs.h"
#include "bench_support/harness.h"
#include "core/col_backends.h"
#include "core/row_backends.h"

namespace swan::bench_support {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BartonConfig config;
    config.target_triples = 30000;
    barton_ = GenerateBarton(config);
  }

  BartonDataset barton_;
};

TEST_F(HarnessTest, ColdRunsReadFromDisk) {
  core::ColVerticalBackend backend(barton_.dataset);
  const auto ctx = MakeBartonContext(barton_.dataset, 28);
  const Measurement cold =
      MeasureCold(&backend, core::QueryId::kQ1, ctx, /*repetitions=*/2);
  EXPECT_GT(cold.bytes_read, 0u);
  EXPECT_GT(cold.real_seconds, cold.user_seconds);
  EXPECT_GT(cold.rows_returned, 0u);
}

TEST_F(HarnessTest, HotRunsAreCacheResident) {
  core::ColVerticalBackend backend(barton_.dataset);
  const auto ctx = MakeBartonContext(barton_.dataset, 28);
  const Measurement hot =
      MeasureHot(&backend, core::QueryId::kQ1, ctx, /*repetitions=*/2);
  EXPECT_EQ(hot.bytes_read, 0u);  // warm-up loaded everything
  EXPECT_NEAR(hot.real_seconds, hot.user_seconds, 1e-9);
}

TEST_F(HarnessTest, ColdIsSlowerThanHotInRealTime) {
  core::ColTripleBackend backend(barton_.dataset, rdf::TripleOrder::kPSO);
  const auto ctx = MakeBartonContext(barton_.dataset, 28);
  const Measurement cold = MeasureCold(&backend, core::QueryId::kQ2, ctx, 2);
  const Measurement hot = MeasureHot(&backend, core::QueryId::kQ2, ctx, 2);
  EXPECT_GT(cold.real_seconds, hot.real_seconds);
}

TEST_F(HarnessTest, RowBackendColdReadsThroughBufferPool) {
  core::RowTripleBackend backend(barton_.dataset,
                                 rowstore::TripleRelation::PsoConfig());
  const auto ctx = MakeBartonContext(barton_.dataset, 28);
  const Measurement cold = MeasureCold(&backend, core::QueryId::kQ1, ctx, 1);
  EXPECT_GT(cold.bytes_read, 0u);
  const Measurement hot = MeasureHot(&backend, core::QueryId::kQ1, ctx, 1);
  EXPECT_EQ(hot.bytes_read, 0u);
}

TEST_F(HarnessTest, VerifyBackendsAgreeAcceptsAgreeingBackends) {
  const auto a = OpenDesign(barton_.dataset, "MonetDB vert. SO");
  const auto b = OpenDesign(barton_.dataset, "MonetDB triple PSO");
  const auto ctx = MakeBartonContext(barton_.dataset, 28);
  const auto rows = VerifyBackendsAgree(
      {a.get(), b.get()}, {core::QueryId::kQ1, core::QueryId::kQ5}, ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_GT(rows[0], 0u);
}

TEST_F(HarnessTest, StddevIsSmallRelativeToColdMean) {
  core::ColVerticalBackend backend(barton_.dataset);
  const auto ctx = MakeBartonContext(barton_.dataset, 28);
  const Measurement cold =
      MeasureCold(&backend, core::QueryId::kQ2, ctx, /*repetitions=*/3);
  EXPECT_GE(cold.real_stddev, 0.0);
  // The simulated I/O part is deterministic, so run-to-run noise is only
  // CPU jitter — the paper's "<30 ms of seconds-long runs" observation.
  EXPECT_LT(cold.real_stddev, cold.real_seconds);
}

TEST(EnvU64Test, ParsesAndFallsBack) {
  ::setenv("SWAN_TEST_ENV_U64", "12345", 1);
  EXPECT_EQ(EnvU64("SWAN_TEST_ENV_U64", 7), 12345u);
  ::setenv("SWAN_TEST_ENV_U64", "0", 1);
  EXPECT_EQ(EnvU64("SWAN_TEST_ENV_U64", 7), 0u);
  // A set value that is not a whole decimal number exits rather than run a
  // bench at a scale nobody asked for (a prefix parse reads "2e5" as 2).
  for (const char* bad : {"notanumber", "2e5", "20k", "-1", " 5"}) {
    ::setenv("SWAN_TEST_ENV_U64", bad, 1);
    EXPECT_EXIT(EnvU64("SWAN_TEST_ENV_U64", 7), ::testing::ExitedWithCode(2),
                "invalid SWAN_TEST_ENV_U64 value")
        << bad;
  }
  ::setenv("SWAN_TEST_ENV_U64", "", 1);
  EXPECT_EQ(EnvU64("SWAN_TEST_ENV_U64", 7), 7u);
  ::unsetenv("SWAN_TEST_ENV_U64");
  EXPECT_EQ(EnvU64("SWAN_TEST_ENV_U64", 7), 7u);
}

// The paper's central cold-run asymmetry: the column triple-store must
// read the whole triples table for q1 while the vertical scheme reads only
// the partitions the query touches.
TEST_F(HarnessTest, VerticalReadsLessThanTripleStoreOnColdQ1) {
  const auto triple = OpenDesign(barton_.dataset, "MonetDB triple PSO");
  const auto vertical = OpenDesign(barton_.dataset, "MonetDB vert. SO");
  const auto ctx = MakeBartonContext(barton_.dataset, 28);
  const Measurement triple_cold =
      MeasureCold(triple.get(), core::QueryId::kQ1, ctx, 1);
  const Measurement vertical_cold =
      MeasureCold(vertical.get(), core::QueryId::kQ1, ctx, 1);
  EXPECT_LT(vertical_cold.bytes_read, triple_cold.bytes_read);
}

}  // namespace
}  // namespace swan::bench_support
