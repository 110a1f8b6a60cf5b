// Stress tests: correctness under severe buffer-pool pressure (constant
// eviction), long mixed workloads against shadow models, and nested leaf
// walks holding pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "colstore/column.h"
#include "common/random.h"
#include "core/row_backends.h"
#include "rowstore/bplus_tree.h"
#include "storage/buffer_pool.h"

namespace swan {
namespace {

// Every key of `tree`, in the order the leaf walk yields them.
template <int W>
std::vector<std::array<uint64_t, W>> AllKeys(
    const rowstore::BPlusTree<W>& tree) {
  std::vector<std::array<uint64_t, W>> out;
  tree.Walk({}, [&](const rowstore::LeafKeys<W>& keys) {
    for (size_t i = 0; i < keys.size(); ++i) out.push_back(keys[i]);
    return true;
  });
  return out;
}

TEST(BufferPoolStressTest, RandomAccessMatchesShadowModel) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t file = disk.CreateFile();
  constexpr int kPages = 200;
  for (int p = 0; p < kPages; ++p) {
    std::vector<uint8_t> page(storage::kPageSize,
                              static_cast<uint8_t>(p * 7 + 1));
    disk.AppendPage(file, page.data());
  }
  storage::BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)

  Rng rng(4);
  for (int round = 0; round < 20000; ++round) {
    const uint32_t p = static_cast<uint32_t>(rng.Uniform(kPages));
    storage::PageGuard guard = pool.Fetch({file, p});
    ASSERT_EQ(guard.data()[rng.Uniform(storage::kPageSize)],
              static_cast<uint8_t>(p * 7 + 1));
  }
  EXPECT_LE(pool.resident_pages(), 16u);
  EXPECT_GT(pool.hits(), 0u);
  EXPECT_GT(pool.misses(), 16u);  // evictions happened
  // No guards are live, so the pool's accounting must be spotless.
  const auto report = audit::Audit(pool, audit::AuditLevel::kFull);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(BufferPoolStressTest, ManyConcurrentPinsUpToCapacity) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t file = disk.CreateFile();
  for (int p = 0; p < 64; ++p) {
    std::vector<uint8_t> page(storage::kPageSize, static_cast<uint8_t>(p));
    disk.AppendPage(file, page.data());
  }
  storage::BufferPool pool(&disk, 32);  // swan-lint: allow(node-disk)
  std::vector<storage::PageGuard> pins;
  for (uint32_t p = 0; p < 31; ++p) pins.push_back(pool.Fetch({file, p}));
  // One frame left: repeated fetches of distinct pages must recycle it.
  for (uint32_t p = 31; p < 64; ++p) {
    storage::PageGuard guard = pool.Fetch({file, p});
    EXPECT_EQ(guard.data()[0], static_cast<uint8_t>(p));
  }
  // All pinned pages still intact.
  for (uint32_t p = 0; p < 31; ++p) {
    EXPECT_EQ(pins[p].data()[0], static_cast<uint8_t>(p));
  }
}

TEST(BPlusTreeStressTest, TinyPoolFullScanAndLookups) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 8);  // pathologically small  // swan-lint: allow(node-disk)
  rowstore::BPlusTree<2> tree(&pool, &disk);
  std::vector<std::array<uint64_t, 2>> keys;
  for (uint64_t i = 0; i < 60000; ++i) keys.push_back({i, i * 3});
  tree.BulkLoad(keys);

  uint64_t count = 0;
  for (const auto& key : AllKeys(tree)) {
    ASSERT_EQ(key[1], key[0] * 3);
    ++count;
  }
  EXPECT_EQ(count, 60000u);
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng.Uniform(60000);
    EXPECT_TRUE(tree.Contains({k, k * 3}));
    EXPECT_FALSE(tree.Contains({k, k * 3 + 1}));
  }
}

TEST(BPlusTreeStressTest, InterleavedIteratorsUnderEviction) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 12);  // swan-lint: allow(node-disk)
  rowstore::BPlusTree<2> tree(&pool, &disk);
  std::vector<std::array<uint64_t, 2>> keys;
  for (uint64_t i = 0; i < 20000; ++i) keys.push_back({i, 0});
  tree.BulkLoad(keys);

  // Four walks over steps [0, 4000), from keys 0, 5000, 10000 and 15000,
  // nested so each keeps its current leaf pinned while the ones inside it
  // fetch theirs and force evictions around it: inside each leaf of walk
  // w, walk w + 1 covers that leaf's steps, and the innermost walk checks
  // all four keys of every step.
  using Key = std::array<uint64_t, 2>;
  constexpr uint64_t kSteps = 4000;
  const uint64_t starts[4] = {0, 5000, 10000, 15000};
  std::vector<Key> leaf[4];    // each walk's keys for its current steps
  uint64_t leaf_step[4] = {};  // the step of leaf[w].front()
  uint64_t steps_checked = 0;
  std::function<void(int, uint64_t, uint64_t)> walk = [&](int w, uint64_t lo,
                                                          uint64_t hi) {
    uint64_t step = lo;
    tree.Walk({starts[w] + lo, 0}, [&](const rowstore::LeafKeys<2>& keys) {
      const uint64_t take = std::min<uint64_t>(keys.size(), hi - step);
      leaf[w].clear();
      for (uint64_t i = 0; i < take; ++i) leaf[w].push_back(keys[i]);
      leaf_step[w] = step;
      if (w < 3) {
        walk(w + 1, step, step + take);
      } else {
        for (uint64_t s = step; s < step + take; ++s) {
          const auto key = [&](int v) { return leaf[v][s - leaf_step[v]]; };
          EXPECT_EQ(key(0)[0], s);
          EXPECT_EQ(key(1)[0], 5000 + s);
          EXPECT_EQ(key(2)[0], 10000 + s);
          EXPECT_EQ(key(3)[0], 15000 + s);
          ++steps_checked;
        }
      }
      step += take;
      return step < hi;
    });
  };
  walk(0, 0, kSteps);
  EXPECT_EQ(steps_checked, kSteps);
}

TEST(BPlusTreeStressTest, MixedInsertAndScanAgainstShadowSet) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 64);  // swan-lint: allow(node-disk)
  rowstore::BPlusTree<3> tree(&pool, &disk);
  tree.BulkLoad({});
  std::set<std::array<uint64_t, 3>> shadow;
  Rng rng(8);
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 500; ++i) {
      const std::array<uint64_t, 3> key{rng.Uniform(300), rng.Uniform(300),
                                        rng.Uniform(4)};
      EXPECT_EQ(tree.Insert(key), shadow.insert(key).second);
    }
    // Periodic full verification.
    auto expected = shadow.begin();
    for (const auto& key : AllKeys(tree)) {
      ASSERT_NE(expected, shadow.end());
      ASSERT_EQ(key, *expected);
      ++expected;
    }
    ASSERT_EQ(expected, shadow.end());
    // Every mutation batch must leave the tree structurally sound.
    const auto report = audit::Audit(tree, audit::AuditLevel::kFull);
    ASSERT_TRUE(report.ok()) << "round " << round << "\n"
                             << report.ToString();
  }
}

TEST(ColumnStressTest, CompressedColumnsUnderTinyPool) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 8);  // swan-lint: allow(node-disk)
  Rng rng(10);
  for (auto codec : {colstore::ColumnCodec::kRaw, colstore::ColumnCodec::kRle,
                     colstore::ColumnCodec::kDelta,
                     colstore::ColumnCodec::kAuto}) {
    std::vector<uint64_t> values(50000);
    for (auto& v : values) v = rng.Uniform(100);
    std::sort(values.begin(), values.end());
    colstore::Column col(&pool, &disk, codec);
    col.Build(values);
    for (int round = 0; round < 3; ++round) {
      col.DropCache();
      pool.Clear();
      ASSERT_EQ(col.Encoded().Materialize(), values) << ToString(codec);
    }
    colstore::ColumnAuditOptions opts;
    opts.label = std::string("stress.") + ToString(codec);
    opts.expect_sorted = true;
    audit::AuditReport report;
    col.AuditInto(audit::AuditLevel::kFull, opts, &report);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST(BackendStressTest, RowBackendCorrectUnderMinimalPool) {
  bench_support::BartonConfig config;
  // Large enough that one clustered tree (~300 leaf pages) dwarfs the
  // 64-page pool, so scans genuinely thrash.
  config.target_triples = 100000;
  const auto barton = bench_support::GenerateBarton(config);
  const auto ctx = bench_support::MakeBartonContext(barton.dataset, 28);

  core::RowTripleBackend roomy(barton.dataset,
                               rowstore::TripleRelation::PsoConfig(),
                               storage::DiskConfig(), 1 << 15);
  core::RowTripleBackend cramped(barton.dataset,
                                 rowstore::TripleRelation::PsoConfig(),
                                 storage::DiskConfig(), 64);
  for (core::QueryId id : core::AllQueries()) {
    core::QueryResult a = roomy.Run(id, ctx);
    core::QueryResult b = cramped.Run(id, ctx);
    EXPECT_TRUE(a.SameRows(b)) << ToString(id);
  }
  // Same answers, but the cramped pool re-reads evicted pages: the roomy
  // pool reads every page at most once across the whole workload.
  EXPECT_GT(cramped.disk()->total_bytes_read(),
            2 * roomy.disk()->total_bytes_read());
}

}  // namespace
}  // namespace swan
