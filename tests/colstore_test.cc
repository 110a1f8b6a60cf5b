#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "colstore/column.h"
#include "colstore/ops.h"
#include "colstore/triple_table.h"
#include "colstore/vertical_table.h"
#include "common/random.h"

namespace swan::colstore {
namespace {

struct ColFixture {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool{&disk, 1 << 12};  // swan-lint: allow(node-disk)
};

TEST(ColumnTest, BuildAndGetRoundTrip) {
  ColFixture f;
  Column col(&f.pool, &f.disk);
  std::vector<uint64_t> values(5000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * i;
  col.Build(values);
  EXPECT_EQ(col.Encoded().Materialize(), values);
  EXPECT_EQ(col.size(), values.size());
}

TEST(ColumnTest, LazyLoadChargesOnceThenCaches) {
  ColFixture f;
  Column col(&f.pool, &f.disk);
  std::vector<uint64_t> values(10000, 42);
  col.Build(values);
  EXPECT_FALSE(col.loaded());
  f.disk.ResetStats();
  col.Encoded();
  const uint64_t after_first = f.disk.total_bytes_read();
  EXPECT_GT(after_first, 0u);
  col.Encoded();
  EXPECT_EQ(f.disk.total_bytes_read(), after_first);
}

TEST(ColumnTest, DropCacheForcesReload) {
  ColFixture f;
  Column col(&f.pool, &f.disk);
  col.Build(std::vector<uint64_t>(10000, 7));
  col.Encoded();
  col.DropCache();
  f.pool.Clear();
  f.disk.ResetStats();
  col.Encoded();
  EXPECT_GT(f.disk.total_bytes_read(), 0u);
}

TEST(ColumnTest, ColdLoadIsSequential) {
  ColFixture f;
  Column col(&f.pool, &f.disk);
  col.Build(std::vector<uint64_t>(100000, 1));
  col.DropCache();
  f.pool.Clear();
  f.disk.ResetStats();
  col.Encoded();
  EXPECT_LE(f.disk.total_seeks(), 2u);
}

TEST(OpsTest, SelectEqFindsAllPositions) {
  std::vector<uint64_t> col = {5, 3, 5, 1, 5};
  EXPECT_EQ(SelectEq(col, 5), (PositionVector{0, 2, 4}));
  EXPECT_TRUE(SelectEq(col, 9).empty());
}

TEST(OpsTest, SelectEqOverSelection) {
  std::vector<uint64_t> col = {5, 3, 5, 1, 5};
  const PositionVector sel = {1, 2, 3};
  EXPECT_EQ(SelectEq(col, sel, 5), (PositionVector{2}));
}

TEST(OpsTest, EqRangeSortedBinarySearches) {
  std::vector<uint64_t> col = {1, 1, 2, 2, 2, 5};
  EXPECT_EQ(EqRangeSorted(col, 2), (std::pair<uint32_t, uint32_t>{2, 5}));
  EXPECT_EQ(EqRangeSorted(col, 3), (std::pair<uint32_t, uint32_t>{5, 5}));
  EXPECT_EQ(EqRangeSorted(col, 0), (std::pair<uint32_t, uint32_t>{0, 0}));
}

TEST(OpsTest, EqRangeSorted2UsesBothColumns) {
  //   primary:   1 1 1 2 2
  //   secondary: 3 4 4 1 2
  std::vector<uint64_t> primary = {1, 1, 1, 2, 2};
  std::vector<uint64_t> secondary = {3, 4, 4, 1, 2};
  EXPECT_EQ(EqRangeSorted2(primary, secondary, 1, 4),
            (std::pair<uint32_t, uint32_t>{1, 3}));
  EXPECT_EQ(EqRangeSorted2(primary, secondary, 2, 2),
            (std::pair<uint32_t, uint32_t>{4, 5}));
}

TEST(OpsTest, GatherMaterializes) {
  std::vector<uint64_t> col = {10, 20, 30};
  EXPECT_EQ(Gather(col, {2, 0}), (std::vector<uint64_t>{30, 10}));
}

TEST(OpsTest, MarkSetMembership) {
  MarkSet marks(10);
  marks.MarkAll(std::vector<uint64_t>{1, 3});
  marks.Mark(7);
  EXPECT_TRUE(marks.Test(1));
  EXPECT_TRUE(marks.Test(7));
  EXPECT_FALSE(marks.Test(0));
  EXPECT_FALSE(marks.Test(9));
}

TEST(OpsTest, SelectMarkedFilters) {
  MarkSet marks(10);
  marks.Mark(4);
  std::vector<uint64_t> col = {4, 5, 4, 6};
  EXPECT_EQ(SelectMarked(col, marks), (PositionVector{0, 2}));
  EXPECT_EQ(SelectMarked(col, {1, 2}, marks), (PositionVector{2}));
}

TEST(OpsTest, CountByKeyDenseCountsAndOrders) {
  std::vector<uint64_t> keys = {3, 1, 3, 3, 0};
  const auto counts = CountByKeyDense(keys, 5);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], (std::pair<uint64_t, uint64_t>{0, 1}));
  EXPECT_EQ(counts[1], (std::pair<uint64_t, uint64_t>{1, 1}));
  EXPECT_EQ(counts[2], (std::pair<uint64_t, uint64_t>{3, 3}));
}

// CountPairs' oracle: a std::map count with HAVING count >= min_count.
std::vector<PairCount> MapCount(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b,
                                uint64_t min_count) {
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> counts;
  for (size_t i = 0; i < a.size(); ++i) ++counts[{a[i], b[i]}];
  std::vector<PairCount> out;
  for (const auto& [key, count] : counts) {
    if (count >= min_count) out.push_back({key.first, key.second, count});
  }
  return out;
}

void ExpectSameGroups(const std::vector<PairCount>& got,
                      const std::vector<PairCount>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << what << " group " << i;
    EXPECT_EQ(got[i].b, want[i].b) << what << " group " << i;
    EXPECT_EQ(got[i].count, want[i].count) << what << " group " << i;
  }
}

TEST(OpsTest, CountPairsGroups) {
  std::vector<uint64_t> a = {1, 1, 2, 1};
  std::vector<uint64_t> b = {9, 9, 9, 8};
  const auto groups = CountPairs(a, b, 10, 1);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].a, 1u);
  EXPECT_EQ(groups[0].b, 8u);
  EXPECT_EQ(groups[0].count, 1u);
  EXPECT_EQ(groups[1].b, 9u);
  EXPECT_EQ(groups[1].count, 2u);
  EXPECT_EQ(groups[2].a, 2u);
  // HAVING count >= 2 keeps only (1, 9).
  const auto having = CountPairs(a, b, 10, 2);
  ASSERT_EQ(having.size(), 1u);
  EXPECT_EQ(having[0].a, 1u);
  EXPECT_EQ(having[0].b, 9u);
  EXPECT_EQ(having[0].count, 2u);
}

TEST(OpsTest, CountPairsEmptyInput) {
  const std::vector<uint64_t> none;
  for (int threads : {1, 2, 8}) {
    EXPECT_TRUE(CountPairs(none, none, 10, 1, exec::ExecContext(threads))
                    .empty());
  }
}

// q3-shaped input, large enough that wide contexts shard the buckets: a
// few hundred properties with skewed sizes, per-subject rows, objects
// drawn from a narrow and a wide range so that groups of every size
// occur, and both ends of the id space (0 and dict_size - 1) as property
// and object. Each order must give the map's groups at every width.
TEST(OpsTest, CountPairsMatchesMapCountInEveryOrder) {
  constexpr uint64_t kDict = 50000;
  Rng rng(11);
  std::vector<std::pair<uint64_t, uint64_t>> by_subject;  // subject order
  for (uint64_t s = 0; s < 6000; ++s) {
    const uint64_t rows = 1 + rng.Uniform(12);
    for (uint64_t r = 0; r < rows; ++r) {
      const uint64_t skew = rng.Uniform(4) == 0 ? rng.Uniform(300) : 0;
      const uint64_t p = 100 + skew + rng.Uniform(8);
      const uint64_t o =
          rng.Uniform(2) == 0 ? 1000 + rng.Uniform(64) : rng.Uniform(kDict);
      by_subject.emplace_back(p, o);
    }
  }
  by_subject.emplace_back(0, kDict - 1);
  by_subject.emplace_back(kDict - 1, 0);
  by_subject.emplace_back(kDict - 1, 0);
  by_subject.emplace_back(kDict - 1, kDict - 1);
  ASSERT_GT(by_subject.size(), 4u * 8192u);

  auto grouped = by_subject;
  std::stable_sort(grouped.begin(), grouped.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });
  auto shuffled = by_subject;
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.Uniform(i + 1)]);
  }
  const std::vector<std::pair<std::string, decltype(grouped)>> orders = {
      {"grouped", grouped}, {"shuffled", shuffled}, {"subject", by_subject}};
  for (const auto& [name, pairs] : orders) {
    std::vector<uint64_t> a;
    std::vector<uint64_t> b;
    for (const auto& [p, o] : pairs) {
      a.push_back(p);
      b.push_back(o);
    }
    for (uint64_t min_count : {1, 2}) {
      const std::vector<PairCount> want = MapCount(a, b, min_count);
      for (int threads : {1, 2, 8}) {
        ExpectSameGroups(
            CountPairs(a, b, kDict, min_count, exec::ExecContext(threads)),
            want,
            name + " min " + std::to_string(min_count) + " width " +
                std::to_string(threads));
      }
    }
  }
}

TEST(OpsTest, MergeJoinHandlesDuplicatesOnBothSides) {
  std::vector<uint64_t> left = {1, 2, 2, 4};
  std::vector<uint64_t> right = {2, 2, 3, 4, 4};
  const auto pairs = MergeJoin(left, right);
  // 2x2 cross product for value 2, 1x2 for value 4.
  EXPECT_EQ(pairs.size(), 6u);
  int count2 = 0, count4 = 0;
  for (const auto& [l, r] : pairs) {
    EXPECT_EQ(left[l], right[r]);
    if (left[l] == 2) ++count2;
    if (left[l] == 4) ++count4;
  }
  EXPECT_EQ(count2, 4);
  EXPECT_EQ(count4, 2);
}

TEST(OpsTest, MergeJoinEmptyInputs) {
  std::vector<uint64_t> some = {1, 2};
  EXPECT_TRUE(MergeJoin({}, some).empty());
  EXPECT_TRUE(MergeJoin(some, {}).empty());
}

TEST(OpsTest, MergeCountMatchesCountsDuplicates) {
  std::vector<uint64_t> values = {1, 2, 2, 2, 5, 7};
  std::vector<uint64_t> keys = {2, 5, 6};
  EXPECT_EQ(MergeCountMatches(values, keys), 4u);
}

TEST(OpsTest, MergeSelectPositionsFindsAll) {
  std::vector<uint64_t> values = {1, 2, 2, 5};
  std::vector<uint64_t> keys = {2, 5};
  EXPECT_EQ(MergeSelectPositions(values, keys), (PositionVector{1, 2, 3}));
}

TEST(OpsTest, SortedIntersectBasic) {
  std::vector<uint64_t> a = {1, 3, 5, 7};
  std::vector<uint64_t> b = {3, 4, 7, 9};
  EXPECT_EQ(SortedIntersect(a, b), (std::vector<uint64_t>{3, 7}));
}

TEST(OpsTest, UnionDistinctMergesAndDedups) {
  EXPECT_EQ(UnionDistinct({{3, 1}, {2, 3}, {}}),
            (std::vector<uint64_t>{1, 2, 3}));
}

TEST(OpsTest, SortDistinct) {
  EXPECT_EQ(SortDistinct({5, 1, 5, 2, 1}), (std::vector<uint64_t>{1, 2, 5}));
}

// Randomized cross-check of MergeJoin against a nested-loop oracle.
TEST(OpsTest, MergeJoinMatchesNestedLoopOracle) {
  Rng rng(21);
  for (int round = 0; round < 20; ++round) {
    std::vector<uint64_t> left(rng.Uniform(50)), right(rng.Uniform(50));
    for (auto& v : left) v = rng.Uniform(10);
    for (auto& v : right) v = rng.Uniform(10);
    std::sort(left.begin(), left.end());
    std::sort(right.begin(), right.end());
    size_t expected = 0;
    for (uint64_t l : left) {
      for (uint64_t r : right) {
        if (l == r) ++expected;
      }
    }
    EXPECT_EQ(MergeJoin(left, right).size(), expected);
  }
}

TEST(TripleTableTest, SortsByOrderAndAnswersRanges) {
  ColFixture f;
  TripleTable table(&f.pool, &f.disk, rdf::TripleOrder::kPSO);
  table.Load({{3, 10, 7}, {1, 11, 8}, {2, 10, 9}, {1, 10, 6}});
  // PSO order: (10,1,6), (10,2,9), (10,3,7), (11,1,8)
  EXPECT_EQ(table.encoded_properties().Materialize(),
            (std::vector<uint64_t>{10, 10, 10, 11}));
  EXPECT_EQ(table.encoded_subjects().Materialize(),
            (std::vector<uint64_t>{1, 2, 3, 1}));
  EXPECT_EQ(table.PrimaryRange(10), (std::pair<uint32_t, uint32_t>{0, 3}));
  EXPECT_EQ(table.PrimarySecondaryRange(10, 2),
            (std::pair<uint32_t, uint32_t>{1, 2}));
}

TEST(TripleTableTest, ColumnsLoadIndependently) {
  ColFixture f;
  TripleTable table(&f.pool, &f.disk, rdf::TripleOrder::kPSO);
  std::vector<rdf::Triple> triples;
  for (uint64_t i = 0; i < 30000; ++i) triples.push_back({i, i % 5, i % 7});
  table.Load(std::move(triples));
  table.DropCaches();
  f.pool.Clear();
  f.disk.ResetStats();
  table.encoded_properties();  // touch only the property column
  const uint64_t one_column = f.disk.total_bytes_read();
  EXPECT_GT(one_column, 0u);
  EXPECT_LT(one_column, table.disk_bytes() / 2);
}

TEST(VerticalTableTest, PartitionsByProperty) {
  ColFixture f;
  VerticalTable table(&f.pool, &f.disk);
  std::vector<rdf::Triple> triples = {
      {1, 10, 5}, {2, 10, 6}, {1, 11, 7}, {3, 10, 5}};
  table.Load(triples);
  EXPECT_EQ(table.properties(), (std::vector<uint64_t>{10, 11}));
  EXPECT_EQ(table.PartitionSize(10), 3u);
  EXPECT_EQ(table.PartitionSize(11), 1u);
  EXPECT_EQ(table.PartitionSize(99), 0u);
  EXPECT_TRUE(table.HasPartition(10));
  EXPECT_FALSE(table.HasPartition(99));
  EXPECT_EQ(table.EncodedSubjects(10).Materialize(),
            (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(table.EncodedObjects(10).Materialize(),
            (std::vector<uint64_t>{5, 6, 5}));
  EXPECT_EQ(table.SubjectRange(10, 2), (std::pair<uint32_t, uint32_t>{1, 2}));
}

TEST(VerticalTableTest, TouchingOnePartitionLeavesOthersCold) {
  ColFixture f;
  VerticalTable table(&f.pool, &f.disk);
  std::vector<rdf::Triple> triples;
  for (uint64_t i = 0; i < 20000; ++i) triples.push_back({i, i % 4, i + 1});
  table.Load(triples);
  table.DropCaches();
  f.pool.Clear();
  f.disk.ResetStats();
  table.EncodedSubjects(0);
  table.EncodedObjects(0);
  // Roughly a quarter of the data (one of four equally-sized partitions).
  EXPECT_LT(f.disk.total_bytes_read(), table.disk_bytes() / 3);
}

}  // namespace
}  // namespace swan::colstore
