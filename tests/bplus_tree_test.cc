#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "common/random.h"
#include "rowstore/bplus_tree.h"

namespace swan::rowstore {
namespace {

using Tree2 = BPlusTree<2>;
using Tree3 = BPlusTree<3>;

struct TreeFixture {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool{&disk, 1 << 14};  // swan-lint: allow(node-disk)
};

// The keys >= `lower` in the order the leaf walk yields them.
template <int W>
std::vector<typename BPlusTree<W>::Key> KeysFrom(
    const BPlusTree<W>& tree, const typename BPlusTree<W>::Key& lower) {
  std::vector<typename BPlusTree<W>::Key> out;
  tree.Walk(lower, [&](const LeafKeys<W>& keys) {
    for (size_t i = 0; i < keys.size(); ++i) out.push_back(keys[i]);
    return true;
  });
  return out;
}

template <int W>
std::vector<typename BPlusTree<W>::Key> AllKeys(const BPlusTree<W>& tree) {
  return KeysFrom(tree, typename BPlusTree<W>::Key{});
}

// The first key >= `lower`, if any: where a walk from `lower` starts.
std::optional<Tree3::Key> FirstKeyFrom(const Tree3& tree,
                                       const Tree3::Key& lower) {
  std::optional<Tree3::Key> first;
  tree.Walk(lower, [&](const LeafKeys<3>& keys) {
    first = keys[0];
    return false;
  });
  return first;
}

std::vector<Tree3::Key> SequentialKeys(uint64_t n) {
  std::vector<Tree3::Key> keys;
  keys.reserve(n);
  for (uint64_t i = 0; i < n; ++i) keys.push_back({i, i * 2, i * 3});
  return keys;
}

TEST(BPlusTreeTest, EmptyTreeIteratesNothing) {
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  tree.BulkLoad({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(AllKeys(tree).empty());
  EXPECT_FALSE(tree.Contains({1, 2, 3}));
}

TEST(BPlusTreeTest, SingleKey) {
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  const Tree3::Key k{7, 8, 9};
  tree.BulkLoad(std::span<const Tree3::Key>(&k, 1));
  EXPECT_TRUE(tree.Contains(k));
  EXPECT_FALSE(tree.Contains({7, 8, 10}));
  const auto all = AllKeys(tree);
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0], k);
  EXPECT_EQ(all.size(), 1u);
}

class BulkLoadSizeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BulkLoadSizeTest, FullScanReturnsAllKeysInOrder) {
  const uint64_t n = GetParam();
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  const auto keys = SequentialKeys(n);
  tree.BulkLoad(keys);
  EXPECT_EQ(tree.size(), n);

  uint64_t count = 0;
  for (const Tree3::Key& key : AllKeys(tree)) {
    ASSERT_EQ(key, keys[count]);
    ++count;
  }
  EXPECT_EQ(count, n);
}

TEST_P(BulkLoadSizeTest, ContainsEveryLoadedKeyAndNoOthers) {
  const uint64_t n = GetParam();
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  const auto keys = SequentialKeys(n);
  tree.BulkLoad(keys);
  for (uint64_t i = 0; i < n; i += 7) {
    EXPECT_TRUE(tree.Contains(keys[i]));
    EXPECT_FALSE(tree.Contains({i, i * 2, i * 3 + 1}));
  }
}

TEST_P(BulkLoadSizeTest, SeekFindsLowerBound) {
  const uint64_t n = GetParam();
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  tree.BulkLoad(SequentialKeys(n));
  // A walk from between keys i and i+1 starts at key i+1.
  for (uint64_t i = 0; i + 1 < n; i += std::max<uint64_t>(1, n / 13)) {
    const auto first = FirstKeyFrom(tree, {i, i * 2, i * 3 + 1});
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ((*first)[0], i + 1);
  }
  // One from past the end yields nothing.
  EXPECT_FALSE(FirstKeyFrom(tree, {n, 0, 0}).has_value());
}

// Exercise single-leaf, multi-leaf, and multi-level shapes (leaf capacity
// for W=3 is 339, internal 290).
INSTANTIATE_TEST_SUITE_P(Shapes, BulkLoadSizeTest,
                         ::testing::Values(1, 10, 340, 341, 5000, 120000));

TEST(BPlusTreeTest, HeightGrowsLogarithmically) {
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  tree.BulkLoad(SequentialKeys(200000));
  EXPECT_GE(tree.height(), 2);
  EXPECT_LE(tree.height(), 4);
}

TEST(BPlusTreeTest, BulkLoadedLeavesAreSequentialOnDisk) {
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  tree.BulkLoad(SequentialKeys(50000));
  f.pool.Clear();
  f.disk.ResetStats();
  uint64_t count = 0;
  tree.Walk({}, [&](const LeafKeys<3>& keys) {
    count += keys.size();
    return true;
  });
  EXPECT_EQ(count, 50000u);
  // A full scan must be nearly seek-free: descent plus one long run.
  EXPECT_LE(f.disk.total_seeks(), 8u);
}

TEST(BPlusTreeTest, InsertIntoEmptyTree) {
  TreeFixture f;
  Tree2 tree(&f.pool, &f.disk);
  EXPECT_TRUE(tree.Insert({5, 6}));
  EXPECT_FALSE(tree.Insert({5, 6}));
  EXPECT_TRUE(tree.Contains({5, 6}));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTreeTest, InsertManyRandomKeysSplitsCorrectly) {
  TreeFixture f;
  Tree2 tree(&f.pool, &f.disk);
  tree.BulkLoad({});
  Rng rng(77);
  std::set<std::array<uint64_t, 2>> reference;
  for (int i = 0; i < 20000; ++i) {
    const std::array<uint64_t, 2> key{rng.Uniform(5000), rng.Uniform(5000)};
    const bool fresh = reference.insert(key).second;
    EXPECT_EQ(tree.Insert(key), fresh);
  }
  EXPECT_EQ(tree.size(), reference.size());
  // Iteration order must equal the reference set's order.
  auto expected = reference.begin();
  for (const Tree2::Key& key : AllKeys(tree)) {
    ASSERT_NE(expected, reference.end());
    EXPECT_EQ(key, *expected);
    ++expected;
  }
  EXPECT_EQ(expected, reference.end());
}

TEST(BPlusTreeTest, InsertAscendingTriggersRightmostSplits) {
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  tree.BulkLoad({});
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree.Insert({i, 0, 0}));
  }
  EXPECT_EQ(tree.size(), 3000u);
  EXPECT_GE(tree.height(), 2);
  uint64_t expected = 0;
  for (const Tree3::Key& key : AllKeys(tree)) {
    ASSERT_EQ(key[0], expected++);
  }
  EXPECT_EQ(expected, 3000u);
}

TEST(BPlusTreeTest, InsertDescendingTriggersLeftmostSplits) {
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  tree.BulkLoad({});
  for (uint64_t i = 3000; i-- > 0;) {
    ASSERT_TRUE(tree.Insert({i, 0, 0}));
  }
  uint64_t expected = 0;
  for (const Tree3::Key& key : AllKeys(tree)) {
    ASSERT_EQ(key[0], expected++);
  }
  EXPECT_EQ(expected, 3000u);
}

TEST(BPlusTreeTest, InsertAfterBulkLoad) {
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  std::vector<Tree3::Key> keys;
  for (uint64_t i = 0; i < 1000; ++i) keys.push_back({i * 2, 0, 0});
  tree.BulkLoad(keys);
  // Fill the odd gaps.
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert({i * 2 + 1, 0, 0}));
  }
  EXPECT_EQ(tree.size(), 2000u);
  uint64_t expected = 0;
  for (const Tree3::Key& key : AllKeys(tree)) {
    ASSERT_EQ(key[0], expected++);
  }
}

TEST(BPlusTreeTest, CountPrefixCountsRange) {
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  std::vector<Tree3::Key> keys;
  for (uint64_t p = 0; p < 10; ++p) {
    for (uint64_t s = 0; s < 20; ++s) keys.push_back({p, s, p + s});
  }
  std::sort(keys.begin(), keys.end());
  tree.BulkLoad(keys);
  const uint64_t prefix_value = 4;
  EXPECT_EQ(tree.CountPrefix(std::span<const uint64_t>(&prefix_value, 1)),
            20u);
  EXPECT_EQ(tree.CountPrefix({}), 200u);
  const uint64_t two[] = {4, 7};
  EXPECT_EQ(tree.CountPrefix(two), 1u);
}

TEST(BPlusTreeTest, ColdScanChargesDiskTime) {
  TreeFixture f;
  Tree3 tree(&f.pool, &f.disk);
  tree.BulkLoad(SequentialKeys(50000));
  f.pool.Clear();
  f.disk.ResetStats();
  AllKeys(tree);
  EXPECT_GT(f.disk.clock().now(), 0.0);
  EXPECT_GT(f.disk.total_bytes_read(), 50000 * 24u);

  // Hot rescan: everything cached, no further disk traffic.
  const uint64_t bytes_after_cold = f.disk.total_bytes_read();
  AllKeys(tree);
  EXPECT_EQ(f.disk.total_bytes_read(), bytes_after_cold);
}

TEST(BPlusTreeTest, Width2And3Coexist) {
  TreeFixture f;
  Tree2 t2(&f.pool, &f.disk);
  Tree3 t3(&f.pool, &f.disk);
  std::vector<Tree2::Key> k2 = {{1, 2}, {3, 4}};
  std::vector<Tree3::Key> k3 = {{1, 2, 3}, {4, 5, 6}};
  t2.BulkLoad(k2);
  t3.BulkLoad(k3);
  EXPECT_TRUE(t2.Contains({3, 4}));
  EXPECT_TRUE(t3.Contains({4, 5, 6}));
  EXPECT_FALSE(t3.Contains({3, 4, 0}));
}

}  // namespace
}  // namespace swan::rowstore
