// Bulk loads sort their keys with rdf::SortKeys, a radix sort over packed
// dictionary ids. These tests hold it to std::sort: on its own, over keys
// built to hit every path, and through each of the four loaders, whose
// disk images must match page for page a load sorted with std::sort.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench_support/barton_generator.h"
#include "colstore/column.h"
#include "colstore/triple_table.h"
#include "colstore/vertical_table.h"
#include "common/random.h"
#include "rdf/triple.h"
#include "rowstore/bplus_tree.h"
#include "rowstore/triple_relation.h"
#include "rowstore/vertical_relation.h"
#include "storage/node_storage.h"

namespace swan {
namespace {

using Keys = std::vector<std::array<uint64_t, 3>>;

// SortKeys keeps duplicates (the loaders that need a set run std::unique
// after it), so it must equal std::sort exactly, duplicates included.
void ExpectSortsLikeStdSort(Keys keys) {
  Keys expected = keys;
  std::sort(expected.begin(), expected.end());
  rdf::SortKeys(&keys);
  EXPECT_EQ(keys, expected);
}

// `n` keys whose component c is uniform in [0, bound[c]) (any 64-bit
// value when bound[c] is 0), drawn from a pool of n / 4 distinct keys so
// duplicates are common.
Keys RandomKeys(size_t n, const std::array<uint64_t, 3>& bound,
                uint64_t seed) {
  Rng rng(seed);
  Keys distinct(std::max<size_t>(n / 4, 1));
  for (auto& key : distinct) {
    for (int c = 0; c < 3; ++c) {
      key[c] = bound[c] == 0 ? rng.Next() : rng.Uniform(bound[c]);
    }
  }
  Keys keys(n);
  for (auto& key : keys) key = distinct[rng.Uniform(distinct.size())];
  return keys;
}

TEST(SortKeysTest, MatchesStdSortOnDenseIds) {
  // Packed widths 10, 30 and 56 bits: one, three and six radix passes.
  ExpectSortsLikeStdSort(RandomKeys(5000, {8, 8, 16}, 1));
  ExpectSortsLikeStdSort(RandomKeys(20000, {1000, 200, 1 << 12}, 2));
  ExpectSortsLikeStdSort(RandomKeys(50000, {1 << 20, 1 << 16, 1 << 20}, 3));
}

TEST(SortKeysTest, MatchesStdSortWithZeroIds) {
  // All-zero keys, an all-zero component, and zeros mixed in.
  ExpectSortsLikeStdSort(Keys(1000, {0, 0, 0}));
  ExpectSortsLikeStdSort(RandomKeys(4000, {1, 500, 70000}, 5));
  Keys mixed = RandomKeys(4000, {3, 3, 3}, 6);
  for (size_t i = 0; i < mixed.size(); i += 7) mixed[i] = {0, 0, 0};
  ExpectSortsLikeStdSort(std::move(mixed));
}

TEST(SortKeysTest, MatchesStdSortWithIdsPastTwoToThe32) {
  // 33 + 8 + 20 = 61 bits still pack into one word.
  ExpectSortsLikeStdSort(
      RandomKeys(20000, {uint64_t{1} << 33, 200, 1 << 20}, 7));
  // One full-width component with the others all zero: exactly 64 bits.
  ExpectSortsLikeStdSort(RandomKeys(3000, {1, 0, 1}, 8));
}

TEST(SortKeysTest, FallsBackPastSixtyFourPackedBits) {
  ExpectSortsLikeStdSort(
      RandomKeys(20000, {uint64_t{1} << 40, 200, uint64_t{1} << 40}, 10));
  ExpectSortsLikeStdSort(RandomKeys(3000, {0, 2, 1}, 11));
}

TEST(SortKeysTest, SmallInputs) {
  for (size_t n : {0, 1, 2, 3, 17}) {
    ExpectSortsLikeStdSort(RandomKeys(n, {100, 10, 100}, 12 + n));
  }
}

// Every file's page checksums, file by file.
std::vector<std::vector<uint64_t>> DiskImage(storage::SimulatedDisk* disk) {
  std::vector<std::vector<uint64_t>> files(disk->FileCount());
  std::vector<uint8_t> page(storage::kPageSize);
  for (uint32_t f = 0; f < files.size(); ++f) {
    for (uint32_t p = 0; p < disk->PageCount(f); ++p) {
      EXPECT_TRUE(disk->ReadPage({f, p}, page.data(), nullptr).ok());
      files[f].push_back(storage::SimulatedDisk::PageChecksum(page.data()));
    }
  }
  return files;
}

// Barton-shaped triples, generated once for all loader tests.
const std::vector<rdf::Triple>& Triples() {
  static const auto* triples = [] {
    bench_support::BartonConfig config;
    config.target_triples = 20000;
    return new std::vector<rdf::Triple>(
        bench_support::GenerateBarton(config).dataset.triples());
  }();
  return *triples;
}

storage::NodeStorage Node() { return storage::MakeNodeStorage({}, 1024); }

// The triples grouped by property, ascending, each group's (s, o) pairs
// sorted with std::sort.
std::map<uint64_t, std::vector<std::array<uint64_t, 2>>> ByProperty() {
  std::map<uint64_t, std::vector<std::array<uint64_t, 2>>> groups;
  for (const rdf::Triple& t : Triples()) {
    groups[t.property].push_back({t.subject, t.object});
  }
  for (auto& [prop, rows] : groups) std::sort(rows.begin(), rows.end());
  return groups;
}

TEST(LoadOracleTest, RowTripleRelation) {
  for (const auto& config : {rowstore::TripleRelation::PsoConfig(),
                             rowstore::TripleRelation::SpoConfig()}) {
    const storage::NodeStorage loaded = Node();
    rowstore::TripleRelation relation(loaded.pool.get(), loaded.disk.get(),
                                      config);
    relation.Load(Triples());

    const storage::NodeStorage oracle = Node();
    std::vector<rdf::TripleOrder> orders = {config.clustered};
    orders.insert(orders.end(), config.secondaries.begin(),
                  config.secondaries.end());
    std::vector<std::unique_ptr<rowstore::BPlusTree<3>>> trees;
    for (rdf::TripleOrder order : orders) {
      Keys keys;
      for (const rdf::Triple& t : Triples()) keys.push_back(KeyOf(t, order));
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      trees.push_back(std::make_unique<rowstore::BPlusTree<3>>(
          oracle.pool.get(), oracle.disk.get()));
      trees.back()->BulkLoad(keys);
    }
    EXPECT_EQ(DiskImage(loaded.disk.get()), DiskImage(oracle.disk.get()))
        << rdf::ToString(config.clustered);
  }
}

TEST(LoadOracleTest, RowVerticalRelation) {
  const storage::NodeStorage loaded = Node();
  rowstore::VerticalRelation relation(loaded.pool.get(), loaded.disk.get());
  relation.Load(Triples());

  const storage::NodeStorage oracle = Node();
  std::vector<std::unique_ptr<rowstore::BPlusTree<2>>> trees;
  for (auto& [prop, so] : ByProperty()) {
    so.erase(std::unique(so.begin(), so.end()), so.end());
    std::vector<std::array<uint64_t, 2>> os;
    for (const auto& [s, o] : so) os.push_back({o, s});
    std::sort(os.begin(), os.end());
    for (const auto* keys : {&so, &os}) {
      trees.push_back(std::make_unique<rowstore::BPlusTree<2>>(
          oracle.pool.get(), oracle.disk.get()));
      trees.back()->BulkLoad(*keys);
    }
  }
  EXPECT_EQ(DiskImage(loaded.disk.get()), DiskImage(oracle.disk.get()));
}

TEST(LoadOracleTest, ColumnTripleTable) {
  for (const auto codec :
       {colstore::ColumnCodec::kRaw, colstore::ColumnCodec::kAuto}) {
    for (const auto order : {rdf::TripleOrder::kPSO, rdf::TripleOrder::kSPO}) {
      const storage::NodeStorage loaded = Node();
      colstore::TripleTable table(loaded.pool.get(), loaded.disk.get(), order,
                                  codec);
      table.Load(Triples());

      const storage::NodeStorage oracle = Node();
      std::vector<rdf::Triple> sorted = Triples();
      std::sort(sorted.begin(), sorted.end(),
                [order](const rdf::Triple& a, const rdf::Triple& b) {
                  return KeyOf(a, order) < KeyOf(b, order);
                });
      std::vector<std::unique_ptr<colstore::Column>> columns;
      for (uint64_t rdf::Triple::*component :
           {&rdf::Triple::subject, &rdf::Triple::property,
            &rdf::Triple::object}) {
        std::vector<uint64_t> values;
        for (const rdf::Triple& t : sorted) values.push_back(t.*component);
        columns.push_back(std::make_unique<colstore::Column>(
            oracle.pool.get(), oracle.disk.get(), codec));
        columns.back()->Build(values);
      }
      EXPECT_EQ(DiskImage(loaded.disk.get()), DiskImage(oracle.disk.get()))
          << rdf::ToString(order) << " " << colstore::ToString(codec);
    }
  }
}

TEST(LoadOracleTest, ColumnVerticalTable) {
  for (const auto codec :
       {colstore::ColumnCodec::kRaw, colstore::ColumnCodec::kAuto}) {
    const storage::NodeStorage loaded = Node();
    colstore::VerticalTable table(loaded.pool.get(), loaded.disk.get(), codec);
    table.Load(Triples());

    const storage::NodeStorage oracle = Node();
    std::vector<std::unique_ptr<colstore::Column>> columns;
    for (const auto& [prop, rows] : ByProperty()) {
      for (const int component : {0, 1}) {
        std::vector<uint64_t> values;
        for (const auto& row : rows) values.push_back(row[component]);
        columns.push_back(std::make_unique<colstore::Column>(
            oracle.pool.get(), oracle.disk.get(), codec));
        columns.back()->Build(values);
      }
    }
    EXPECT_EQ(DiskImage(loaded.disk.get()), DiskImage(oracle.disk.get()))
        << colstore::ToString(codec);
  }
}

}  // namespace
}  // namespace swan
