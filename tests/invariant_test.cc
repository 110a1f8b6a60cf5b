// Invariant (death) tests: misuse of the storage APIs must abort loudly
// via SWAN_CHECK rather than corrupt data silently.

#include <gtest/gtest.h>

#include <vector>

#include "colstore/column.h"
#include "colstore/compression.h"
#include "common/table_printer.h"
#include "dict/dictionary.h"
#include "rowstore/bplus_tree.h"

namespace swan {
namespace {

using ::testing::KilledBySignal;

TEST(InvariantDeathTest, ColumnBuildTwiceAborts) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  colstore::Column col(&pool, &disk);
  const std::vector<uint64_t> values = {1, 2, 3};
  col.Build(values);
  EXPECT_DEATH(col.Build(values), "Build called twice");
}

TEST(InvariantDeathTest, ColumnGetBeforeBuildAborts) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  colstore::Column col(&pool, &disk);
  EXPECT_DEATH(col.Encoded(), "before Build");
}

TEST(InvariantDeathTest, BulkLoadOnNonEmptyTreeAborts) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 64);  // swan-lint: allow(node-disk)
  rowstore::BPlusTree<2> tree(&pool, &disk);
  const std::vector<rowstore::BPlusTree<2>::Key> keys = {{1, 2}};
  tree.BulkLoad(keys);
  EXPECT_DEATH(tree.BulkLoad(keys), "non-empty tree");
}

TEST(InvariantDeathTest, TablePrinterRowWidthMismatchAborts) {
  TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "row width");
}

TEST(InvariantDeathTest, DictionaryLookupOutOfRangeAborts) {
  dict::Dictionary dict;
  dict.Intern("<a>");
  EXPECT_DEATH(dict.Lookup(99), "out of range");
}

TEST(InvariantDeathTest, CorruptCompressedBufferAborts) {
  std::vector<uint8_t> corrupt = {/*tag=*/99, 0, 0};
  EXPECT_DEATH(colstore::DecompressU64(corrupt, 1), "unknown column codec");
}

TEST(InvariantDeathTest, TruncatedCompressedBufferAborts) {
  const std::vector<uint64_t> values = {1, 2, 3, 4, 5};
  auto encoded = colstore::CompressU64(values, colstore::ColumnCodec::kRle);
  encoded.resize(encoded.size() / 2);
  EXPECT_DEATH(colstore::DecompressU64(encoded, values.size()), "corrupt");
}

TEST(InvariantDeathTest, ReadPastEndOfDiskFileAborts) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  uint8_t buf[storage::kPageSize] = {};
  disk.AppendPage(f, buf);
  EXPECT_DEATH((void)disk.ReadPage({f, 5}, buf, nullptr), "past end");
}

}  // namespace
}  // namespace swan
