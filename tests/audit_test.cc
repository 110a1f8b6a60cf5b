// The auditors audited: each corruption class the walkers claim to detect
// is seeded into a real structure and must surface as a finding of the
// right class — and clean stores must audit clean, before and after a
// query workload. Four corruption families are exercised:
//   1. silent media corruption (byte flip without checksum update)
//   2. logical corruption behind a valid checksum (reordered keys/values)
//   3. broken dictionary bijection (an id mapped to two terms)
//   4. resource-accounting drift (a leaked buffer-pool pin)

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "bench_support/barton_generator.h"
#include "bench_support/designs.h"
#include "bench_support/harness.h"
#include "colstore/column.h"
#include "core/store.h"
#include "dict/dictionary.h"
#include "rowstore/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"

namespace swan {
namespace {

using audit::AuditLevel;
using audit::FindingClass;

// --- corruption class 1: silent media corruption -------------------------

TEST(DiskChecksumTest, ReadPageReportsSilentCorruption) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t file = disk.CreateFile();
  std::vector<uint8_t> page(storage::kPageSize, 0xAB);
  disk.AppendPage(file, page.data());

  alignas(8) uint8_t buf[storage::kPageSize];
  ASSERT_TRUE(disk.ReadPage({file, 0}, buf, nullptr).ok());
  ASSERT_TRUE(disk.VerifyFile(file).ok());

  disk.CorruptPageForTesting({file, 0}, 17, 0x01);
  const Status st = disk.ReadPage({file, 0}, buf, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(disk.VerifyPage({file, 0}).code(), StatusCode::kCorruption);
  EXPECT_EQ(disk.VerifyFile(file).code(), StatusCode::kCorruption);
  // The bytes are still delivered for forensics, flip included.
  EXPECT_EQ(buf[17], 0xAB ^ 0x01);

  // Flipping the same bit back restores a clean page.
  disk.CorruptPageForTesting({file, 0}, 17, 0x01);
  EXPECT_TRUE(disk.ReadPage({file, 0}, buf, nullptr).ok());
}

TEST(DiskChecksumTest, DiskAuditSweepsEveryPage) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t file = disk.CreateFile();
  std::vector<uint8_t> page(storage::kPageSize, 0x5C);
  for (int p = 0; p < 10; ++p) disk.AppendPage(file, page.data());

  EXPECT_TRUE(audit::Audit(disk, AuditLevel::kFull).ok());
  disk.CorruptPageForTesting({file, 3}, 100, 0xFF);
  disk.CorruptPageForTesting({file, 7}, 200, 0xFF);

  // kQuick never touches page payloads, so it stays clean by design.
  EXPECT_TRUE(audit::Audit(disk, AuditLevel::kQuick).ok());
  const auto report = audit::Audit(disk, AuditLevel::kFull);
  EXPECT_EQ(report.CountClass(FindingClass::kChecksum), 2u)
      << report.ToString();
}

TEST(BufferPoolChecksumTest, TryFetchSurfacesCorruptionAsStatus) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t file = disk.CreateFile();
  std::vector<uint8_t> page(storage::kPageSize, 0x11);
  disk.AppendPage(file, page.data());
  storage::BufferPool pool(&disk, 8);  // swan-lint: allow(node-disk)

  disk.CorruptPageForTesting({file, 0}, 0, 0x80);
  storage::PageGuard guard;
  EXPECT_EQ(pool.TryFetch({file, 0}, &guard).code(), StatusCode::kCorruption);
  EXPECT_FALSE(guard.valid());
  // The failed fetch must not leak its frame pin.
  EXPECT_TRUE(audit::Audit(pool, AuditLevel::kFull).ok());
}

TEST(BufferPoolChecksumDeathTest, FetchAbortsOnCorruptPage) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t file = disk.CreateFile();
  std::vector<uint8_t> page(storage::kPageSize, 0x22);
  disk.AppendPage(file, page.data());
  storage::BufferPool pool(&disk, 8);  // swan-lint: allow(node-disk)
  disk.CorruptPageForTesting({file, 0}, 9, 0x04);
  EXPECT_DEATH((void)pool.Fetch({file, 0}), "checksum mismatch");
}

// --- B+tree: checksum and structural corruption ---------------------------

using Tree3 = rowstore::BPlusTree<3>;

Tree3 BuildTree(storage::BufferPool* pool, storage::SimulatedDisk* disk,
                uint64_t keys) {
  Tree3 tree(pool, disk);
  std::vector<Tree3::Key> sorted;
  for (uint64_t i = 0; i < keys; ++i) sorted.push_back({i, i * 2, i % 5});
  tree.BulkLoad(sorted);
  return tree;
}

TEST(BPlusTreeAuditTest, ByteFlippedPageIsAChecksumFinding) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 1 << 10);  // swan-lint: allow(node-disk)
  Tree3 tree = BuildTree(&pool, &disk, 2000);
  ASSERT_GT(tree.page_count(), 3u);  // multi-page: leaves + a root
  ASSERT_TRUE(audit::Audit(tree, AuditLevel::kFull).ok());

  // Bulk load writes leaves first: page 0 is the leftmost leaf.
  disk.CorruptPageForTesting({tree.file_id(), 0}, 1000, 0xFF);
  pool.Clear();  // the audit must see the disk image, not a cached copy

  const auto report = audit::Audit(tree, AuditLevel::kFull);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountClass(FindingClass::kChecksum), 1u)
      << report.ToString();
}

TEST(BPlusTreeAuditTest, ReorderedLeafKeysAreAStructuralFinding) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 1 << 10);  // swan-lint: allow(node-disk)
  Tree3 tree = BuildTree(&pool, &disk, 2000);
  ASSERT_TRUE(audit::Audit(tree, AuditLevel::kFull).ok());

  // Swap the first two keys of the leftmost leaf and rewrite the page
  // through the legitimate write path, so its checksum is valid and only
  // the *logical* invariant (key order) is broken.
  alignas(8) uint8_t page[storage::kPageSize];
  ASSERT_TRUE(disk.ReadPage({tree.file_id(), 0}, page, nullptr).ok());
  uint16_t is_leaf;
  std::memcpy(&is_leaf, page, sizeof(is_leaf));
  ASSERT_EQ(is_leaf, 1u);
  alignas(8) uint8_t key[Tree3::kKeyBytes];
  uint8_t* first = page + Tree3::kHeaderSize;
  uint8_t* second = first + Tree3::kKeyBytes;
  std::memcpy(key, first, Tree3::kKeyBytes);
  std::memcpy(first, second, Tree3::kKeyBytes);
  std::memcpy(second, key, Tree3::kKeyBytes);
  disk.WritePage({tree.file_id(), 0}, page);
  pool.Clear();

  const auto report = audit::Audit(tree, AuditLevel::kFull);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountClass(FindingClass::kBPlusTree), 1u)
      << report.ToString();
  EXPECT_EQ(report.CountClass(FindingClass::kChecksum), 0u)
      << "valid checksum over corrupt logic must not be misclassified:\n"
      << report.ToString();
}

TEST(BPlusTreeAuditTest, BrokenLeafChainIsDetected) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 1 << 10);  // swan-lint: allow(node-disk)
  Tree3 tree = BuildTree(&pool, &disk, 2000);

  // Truncate the leftmost leaf's next pointer: scans would silently stop
  // after one page while point lookups keep working.
  alignas(8) uint8_t page[storage::kPageSize];
  ASSERT_TRUE(disk.ReadPage({tree.file_id(), 0}, page, nullptr).ok());
  const uint32_t invalid = rowstore::kInvalidPage;
  std::memcpy(page + 4, &invalid, sizeof(invalid));
  disk.WritePage({tree.file_id(), 0}, page);
  pool.Clear();

  const auto report = audit::Audit(tree, AuditLevel::kFull);
  EXPECT_GE(report.CountClass(FindingClass::kBPlusTree), 1u)
      << report.ToString();
}

// --- column store: sortedness and id-range corruption ---------------------

TEST(ColumnAuditTest, ShuffledSortedColumnIsAColumnFinding) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 64);  // swan-lint: allow(node-disk)
  colstore::Column col(&pool, &disk, colstore::ColumnCodec::kRaw);
  std::vector<uint64_t> values(5000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  col.Build(values);

  colstore::ColumnAuditOptions opts;
  opts.label = "test.sorted";
  opts.expect_sorted = true;
  audit::AuditReport clean;
  col.AuditInto(AuditLevel::kFull, opts, &clean);
  ASSERT_TRUE(clean.ok()) << clean.ToString();

  // Swap the first two values on disk through the legitimate write path:
  // the checksum is valid, but the declared sort order no longer holds.
  alignas(8) uint8_t page[storage::kPageSize];
  ASSERT_TRUE(disk.ReadPage({col.file_id(), 0}, page, nullptr).ok());
  uint64_t a, b;
  std::memcpy(&a, page, sizeof(a));
  std::memcpy(&b, page + 8, sizeof(b));
  ASSERT_NE(a, b);
  std::memcpy(page, &b, sizeof(b));
  std::memcpy(page + 8, &a, sizeof(a));
  disk.WritePage({col.file_id(), 0}, page);
  col.DropCache();
  pool.Clear();

  audit::AuditReport report;
  col.AuditInto(AuditLevel::kFull, opts, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountClass(FindingClass::kColumn), 1u)
      << report.ToString();
  EXPECT_EQ(report.CountClass(FindingClass::kChecksum), 0u)
      << report.ToString();
}

TEST(ColumnAuditTest, DictionaryCodeOutOfRangeIsAColumnFinding) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 64);  // swan-lint: allow(node-disk)
  colstore::Column col(&pool, &disk, colstore::ColumnCodec::kRaw);
  std::vector<uint64_t> values = {3, 1, 4, 1, 5, 9, 2, 6};
  col.Build(values);

  colstore::ColumnAuditOptions opts;
  opts.label = "test.range";
  opts.max_valid_id = 10;  // all values < 10: clean
  audit::AuditReport clean;
  col.AuditInto(AuditLevel::kFull, opts, &clean);
  ASSERT_TRUE(clean.ok()) << clean.ToString();

  // Plant an id no dictionary of size 10 could ever have issued.
  alignas(8) uint8_t page[storage::kPageSize];
  ASSERT_TRUE(disk.ReadPage({col.file_id(), 0}, page, nullptr).ok());
  const uint64_t bogus = 1u << 20;
  std::memcpy(page + 4 * 8, &bogus, sizeof(bogus));
  disk.WritePage({col.file_id(), 0}, page);
  col.DropCache();
  pool.Clear();

  audit::AuditReport report;
  col.AuditInto(AuditLevel::kFull, opts, &report);
  EXPECT_GE(report.CountClass(FindingClass::kColumn), 1u)
      << report.ToString();
}

TEST(ColumnAuditTest, ChecksumFailureOnCompressedColumnDoesNotAbort) {
  // A corrupt page under a compressed column must become a kChecksum
  // finding — the auditor must not attempt to decode the damaged bytes
  // (DecompressU64 aborts on malformed input by design).
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 64);  // swan-lint: allow(node-disk)
  colstore::Column col(&pool, &disk, colstore::ColumnCodec::kRle);
  std::vector<uint64_t> values(5000, 7);
  col.Build(values);

  disk.CorruptPageForTesting({col.file_id(), 0}, 3, 0xFF);
  col.DropCache();
  pool.Clear();

  colstore::ColumnAuditOptions opts;
  opts.label = "test.rle";
  audit::AuditReport report;
  col.AuditInto(AuditLevel::kFull, opts, &report);
  EXPECT_GE(report.CountClass(FindingClass::kChecksum), 1u)
      << report.ToString();
}

// --- corruption class 3: dictionary bijection ------------------------------

TEST(DictionaryAuditTest, DuplicateIdBreaksTheBijection) {
  dict::Dictionary dict;
  const uint64_t a = dict.Intern("<a>");
  dict.Intern("<b>");
  dict.Intern("<c>");
  ASSERT_TRUE(audit::Audit(dict, AuditLevel::kFull).ok());

  // Repoint <b>'s index entry at <a>'s id: two terms now claim one id and
  // <b>'s own id has no index entry left.
  dict.TestOnlyCorruptId("<b>", a);

  // The structural half (index/terms size agreement) still holds...
  EXPECT_TRUE(audit::Audit(dict, AuditLevel::kQuick).ok());
  // ...but the full bijection walk must notice.
  const auto report = audit::Audit(dict, AuditLevel::kFull);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountClass(FindingClass::kDictionary), 1u)
      << report.ToString();
}

// --- corruption class 4: buffer-pool pin accounting ------------------------

TEST(BufferPoolAuditTest, LeakedPinIsDetectedAndReleaseClearsIt) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t file = disk.CreateFile();
  std::vector<uint8_t> page(storage::kPageSize, 0x33);
  for (int p = 0; p < 4; ++p) disk.AppendPage(file, page.data());
  storage::BufferPool pool(&disk, 8);  // swan-lint: allow(node-disk)

  {
    storage::PageGuard leak = pool.Fetch({file, 2});
    const auto report = audit::Audit(pool, AuditLevel::kQuick);
    EXPECT_FALSE(report.ok());
    EXPECT_GE(report.CountClass(FindingClass::kBufferPool), 1u)
        << report.ToString();
  }
  // Guard released: the same audit is clean again.
  EXPECT_TRUE(audit::Audit(pool, AuditLevel::kFull).ok());
}

// --- clean stores audit clean ----------------------------------------------

TEST(CleanStoreAuditTest, AllBackendsAuditCleanAfterBuildAndQueries) {
  bench_support::BartonConfig config;
  config.target_triples = 5000;
  const auto barton = bench_support::GenerateBarton(config);
  const auto ctx = bench_support::MakeBartonContext(barton.dataset, 28);

  for (auto& backend : bench_support::OpenDesigns(barton.dataset)) {
    // Clean both before and after the full query workload.
    auto before = backend->Audit(AuditLevel::kFull);
    EXPECT_TRUE(before.ok()) << backend->name() << "\n" << before.ToString();
    for (core::QueryId id : core::AllQueries()) {
      if (backend->Supports(id)) backend->Run(id, ctx);
    }
    auto after = backend->Audit(AuditLevel::kFull);
    EXPECT_TRUE(after.ok()) << backend->name() << "\n" << after.ToString();
  }
}

TEST(CleanStoreAuditTest, RdfStoreAuditCoversDictionary) {
  bench_support::BartonConfig config;
  config.target_triples = 2000;
  auto barton = bench_support::GenerateBarton(config);

  core::StoreOptions options;
  options.scheme = core::StorageScheme::kVerticalPartitioned;
  options.engine = core::EngineKind::kColumnStore;
  auto store = core::RdfStore::Open(barton.dataset, options);
  ASSERT_TRUE(store->Audit(AuditLevel::kFull).ok());

  // A dictionary corruption is invisible to the backend walkers but must
  // surface through the store-level audit.
  const std::string victim(barton.dataset.dict().Lookup(1));
  barton.dataset.dict().TestOnlyCorruptId(victim, 0);
  const auto report = store->Audit(AuditLevel::kFull);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountClass(FindingClass::kDictionary), 1u)
      << report.ToString();
}

}  // namespace
}  // namespace swan
