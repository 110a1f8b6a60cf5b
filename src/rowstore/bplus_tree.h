#ifndef SWANDB_ROWSTORE_BPLUS_TREE_H_
#define SWANDB_ROWSTORE_BPLUS_TREE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "common/macros.h"
#include "rdf/scan_filter.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"

namespace swan::rowstore {

inline constexpr uint32_t kInvalidPage = 0xFFFFFFFFu;

// Equality constraints on some slots of a W-word key, tested with masks
// instead of branches: whether a scanned key matches is data-dependent,
// and a mispredicted branch per key costs more than the whole test.
template <int W>
struct KeyMatch {
  std::array<uint64_t, W> want{};
  std::array<uint64_t, W> mask{};  // all ones on a constrained slot

  void Bind(int slot, uint64_t value) {
    want[slot] = value;
    mask[slot] = ~uint64_t{0};
  }
  bool Matches(const std::array<uint64_t, W>& key) const {
    uint64_t diff = 0;
    for (int i = 0; i < W; ++i) diff |= (key[i] ^ want[i]) & mask[i];
    return diff == 0;
  }
};

// The keys of one walked leaf, from some slot on, read in place from the
// pinned page: each access copies one key's words out, which compiles to
// plain loads and never reads the page through a pointer of another type.
template <int W>
class LeafKeys {
 public:
  using Key = std::array<uint64_t, W>;

  LeafKeys(const uint8_t* keys, size_t size) : keys_(keys), size_(size) {}

  size_t size() const { return size_; }
  Key operator[](size_t i) const {
    Key key{};
    for (int w = 0; w < W; ++w) {
      std::memcpy(&key[w], keys_ + (i * W + w) * sizeof(uint64_t),
                  sizeof(uint64_t));
    }
    return key;
  }

 private:
  const uint8_t* keys_;
  size_t size_;
};

// The scan filters of a walk on the key slots they constrain: a key passes
// when every constrained slot's value is in its filter's id bitmap. The
// test ANDs the slots, with no branch on the outcome.
template <int W>
struct SlotFilter {
  std::array<const rdf::MarkSet*, W> marks{};  // null: unconstrained

  void Bind(int slot, const rdf::ScanFilter& filter) {
    if (!filter.all()) marks[slot] = &filter.marks();
  }
  bool empty() const {
    return std::all_of(marks.begin(), marks.end(),
                       [](const rdf::MarkSet* m) { return m == nullptr; });
  }
  bool operator()(const std::array<uint64_t, W>& key) const {
    bool pass = true;
    for (int i = 0; i < W; ++i) {
      pass &= marks[i] == nullptr || marks[i]->Contains(key[i]);
    }
    return pass;
  }
};

// Keeps every key: the residual test of a scan without a scan filter.
inline constexpr auto kKeepAll = [](const auto&) { return true; };

// Calls take(key) for the keys of one walked leaf that lie inside the
// bound `prefix`, match the `residual` constraints and pass `keep` (a scan
// filter's membership test on the key words), in key order.
// Returns whether the prefix run reaches the leaf's end, i.e. whether the
// walk goes on. The prefix leads the key order, so its run is the leaf's
// leading keys: one test of the last key, else a galloping search from
// the front. Residual tests run eight keys at a time into a bit mask,
// with no branch per key, and only the set bits are visited — cheap both
// when few keys match (most blocks are skipped on a well-predicted
// branch) and when many do.
template <int W, typename Keep, typename Take>
bool ForEachMatch(const LeafKeys<W>& keys, const KeyMatch<W>& prefix,
                  const KeyMatch<W>& residual, const Keep& keep,
                  const Take& take) {
  SWAN_DCHECK(keys.size() > 0);
  size_t end = keys.size();
  if (!prefix.Matches(keys[end - 1])) {
    // The run ends inside the leaf, usually after a few keys: gallop from
    // the front to bracket its end, then binary-search the bracket.
    const size_t last = end - 1;  // past the prefix
    size_t lo = 0;
    size_t probe = 0;
    while (probe < last && prefix.Matches(keys[probe])) {
      lo = probe + 1;
      probe = 2 * probe + 1;
    }
    size_t hi = std::min(probe, last);  // keys[hi] is past the prefix
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (prefix.Matches(keys[mid])) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    end = lo;
  }
  for (size_t i = 0; i < end; i += 8) {
    const size_t block = std::min<size_t>(8, end - i);
    uint32_t bits = 0;
    for (size_t j = 0; j < block; ++j) {
      const std::array<uint64_t, W> key = keys[i + j];
      bits |= static_cast<uint32_t>(residual.Matches(key) & keep(key)) << j;
    }
    while (bits != 0) {
      take(keys[i + static_cast<size_t>(std::countr_zero(bits))]);
      bits &= bits - 1;
    }
  }
  return end == keys.size();
}

// Disk-resident B+tree over fixed-width tuples of uint64 ids, compared
// lexicographically. The tuple *is* the record (covering index): this is
// exactly how a clustered index over a (subject, property, object) or
// (subject, object) relation stores its rows.
//
// W is the key width: 3 for triple permutations, 2 for the per-property
// tables of the vertically-partitioned scheme.
//
// All page accesses go through the BufferPool, so the simulated disk
// observes the tree's real access pattern: bulk-loaded leaves are laid out
// sequentially (range scans read contiguous pages), while root-to-leaf
// descents and secondary-index row fetches pay random I/O.
template <int W>
class BPlusTree {
 public:
  using Key = std::array<uint64_t, W>;

  // Page layout -----------------------------------------------------------
  // Both node kinds start with:
  //   u16 is_leaf | u16 count | u32 next_leaf (leaf chain; kInvalidPage)
  //   u64 reserved (alignment)
  // Leaf:     keys[count] at byte 16, each W*8 bytes.
  // Internal: children[count+1] (u32) at byte 16, keys at kInternalKeyOff.
  //   Key i separates children i and i+1: it is the smallest key reachable
  //   under child i+1.
  // Capacities leave one key (and one child) of slack: the insert path
  // lets a node temporarily hold capacity+1 keys before splitting it.
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kKeyBytes = sizeof(uint64_t) * W;
  static constexpr uint16_t kLeafCapacity = static_cast<uint16_t>(
      (storage::kPageSize - kHeaderSize) / kKeyBytes - 1);
  static constexpr uint16_t kInternalCapacity = static_cast<uint16_t>(
      (storage::kPageSize - kHeaderSize - 2 * sizeof(uint32_t) - kKeyBytes -
       8) /
      (kKeyBytes + sizeof(uint32_t)));
  static constexpr size_t kInternalKeyOff =
      (kHeaderSize + sizeof(uint32_t) * (kInternalCapacity + 2) + 7) & ~7ull;
  static_assert(kHeaderSize + kKeyBytes * (kLeafCapacity + 1) <=
                storage::kPageSize);
  static_assert(kInternalKeyOff + kKeyBytes * (kInternalCapacity + 1) <=
                storage::kPageSize);

  BPlusTree(storage::BufferPool* pool, storage::SimulatedDisk* disk)
      : pool_(pool), file_(disk) {}

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) = default;

  // Builds the tree from keys that must be sorted and unique. Leaves are
  // written in key order as consecutive pages, then each internal level.
  // May only be called on an empty tree.
  void BulkLoad(std::span<const Key> sorted_keys);

  // Inserts a key, splitting nodes as needed; returns false if the key was
  // already present. Write-through: pages are patched in the pool and on
  // disk.
  bool Insert(const Key& key);

  bool Contains(const Key& key) const;

  uint64_t size() const { return size_; }
  int height() const { return height_; }

  // Leaf-chain layout, the basis of chunked parallel scans. BulkLoad lays
  // the leaves out as consecutive pages [first_leaf_page, first_leaf_page
  // + num_leaves); a later leaf split appends its right sibling at the end
  // of the file and permanently breaks that contiguity, after which
  // chunked scans must fall back to the serial sibling chain.
  bool LeafChainContiguous() const { return leaf_chain_contiguous_; }
  uint32_t first_leaf_page() const { return first_leaf_page_; }
  uint32_t num_leaves() const { return num_leaves_; }

  // Calls fn(keys) once per leaf in [leaf_begin, leaf_end) of the
  // contiguous bulk-loaded chain, in key order, with the leaf's keys. Only
  // valid while LeafChainContiguous(). Pages are fetched through the
  // buffer pool, so the I/O model observes one sequential page run per
  // chunk.
  template <typename Fn>
  void ScanLeaves(uint32_t leaf_begin, uint32_t leaf_end, const Fn& fn) const {
    SWAN_DCHECK(leaf_chain_contiguous_);
    SWAN_DCHECK_LE(leaf_end, num_leaves_);
    for (uint32_t leaf = leaf_begin; leaf < leaf_end; ++leaf) {
      storage::PageGuard guard =
          pool_->Fetch(file_.page_id(first_leaf_page_ + leaf));
      fn(KeysOf(guard.data(), 0));
    }
  }

  // Walks the keys >= `lower` in key order, a leaf at a time: calls
  // fn(keys) with the first leaf's keys from the lower bound on, then
  // with each following leaf's keys along the sibling chain, until fn
  // returns false or the chain ends. The keys are valid only during the
  // call; the leaf stays pinned while fn runs. Page fetches, in order: the
  // root-to-leaf descent, that leaf again to hold it, then each next leaf
  // — fetched while its predecessor is still pinned — once fn has taken
  // all of the previous one. A range that ends on a leaf's last key
  // therefore still reads the next leaf, where its end shows. The pinned
  // cold costs of the row engine (RowMatchCostTest, RowEngineCostTest)
  // depend on exactly this sequence.
  template <typename Fn>
  void Walk(const Key& lower, const Fn& fn) const {
    uint32_t leaf = kInvalidPage;
    uint16_t slot = 0;
    bool found = false;
    FindLeaf(lower, &leaf, &slot, &found);
    storage::PageGuard guard = pool_->Fetch(file_.page_id(leaf));
    if (slot < ReadU16(guard.data() + 2) && !fn(KeysOf(guard.data(), slot))) {
      return;
    }
    for (;;) {
      const uint32_t next = ReadU32(guard.data() + 4);
      if (next == kInvalidPage) return;
      storage::PageGuard next_guard = pool_->Fetch(file_.page_id(next));
      guard = std::move(next_guard);
      // An empty leaf can only be an empty chain's tail.
      if (ReadU16(guard.data() + 2) == 0) return;
      if (!fn(KeysOf(guard.data(), 0))) return;
    }
  }

  // Charges the root-to-leftmost-leaf descent to the I/O model without
  // producing keys. A chunked scan issues this once before fanning out so
  // its set of touched pages — and therefore its cold I/O bytes — is
  // identical to the serial Walk from the smallest key.
  void ChargeScanDescent() const {
    Key min{};
    min.fill(0);
    uint32_t leaf;
    uint16_t slot;
    bool found;
    FindLeaf(min, &leaf, &slot, &found);
  }

  uint32_t page_count() const { return file_.page_count(); }
  uint32_t file_id() const { return file_.file_id(); }
  uint64_t disk_bytes() const {
    return static_cast<uint64_t>(file_.page_count()) * storage::kPageSize;
  }

  // Number of keys whose first `prefix.size()` components equal `prefix`.
  // Walks the leaf range (used by tests; plans use statistics instead).
  uint64_t CountPrefix(std::span<const uint64_t> prefix) const;

  // Audit walker. At kFull, descends from the root verifying: page
  // checksums, header sanity, key ordering within nodes, separator/child
  // consistency (every key under child i+1 is >= separator i and every key
  // under child i is < separator i), uniform leaf depth, minimum fill
  // (no empty non-root nodes), the leaf sibling chain, and that the leaf
  // key total matches size(). Tolerant: corruption becomes findings, never
  // an abort, and reporting stops after a bounded number of findings per
  // tree so a trashed page does not flood the report.
  void AuditInto(audit::AuditLevel level, audit::AuditReport* report) const;

 private:
  static uint16_t ReadU16(const uint8_t* p) {
    uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static uint32_t ReadU32(const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static void WriteU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }
  static void WriteU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }

  static Key LeafKeyAt(const uint8_t* page, uint16_t slot) {
    Key k;
    std::memcpy(k.data(), page + kHeaderSize + slot * kKeyBytes, kKeyBytes);
    return k;
  }
  // The keys of a leaf page from `slot` on.
  static LeafKeys<W> KeysOf(const uint8_t* page, uint16_t slot) {
    const uint16_t count = ReadU16(page + 2);
    SWAN_CHECK_LE(count, kLeafCapacity);
    return {page + kHeaderSize + slot * kKeyBytes,
            static_cast<size_t>(count - slot)};
  }
  static Key InternalKeyAt(const uint8_t* page, uint16_t slot) {
    Key k;
    std::memcpy(k.data(), page + kInternalKeyOff + slot * kKeyBytes,
                kKeyBytes);
    return k;
  }
  static uint32_t ChildAt(const uint8_t* page, uint16_t slot) {
    return ReadU32(page + kHeaderSize + slot * sizeof(uint32_t));
  }

  // Returns the leaf page holding the lower bound of `key` plus the slot.
  // Descends from the root, pinning one page at a time.
  void FindLeaf(const Key& key, uint32_t* leaf_page, uint16_t* slot,
                bool* found) const;

  // Shared state of one AuditInto() walk.
  struct AuditWalkState {
    audit::AuditReport* report = nullptr;
    std::string object;
    std::unordered_set<uint32_t> visited;
    // Leaves in key order as encountered by the DFS: (page_no, next_leaf).
    std::vector<std::pair<uint32_t, uint32_t>> leaves;
    uint64_t leaf_keys = 0;
    int leaf_depth = -1;  // first observed root->leaf depth
    int findings_budget = 16;

    void Add(std::string detail) {
      if (findings_budget == 0) {
        report->Add(audit::FindingClass::kBPlusTree, object,
                    "(further findings suppressed)");
        --findings_budget;
      }
      if (findings_budget < 0) return;
      --findings_budget;
      report->Add(audit::FindingClass::kBPlusTree, object, std::move(detail));
    }
  };

  static std::string RenderKey(const Key& key) {
    std::string out = "(";
    for (int i = 0; i < W; ++i) {
      if (i > 0) out += ",";
      out += std::to_string(key[i]);
    }
    out += ")";
    return out;
  }

  // DFS node check with propagated key bounds: every key in the subtree
  // must lie in [lower, upper). Null bound = unbounded.
  void AuditWalk(uint32_t page_no, int depth, const Key* lower,
                 const Key* upper, AuditWalkState* state) const;

  // Insert helpers operating on page images copied out of the pool.
  struct SplitResult {
    bool split = false;
    Key separator;
    uint32_t right_page = 0;
  };
  SplitResult InsertRecurse(uint32_t page_no, const Key& key, bool* inserted);

  storage::BufferPool* pool_;
  storage::PagedFile file_;
  uint32_t root_page_ = kInvalidPage;
  uint64_t size_ = 0;
  int height_ = 0;
  uint32_t first_leaf_page_ = kInvalidPage;
  uint32_t num_leaves_ = 0;
  bool leaf_chain_contiguous_ = false;
};

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

template <int W>
void BPlusTree<W>::BulkLoad(std::span<const Key> sorted_keys) {
  SWAN_CHECK_MSG(root_page_ == kInvalidPage, "BulkLoad on non-empty tree");
  for (size_t i = 1; i < sorted_keys.size(); ++i) {
    SWAN_DCHECK_LT(sorted_keys[i - 1], sorted_keys[i]);
  }

  size_ = sorted_keys.size();
  alignas(8) uint8_t page[storage::kPageSize];

  if (sorted_keys.empty()) {
    std::memset(page, 0, sizeof(page));
    WriteU16(page, 1);           // is_leaf
    WriteU16(page + 2, 0);       // count
    WriteU32(page + 4, kInvalidPage);
    root_page_ = file_.AppendPage(page);
    first_leaf_page_ = root_page_;
    num_leaves_ = 1;
    leaf_chain_contiguous_ = true;
    height_ = 1;
    return;
  }

  // Level 0: leaves. Entries for the next level: (first key, page_no).
  std::vector<std::pair<Key, uint32_t>> level;
  {
    size_t pos = 0;
    const size_t n = sorted_keys.size();
    const size_t num_leaves = (n + kLeafCapacity - 1) / kLeafCapacity;
    // Page numbers are allocated consecutively starting at the current end
    // of the file, so the next_leaf chain can be filled in as we go.
    const uint32_t first_leaf = file_.page_count();
    for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
      const size_t take = std::min<size_t>(kLeafCapacity, n - pos);
      std::memset(page, 0, sizeof(page));
      WriteU16(page, 1);
      WriteU16(page + 2, static_cast<uint16_t>(take));
      const uint32_t next = (leaf + 1 < num_leaves)
                                ? first_leaf + static_cast<uint32_t>(leaf) + 1
                                : kInvalidPage;
      WriteU32(page + 4, next);
      std::memcpy(page + kHeaderSize, sorted_keys[pos].data(),
                  take * kKeyBytes);
      const uint32_t page_no = file_.AppendPage(page);
      level.emplace_back(sorted_keys[pos], page_no);
      pos += take;
    }
    first_leaf_page_ = first_leaf;
    num_leaves_ = static_cast<uint32_t>(num_leaves);
    leaf_chain_contiguous_ = true;
  }
  height_ = 1;

  // Upper levels.
  while (level.size() > 1) {
    std::vector<std::pair<Key, uint32_t>> next_level;
    size_t pos = 0;
    while (pos < level.size()) {
      const size_t take =
          std::min<size_t>(kInternalCapacity + 1, level.size() - pos);
      std::memset(page, 0, sizeof(page));
      WriteU16(page, 0);  // internal
      WriteU16(page + 2, static_cast<uint16_t>(take - 1));
      WriteU32(page + 4, kInvalidPage);
      for (size_t i = 0; i < take; ++i) {
        WriteU32(page + kHeaderSize + i * sizeof(uint32_t),
                 level[pos + i].second);
      }
      for (size_t i = 1; i < take; ++i) {
        std::memcpy(page + kInternalKeyOff + (i - 1) * kKeyBytes,
                    level[pos + i].first.data(), kKeyBytes);
      }
      const uint32_t page_no = file_.AppendPage(page);
      next_level.emplace_back(level[pos].first, page_no);
      pos += take;
    }
    level = std::move(next_level);
    ++height_;
  }
  root_page_ = level[0].second;
}

template <int W>
void BPlusTree<W>::FindLeaf(const Key& key, uint32_t* leaf_page,
                            uint16_t* slot, bool* found) const {
  SWAN_CHECK_MSG(root_page_ != kInvalidPage, "tree not loaded");
  uint32_t page_no = root_page_;
  for (;;) {
    storage::PageGuard guard = pool_->Fetch(file_.page_id(page_no));
    const uint8_t* p = guard.data();
    const bool is_leaf = ReadU16(p) != 0;
    const uint16_t count = ReadU16(p + 2);
    if (is_leaf) {
      // Lower bound within the leaf.
      uint16_t lo = 0, hi = count;
      while (lo < hi) {
        const uint16_t mid = (lo + hi) / 2;
        if (LeafKeyAt(p, mid) < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      *leaf_page = page_no;
      *slot = lo;
      *found = lo < count && LeafKeyAt(p, lo) == key;
      return;
    }
    // Internal: find first separator > key; descend into that child.
    uint16_t lo = 0, hi = count;
    while (lo < hi) {
      const uint16_t mid = (lo + hi) / 2;
      if (InternalKeyAt(p, mid) <= key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    page_no = ChildAt(p, lo);
  }
}

template <int W>
bool BPlusTree<W>::Contains(const Key& key) const {
  uint32_t leaf;
  uint16_t slot;
  bool found;
  FindLeaf(key, &leaf, &slot, &found);
  return found;
}

template <int W>
uint64_t BPlusTree<W>::CountPrefix(std::span<const uint64_t> prefix) const {
  SWAN_CHECK_LE(prefix.size(), static_cast<size_t>(W));
  Key lower{};
  lower.fill(0);
  std::copy(prefix.begin(), prefix.end(), lower.begin());
  uint64_t count = 0;
  Walk(lower, [&](const LeafKeys<W>& keys) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const Key key = keys[i];
      if (!std::equal(prefix.begin(), prefix.end(), key.begin())) return false;
      ++count;
    }
    return true;
  });
  return count;
}

template <int W>
typename BPlusTree<W>::SplitResult BPlusTree<W>::InsertRecurse(
    uint32_t page_no, const Key& key, bool* inserted) {
  alignas(8) uint8_t page[storage::kPageSize];
  {
    storage::PageGuard guard = pool_->Fetch(file_.page_id(page_no));
    std::memcpy(page, guard.data(), storage::kPageSize);
  }
  const bool is_leaf = ReadU16(page) != 0;
  uint16_t count = ReadU16(page + 2);

  if (is_leaf) {
    uint16_t lo = 0, hi = count;
    while (lo < hi) {
      const uint16_t mid = (lo + hi) / 2;
      if (LeafKeyAt(page, mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < count && LeafKeyAt(page, lo) == key) {
      *inserted = false;
      return {};
    }
    *inserted = true;
    ++size_;
    // Shift and insert.
    uint8_t* base = page + kHeaderSize;
    std::memmove(base + (lo + 1) * kKeyBytes, base + lo * kKeyBytes,
                 (count - lo) * kKeyBytes);
    std::memcpy(base + lo * kKeyBytes, key.data(), kKeyBytes);
    ++count;
    WriteU16(page + 2, count);

    if (count <= kLeafCapacity) {
      pool_->WriteThrough(file_.page_id(page_no), page);
      return {};
    }
    // Split: left keeps half, right gets the rest.
    const uint16_t left_count = count / 2;
    const uint16_t right_count = count - left_count;
    alignas(8) uint8_t right[storage::kPageSize];
    std::memset(right, 0, sizeof(right));
    WriteU16(right, 1);
    WriteU16(right + 2, right_count);
    WriteU32(right + 4, ReadU32(page + 4));  // inherit next pointer
    std::memcpy(right + kHeaderSize, base + left_count * kKeyBytes,
                right_count * kKeyBytes);
    const uint32_t right_page = file_.AppendPage(right);
    // The new right sibling lives at the end of the file, out of key
    // order: chunked scans must fall back to the sibling chain from now
    // on.
    leaf_chain_contiguous_ = false;
    ++num_leaves_;

    WriteU16(page + 2, left_count);
    WriteU32(page + 4, right_page);
    pool_->WriteThrough(file_.page_id(page_no), page);

    SplitResult result;
    result.split = true;
    result.separator = LeafKeyAt(right, 0);
    result.right_page = right_page;
    return result;
  }

  // Internal node: find child and recurse.
  uint16_t lo = 0, hi = count;
  while (lo < hi) {
    const uint16_t mid = (lo + hi) / 2;
    if (InternalKeyAt(page, mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint32_t child = ChildAt(page, lo);
  const SplitResult child_split = InsertRecurse(child, key, inserted);
  if (!child_split.split) return {};

  // Insert separator at position lo, child pointer at lo+1.
  uint8_t* children = page + kHeaderSize;
  uint8_t* keys = page + kInternalKeyOff;
  std::memmove(children + (lo + 2) * sizeof(uint32_t),
               children + (lo + 1) * sizeof(uint32_t),
               (count - lo) * sizeof(uint32_t));
  WriteU32(children + (lo + 1) * sizeof(uint32_t), child_split.right_page);
  std::memmove(keys + (lo + 1) * kKeyBytes, keys + lo * kKeyBytes,
               (count - lo) * kKeyBytes);
  std::memcpy(keys + lo * kKeyBytes, child_split.separator.data(), kKeyBytes);
  ++count;
  WriteU16(page + 2, count);

  if (count <= kInternalCapacity) {
    pool_->WriteThrough(file_.page_id(page_no), page);
    return {};
  }

  // Split internal node. Key at position `mid` moves up as the separator.
  const uint16_t mid = count / 2;
  const uint16_t right_count = count - mid - 1;
  alignas(8) uint8_t right[storage::kPageSize];
  std::memset(right, 0, sizeof(right));
  WriteU16(right, 0);
  WriteU16(right + 2, right_count);
  WriteU32(right + 4, kInvalidPage);
  std::memcpy(right + kHeaderSize, children + (mid + 1) * sizeof(uint32_t),
              (right_count + 1) * sizeof(uint32_t));
  std::memcpy(right + kInternalKeyOff, keys + (mid + 1) * kKeyBytes,
              right_count * kKeyBytes);
  const uint32_t right_page = file_.AppendPage(right);

  SplitResult result;
  result.split = true;
  result.separator = InternalKeyAt(page, mid);
  result.right_page = right_page;

  WriteU16(page + 2, mid);
  pool_->WriteThrough(file_.page_id(page_no), page);
  return result;
}

template <int W>
void BPlusTree<W>::AuditWalk(uint32_t page_no, int depth, const Key* lower,
                             const Key* upper, AuditWalkState* state) const {
  const std::string at = "page " + std::to_string(page_no);
  if (page_no >= file_.page_count()) {
    state->Add(at + ": child pointer past end of file (" +
               std::to_string(file_.page_count()) + " pages)");
    return;
  }
  if (!state->visited.insert(page_no).second) {
    state->Add(at + ": reachable twice (cycle or shared child)");
    return;
  }

  // Copy the image out so no pin is held across the recursion; a checksum
  // mismatch is a finding, not an abort.
  alignas(8) uint8_t page[storage::kPageSize];
  {
    storage::PageGuard guard;
    Status st = pool_->TryFetch(file_.page_id(page_no), &guard);
    if (!st.ok()) {
      state->report->Add(audit::FindingClass::kChecksum, state->object,
                         at + ": " + st.message());
      return;
    }
    std::memcpy(page, guard.data(), storage::kPageSize);
  }

  const uint16_t is_leaf_raw = ReadU16(page);
  if (is_leaf_raw > 1) {
    state->Add(at + ": header is_leaf flag is " +
               std::to_string(is_leaf_raw) + ", expected 0 or 1");
    return;
  }
  const bool is_leaf = is_leaf_raw != 0;
  const uint16_t count = ReadU16(page + 2);
  const bool is_root = page_no == root_page_;

  if (is_leaf) {
    if (count > kLeafCapacity) {
      state->Add(at + ": leaf count " + std::to_string(count) +
                 " exceeds capacity " + std::to_string(kLeafCapacity));
      return;  // key slots past capacity would read garbage
    }
    if (count == 0 && !is_root) {
      state->Add(at + ": empty non-root leaf violates minimum fill");
    }
    if (state->leaf_depth == -1) {
      state->leaf_depth = depth;
    } else if (depth != state->leaf_depth) {
      state->Add(at + ": leaf at depth " + std::to_string(depth) +
                 " but first leaf was at depth " +
                 std::to_string(state->leaf_depth));
    }
    Key prev{};
    for (uint16_t i = 0; i < count; ++i) {
      const Key k = LeafKeyAt(page, i);
      if (i > 0 && !(prev < k)) {
        state->Add(at + ": leaf keys out of order at slot " +
                   std::to_string(i) + ": " + RenderKey(prev) + " !< " +
                   RenderKey(k));
      }
      if (lower != nullptr && k < *lower) {
        state->Add(at + ": key " + RenderKey(k) +
                   " below subtree lower bound " + RenderKey(*lower));
      }
      if (upper != nullptr && !(k < *upper)) {
        state->Add(at + ": key " + RenderKey(k) +
                   " not below subtree upper bound " + RenderKey(*upper));
      }
      prev = k;
    }
    state->leaf_keys += count;
    state->leaves.emplace_back(page_no, ReadU32(page + 4));
    return;
  }

  // Internal node.
  if (count > kInternalCapacity) {
    state->Add(at + ": internal count " + std::to_string(count) +
               " exceeds capacity " + std::to_string(kInternalCapacity));
    return;
  }
  if (count == 0) {
    state->Add(at + ": internal node with zero separators");
    return;
  }
  // Separators must be strictly increasing and within the propagated
  // bounds; each child subtree inherits the adjacent separators as bounds.
  std::vector<Key> seps(count);
  for (uint16_t i = 0; i < count; ++i) {
    seps[i] = InternalKeyAt(page, i);
    if (i > 0 && !(seps[i - 1] < seps[i])) {
      state->Add(at + ": separators out of order at slot " +
                 std::to_string(i) + ": " + RenderKey(seps[i - 1]) + " !< " +
                 RenderKey(seps[i]));
    }
    if (lower != nullptr && seps[i] < *lower) {
      state->Add(at + ": separator " + RenderKey(seps[i]) +
                 " below subtree lower bound " + RenderKey(*lower));
    }
    if (upper != nullptr && !(seps[i] < *upper)) {
      state->Add(at + ": separator " + RenderKey(seps[i]) +
                 " not below subtree upper bound " + RenderKey(*upper));
    }
  }
  for (uint16_t i = 0; i <= count; ++i) {
    if (state->findings_budget < 0) return;
    const Key* child_lower = (i == 0) ? lower : &seps[i - 1];
    const Key* child_upper = (i == count) ? upper : &seps[i];
    AuditWalk(ChildAt(page, i), depth + 1, child_lower, child_upper, state);
  }
}

template <int W>
void BPlusTree<W>::AuditInto(audit::AuditLevel level,
                             audit::AuditReport* report) const {
  const std::string object =
      "bplustree(file " + std::to_string(file_.file_id()) + ")";
  if (root_page_ == kInvalidPage) {
    if (size_ != 0) {
      report->Add(audit::FindingClass::kBPlusTree, object,
                  "unloaded tree claims size " + std::to_string(size_));
    }
    return;
  }
  if (level < audit::AuditLevel::kFull) return;  // all checks walk pages

  AuditWalkState state;
  state.report = report;
  state.object = object;
  AuditWalk(root_page_, 1, nullptr, nullptr, &state);
  if (state.findings_budget < 0) return;  // structure too damaged to sum up

  if (state.leaf_keys != size_) {
    state.Add("leaf keys total " + std::to_string(state.leaf_keys) +
              " but tree claims size " + std::to_string(size_));
  }
  if (state.leaf_depth != height_) {
    state.Add("leaf depth " + std::to_string(state.leaf_depth) +
              " but tree claims height " + std::to_string(height_));
  }
  // Leaf sibling chain must enumerate the leaves in key order.
  for (size_t i = 0; i < state.leaves.size(); ++i) {
    const uint32_t next = state.leaves[i].second;
    const uint32_t expect = (i + 1 < state.leaves.size())
                                ? state.leaves[i + 1].first
                                : kInvalidPage;
    if (next != expect) {
      state.Add("leaf page " + std::to_string(state.leaves[i].first) +
                " chains to " + std::to_string(next) + ", expected " +
                std::to_string(expect));
    }
  }
}

template <int W>
bool BPlusTree<W>::Insert(const Key& key) {
  if (root_page_ == kInvalidPage) {
    BulkLoad(std::span<const Key>(&key, 1));
    return true;
  }
  bool inserted = false;
  const SplitResult split = InsertRecurse(root_page_, key, &inserted);
  if (split.split) {
    alignas(8) uint8_t page[storage::kPageSize];
    std::memset(page, 0, sizeof(page));
    WriteU16(page, 0);
    WriteU16(page + 2, 1);
    WriteU32(page + 4, kInvalidPage);
    WriteU32(page + kHeaderSize, root_page_);
    WriteU32(page + kHeaderSize + sizeof(uint32_t), split.right_page);
    std::memcpy(page + kInternalKeyOff, split.separator.data(), kKeyBytes);
    root_page_ = file_.AppendPage(page);
    ++height_;
  }
  return inserted;
}

}  // namespace swan::rowstore

#endif  // SWANDB_ROWSTORE_BPLUS_TREE_H_
