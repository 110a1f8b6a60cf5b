#ifndef SWANDB_COMMON_ID_HASH_H_
#define SWANDB_COMMON_ID_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace swan {

namespace id_hash_internal {
struct NoValue {};
}  // namespace id_hash_internal

// A flat hash table keyed by 64-bit ids (dictionary ids, packed id pairs,
// column values): open addressing with linear probing and a Fibonacci
// hash, so a probe is one multiply and usually one cache line. Every key
// is valid. The slot array marks an empty slot with the key 2^64 - 1, so
// that one key lives in a side slot instead.
//
// IdMap<V> maps each key to a V, value-initialized on first use, and grows
// at load 1/2. IdSet is the same table without values; it grows at load
// 1/4. A set is built once and then probed once per scanned tuple, mostly
// for keys it does not hold, and a miss walks the probe run to its end:
// the sparser table keeps those runs short, and its slots are half the
// size of a map's. Reserve(n) sizes the table for n keys at once, so a
// merge of known size never rehashes part way. ForEach visits every key
// exactly once, in unspecified order.
template <typename V>
class IdMap {
  static constexpr bool kIsSet = std::is_same_v<V, id_hash_internal::NoValue>;

 public:
  IdMap() { Rehash(kMinCapacity); }

  size_t size() const { return size_; }
  // Slots in the table, a power of two.
  size_t capacity() const { return slots_.size(); }

  // Grows the table so that `n` keys fit without a rehash; does nothing
  // when they already do. Keys and values are kept.
  void Reserve(size_t n) {
    size_t capacity = slots_.size();
    while (kLoadInverse * n > capacity) capacity *= 2;
    if (capacity != slots_.size()) Rehash(capacity);
  }

  // Adds `key` (with a value-initialized V); true if it was not present.
  bool Insert(uint64_t key) {
    const size_t before = size_;
    Emplace(key);
    return size_ != before;
  }

  // The value of `key`, added value-initialized if absent.
  V& operator[](uint64_t key)
    requires(!kIsSet)
  {
    return Emplace(key).value;
  }

  bool contains(uint64_t key) const {
    if (key == kEmptyKey) return has_side_;
    return slots_[SlotOf(key)].key == key;
  }

  // The value of `key`, or nullptr if absent.
  const V* Find(uint64_t key) const
    requires(!kIsSet)
  {
    if (key == kEmptyKey) return has_side_ ? &side_.value : nullptr;
    const Slot& slot = slots_[SlotOf(key)];
    return slot.key == key ? &slot.value : nullptr;
  }

  // fn(key) for a set, fn(key, value) for a map, once per key.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    const auto visit = [&](const Slot& slot) {
      if constexpr (kIsSet) {
        fn(slot.key);
      } else {
        fn(slot.key, slot.value);
      }
    };
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) visit(slot);
    }
    if (has_side_) visit(side_);
  }

 private:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr size_t kMinCapacity = 8;
  // The table grows past load 1 / kLoadInverse.
  static constexpr size_t kLoadInverse = kIsSet ? 4 : 2;

  struct Slot {
    uint64_t key = kEmptyKey;
    [[no_unique_address]] V value{};
  };

  // The slot holding `key` (!= kEmptyKey), else the empty slot ending its
  // probe run.
  size_t SlotOf(uint64_t key) const {
    size_t slot = (key * 0x9E3779B97F4A7C15ull) >> shift_;
    while (slots_[slot].key != key && slots_[slot].key != kEmptyKey) {
      slot = (slot + 1) & (slots_.size() - 1);
    }
    return slot;
  }

  Slot& Emplace(uint64_t key) {
    if (key == kEmptyKey) {
      if (!has_side_) {
        has_side_ = true;
        ++size_;
      }
      return side_;
    }
    size_t slot = SlotOf(key);
    if (slots_[slot].key == key) return slots_[slot];
    if (kLoadInverse * (size_ + 1) > slots_.size()) {
      Rehash(2 * slots_.size());
      slot = SlotOf(key);
    }
    slots_[slot].key = key;
    ++size_;
    return slots_[slot];
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    for (Slot& slot : old) {
      if (slot.key != kEmptyKey) slots_[SlotOf(slot.key)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 0;
  size_t size_ = 0;  // keys, the side slot's included
  bool has_side_ = false;
  Slot side_;
};

using IdSet = IdMap<id_hash_internal::NoValue>;

}  // namespace swan

#endif  // SWANDB_COMMON_ID_HASH_H_
