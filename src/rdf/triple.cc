#include "rdf/triple.h"

#include <algorithm>
#include <bit>

#include "common/macros.h"

namespace swan::rdf {

std::array<int, 3> ComponentsOf(TripleOrder order) {
  switch (order) {
    case TripleOrder::kSPO:
      return {0, 1, 2};
    case TripleOrder::kSOP:
      return {0, 2, 1};
    case TripleOrder::kPSO:
      return {1, 0, 2};
    case TripleOrder::kPOS:
      return {1, 2, 0};
    case TripleOrder::kOSP:
      return {2, 0, 1};
    case TripleOrder::kOPS:
      return {2, 1, 0};
  }
  SWAN_CHECK(false);
  return {0, 1, 2};
}

std::array<uint64_t, 3> KeyOf(const Triple& t, TripleOrder order) {
  const uint64_t spo[3] = {t.subject, t.property, t.object};
  const auto comp = ComponentsOf(order);
  return {spo[comp[0]], spo[comp[1]], spo[comp[2]]};
}

namespace {

constexpr int kRadixBits = 11;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;

// LSD radix sort of the low `bits` bits of every word (the rest are zero).
// All digit histograms come from one read pass.
void RadixSortPacked(std::vector<uint64_t>* words, int bits) {
  const size_t n = words->size();
  const int passes = (bits + kRadixBits - 1) / kRadixBits;
  std::vector<size_t> counts(static_cast<size_t>(passes) * kRadixBuckets, 0);
  for (const uint64_t w : *words) {
    for (int p = 0; p < passes; ++p) {
      ++counts[p * kRadixBuckets +
               ((w >> (p * kRadixBits)) & (kRadixBuckets - 1))];
    }
  }
  std::vector<uint64_t> scratch(n);
  for (int p = 0; p < passes; ++p) {
    size_t* count = counts.data() + p * kRadixBuckets;
    size_t offset = 0;
    for (size_t b = 0; b < kRadixBuckets; ++b) {
      const size_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (const uint64_t w : *words) {
      scratch[count[(w >> (p * kRadixBits)) & (kRadixBuckets - 1)]++] = w;
    }
    words->swap(scratch);
  }
}

}  // namespace

void SortKeys(std::vector<std::array<uint64_t, 3>>* keys) {
  uint64_t any_bits[3] = {};
  for (const auto& key : *keys) {
    for (int c = 0; c < 3; ++c) any_bits[c] |= key[c];
  }
  int width[3];
  int total = 0;
  for (int c = 0; c < 3; ++c) {
    width[c] = std::bit_width(any_bits[c]);
    total += width[c];
  }
  if (total > 64) {
    std::sort(keys->begin(), keys->end());
    return;
  }

  // Component c sits above the components after it. A full-width (64-bit)
  // component is the only non-empty one, so it is the whole word.
  std::vector<uint64_t> packed(keys->size());
  for (size_t i = 0; i < keys->size(); ++i) {
    uint64_t word = 0;
    for (int c = 0; c < 3; ++c) {
      const uint64_t id = (*keys)[i][c];
      word = width[c] == 64 ? id : (word << width[c]) | id;
    }
    packed[i] = word;
  }
  RadixSortPacked(&packed, total);
  for (size_t i = 0; i < keys->size(); ++i) {
    uint64_t word = packed[i];
    for (int c = 2; c >= 0; --c) {
      if (width[c] == 64) {
        (*keys)[i][c] = word;
        word = 0;
      } else {
        (*keys)[i][c] = word & ((uint64_t{1} << width[c]) - 1);
        word >>= width[c];
      }
    }
  }
}

Triple TripleFromKey(const std::array<uint64_t, 3>& key, TripleOrder order) {
  const auto comp = ComponentsOf(order);
  uint64_t spo[3];
  for (int i = 0; i < 3; ++i) spo[comp[i]] = key[i];
  return Triple{spo[0], spo[1], spo[2]};
}

std::string ToString(TripleOrder order) {
  switch (order) {
    case TripleOrder::kSPO:
      return "SPO";
    case TripleOrder::kSOP:
      return "SOP";
    case TripleOrder::kPSO:
      return "PSO";
    case TripleOrder::kPOS:
      return "POS";
    case TripleOrder::kOSP:
      return "OSP";
    case TripleOrder::kOPS:
      return "OPS";
  }
  return "?";
}

}  // namespace swan::rdf
