#ifndef SWANDB_RDF_TRIPLE_H_
#define SWANDB_RDF_TRIPLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace swan::rdf {

// One RDF statement, dictionary-encoded. An RDF graph is a *set* of
// triples; loaders deduplicate.
struct Triple {
  uint64_t subject;
  uint64_t property;
  uint64_t object;

  friend bool operator==(const Triple& a, const Triple& b) = default;
  friend auto operator<=>(const Triple& a, const Triple& b) = default;
};

// The six physical orderings of the triple components. The paper's central
// row-store finding is that the choice between SPO and PSO clustering
// changes query times by factors of 2–5 (§4.3).
enum class TripleOrder { kSPO, kSOP, kPSO, kPOS, kOSP, kOPS };

// Component order of a TripleOrder: returns indices into (s, p, o).
// E.g. kPSO -> {1, 0, 2}.
std::array<int, 3> ComponentsOf(TripleOrder order);

// Permutes a triple into the key layout of `order`.
std::array<uint64_t, 3> KeyOf(const Triple& t, TripleOrder order);

// Sorts triple keys ascending, in the order std::sort gives them. Ids are
// dense, so a key's three components usually fit one uint64 together:
// each is packed at its bit width (that of the largest id it holds) and
// the packed words are LSD-radix-sorted 11 bits a pass. Falls back to
// std::sort when the packed width exceeds 64 bits.
void SortKeys(std::vector<std::array<uint64_t, 3>>* keys);

// Reassembles a Triple from a permuted key.
Triple TripleFromKey(const std::array<uint64_t, 3>& key, TripleOrder order);

// Short display name, e.g. "PSO".
std::string ToString(TripleOrder order);

struct TripleHash {
  size_t operator()(const Triple& t) const {
    uint64_t h = t.subject * 0x9e3779b97f4a7c15ULL;
    h ^= (t.property + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= (t.object + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

}  // namespace swan::rdf

#endif  // SWANDB_RDF_TRIPLE_H_
