#ifndef SWANDB_RDF_TERM_COUNTS_H_
#define SWANDB_RDF_TERM_COUNTS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rdf/triple.h"

namespace swan::rdf {

// How often each term occurs as the subject, property and object of a
// triple set, in one array indexed by term id. Dictionary ids are dense
// ([0, dict.size())), so the array is as long as the dictionary and every
// tally and lookup is one indexed access: the load-time statistics of the
// planner, the row engine and the Table 1 / Figure 1 benches are counting
// passes over it rather than hash-map builds.
class TermCounts {
 public:
  struct Roles {
    uint64_t subject = 0;
    uint64_t property = 0;
    uint64_t object = 0;
  };

  TermCounts() = default;
  explicit TermCounts(std::span<const Triple> triples);

  // Counts one more triple, growing the array if it names an id past
  // universe().
  void Add(const Triple& t);

  // Zero counts for an id that was never counted.
  Roles of(uint64_t id) const {
    return id < roles_.size() ? roles_[id] : Roles{};
  }

  // Every slot, indexed by id: one past the largest id counted.
  std::span<const Roles> roles() const { return roles_; }

 private:
  // Requires every id of `t` to be below roles_.size().
  void Count(const Triple& t) {
    ++roles_[t.subject].subject;
    ++roles_[t.property].property;
    ++roles_[t.object].object;
  }

  std::vector<Roles> roles_;
};

}  // namespace swan::rdf

#endif  // SWANDB_RDF_TERM_COUNTS_H_
