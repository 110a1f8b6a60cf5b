#ifndef SWANDB_CORE_QUERY_H_
#define SWANDB_CORE_QUERY_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "rdf/dataset.h"

namespace swan::core {

// The paper's extended benchmark: q1–q7 from Abadi et al., the
// object-object-join query q8 added in §2.2, and the full-scale `*`
// variants of q2/q3/q4/q6 that aggregate over all properties instead of
// the 28 "interesting" ones (§4.1).
enum class QueryId {
  kQ1,
  kQ2,
  kQ2Star,
  kQ3,
  kQ3Star,
  kQ4,
  kQ4Star,
  kQ5,
  kQ6,
  kQ6Star,
  kQ7,
  kQ8,
};

// All 12 queries in the column order of Tables 6/7.
const std::vector<QueryId>& AllQueries();

// The initial 7 queries (the C-Store-comparable subset behind the paper's
// "G" geometric mean).
const std::vector<QueryId>& InitialQueries();

// Display name, e.g. "q2*".
std::string ToString(QueryId id);

// True for the full-scale variants q2*, q3*, q4*, q6*.
bool IsStar(QueryId id);

// Maps a star query to its restricted form (identity otherwise).
QueryId BaseOf(QueryId id);

// The family a query's engine root span is named after, "<tag>.<family>":
// q1, q2_family (q2, q2*), q3_family (q3, q3*, q4, q4*), q5, q6_family
// (q6, q6*), q7 or q8.
const char* FamilyName(QueryId id);

// Whether the query takes the "interesting properties" restriction at all
// (q1, q5, q7, q8 do not).
bool UsesPropertyFilter(QueryId id);

// Table 2 metadata: which simple triple patterns (1..8, Figure 2 left)
// and join patterns (A/B/C) a query exercises.
struct QueryCoverage {
  std::vector<int> triple_patterns;
  std::string join_patterns;  // e.g. "A, C" or "-"
};
QueryCoverage CoverageOf(QueryId id);

// Dictionary ids of the constants the benchmark queries bind. Term
// spellings default to the Barton-like generator's vocabulary but can be
// overridden for externally loaded data.
struct VocabularyNames {
  std::string type = "<type>";
  std::string text = "<Text>";
  std::string language = "<language>";
  std::string french = "<language/iso639-2b/fre>";
  std::string origin = "<origin>";
  std::string dlc = "<info:marcorg/DLC>";
  std::string records = "<records>";
  std::string point = "<Point>";
  std::string end = "\"end\"";
  std::string encoding = "<Encoding>";
  std::string conferences = "<conferences>";
};

struct Vocabulary {
  uint64_t type = 0;
  uint64_t text = 0;
  uint64_t language = 0;
  uint64_t french = 0;
  uint64_t origin = 0;
  uint64_t dlc = 0;
  uint64_t records = 0;
  uint64_t point = 0;
  uint64_t end = 0;
  uint64_t encoding = 0;
  uint64_t conferences = 0;

  // Resolves all names against the dataset's dictionary; fails with
  // NotFound if any term is absent.
  static Result<Vocabulary> Resolve(const rdf::Dataset& dataset,
                                    const VocabularyNames& names = {});
};

// Everything a backend needs to execute a benchmark query besides its own
// data: the bound constants, the "interesting properties" restriction and
// the dictionary size (for dense id-indexed processing).
class QueryContext {
 public:
  QueryContext(Vocabulary vocab, std::vector<uint64_t> interesting_properties,
               uint64_t dict_size, uint64_t total_distinct_properties);

  const Vocabulary& vocab() const { return vocab_; }
  uint64_t dict_size() const { return dict_size_; }

  // Sorted list the non-star queries restrict to ("the 28").
  const std::vector<uint64_t>& interesting_properties() const {
    return interesting_;
  }
  bool IsInteresting(uint64_t property) const {
    return interesting_set_.count(property) != 0;
  }

  // True when the restriction list covers every property in the data set;
  // the property filter is then dropped entirely — the effect behind the
  // time drop at 222 properties in Figure 6.
  bool FilterCoversAll() const {
    return interesting_.size() >= total_distinct_properties_;
  }

 private:
  Vocabulary vocab_;
  std::vector<uint64_t> interesting_;
  std::unordered_set<uint64_t> interesting_set_;
  uint64_t dict_size_;
  uint64_t total_distinct_properties_;
};

// The property list a q2/q3/q4/q6-family query restricts to, or nullptr
// when it visits every property (q1/q5/q7/q8, the star variants, or a
// restriction that covers the whole schema).
const std::vector<uint64_t>* PropertyFilter(QueryId id,
                                            const QueryContext& ctx);

// A relational query result over dictionary ids. Aggregate counts are
// stored as plain uint64 values in their column.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<std::vector<uint64_t>> rows;

  uint64_t row_count() const { return rows.size(); }

  // Sorts rows lexicographically (results are bags; ordering is not part
  // of query semantics).
  void Normalize();

  // Bag equality after normalization.
  bool SameRows(const QueryResult& other) const;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_QUERY_H_
