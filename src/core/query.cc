#include "core/query.h"

#include <algorithm>

#include "common/macros.h"

namespace swan::core {

const std::vector<QueryId>& AllQueries() {
  static const std::vector<QueryId>* const kAll = new std::vector<QueryId>{
      QueryId::kQ1, QueryId::kQ2, QueryId::kQ2Star, QueryId::kQ3,
      QueryId::kQ3Star, QueryId::kQ4, QueryId::kQ4Star, QueryId::kQ5,
      QueryId::kQ6, QueryId::kQ6Star, QueryId::kQ7, QueryId::kQ8};
  return *kAll;
}

const std::vector<QueryId>& InitialQueries() {
  static const std::vector<QueryId>* const kInitial = new std::vector<QueryId>{
      QueryId::kQ1, QueryId::kQ2, QueryId::kQ3, QueryId::kQ4,
      QueryId::kQ5, QueryId::kQ6, QueryId::kQ7};
  return *kInitial;
}

std::string ToString(QueryId id) {
  switch (id) {
    case QueryId::kQ1:
      return "q1";
    case QueryId::kQ2:
      return "q2";
    case QueryId::kQ2Star:
      return "q2*";
    case QueryId::kQ3:
      return "q3";
    case QueryId::kQ3Star:
      return "q3*";
    case QueryId::kQ4:
      return "q4";
    case QueryId::kQ4Star:
      return "q4*";
    case QueryId::kQ5:
      return "q5";
    case QueryId::kQ6:
      return "q6";
    case QueryId::kQ6Star:
      return "q6*";
    case QueryId::kQ7:
      return "q7";
    case QueryId::kQ8:
      return "q8";
  }
  return "?";
}

bool IsStar(QueryId id) {
  switch (id) {
    case QueryId::kQ2Star:
    case QueryId::kQ3Star:
    case QueryId::kQ4Star:
    case QueryId::kQ6Star:
      return true;
    default:
      return false;
  }
}

QueryId BaseOf(QueryId id) {
  switch (id) {
    case QueryId::kQ2Star:
      return QueryId::kQ2;
    case QueryId::kQ3Star:
      return QueryId::kQ3;
    case QueryId::kQ4Star:
      return QueryId::kQ4;
    case QueryId::kQ6Star:
      return QueryId::kQ6;
    default:
      return id;
  }
}

const char* FamilyName(QueryId id) {
  switch (BaseOf(id)) {
    case QueryId::kQ1:
      return "q1";
    case QueryId::kQ2:
      return "q2_family";
    case QueryId::kQ3:
    case QueryId::kQ4:
      return "q3_family";
    case QueryId::kQ5:
      return "q5";
    case QueryId::kQ6:
      return "q6_family";
    case QueryId::kQ7:
      return "q7";
    default:
      return "q8";
  }
}

bool UsesPropertyFilter(QueryId id) {
  switch (BaseOf(id)) {
    case QueryId::kQ2:
    case QueryId::kQ3:
    case QueryId::kQ4:
    case QueryId::kQ6:
      return true;
    default:
      return false;
  }
}

QueryCoverage CoverageOf(QueryId id) {
  // Table 2 of the paper, extended with q8.
  switch (BaseOf(id)) {
    case QueryId::kQ1:
      return {{7}, "-"};
    case QueryId::kQ2:
      return {{2, 8}, "A"};
    case QueryId::kQ3:
      return {{2, 8}, "A"};
    case QueryId::kQ4:
      return {{2, 8}, "A"};
    case QueryId::kQ5:
      return {{2, 7}, "A, C"};
    case QueryId::kQ6:
      return {{2, 7, 8}, "A, C"};
    case QueryId::kQ7:
      return {{2, 7}, "A"};
    case QueryId::kQ8:
      return {{6, 8}, "B"};
    default:
      return {{}, "-"};
  }
}

Result<Vocabulary> Vocabulary::Resolve(const rdf::Dataset& dataset,
                                       const VocabularyNames& names) {
  const auto& dict = dataset.dict();
  Vocabulary v;
  struct Entry {
    const std::string* name;
    uint64_t* slot;
  };
  Entry entries[] = {
      {&names.type, &v.type},           {&names.text, &v.text},
      {&names.language, &v.language},   {&names.french, &v.french},
      {&names.origin, &v.origin},       {&names.dlc, &v.dlc},
      {&names.records, &v.records},     {&names.point, &v.point},
      {&names.end, &v.end},             {&names.encoding, &v.encoding},
      {&names.conferences, &v.conferences},
  };
  for (const Entry& e : entries) {
    auto id = dict.Find(*e.name);
    if (!id) {
      return Status::NotFound("vocabulary term not in dictionary: " + *e.name);
    }
    *e.slot = *id;
  }
  return v;
}

QueryContext::QueryContext(Vocabulary vocab,
                           std::vector<uint64_t> interesting_properties,
                           uint64_t dict_size,
                           uint64_t total_distinct_properties)
    : vocab_(vocab),
      interesting_(std::move(interesting_properties)),
      dict_size_(dict_size),
      total_distinct_properties_(total_distinct_properties) {
  std::sort(interesting_.begin(), interesting_.end());
  interesting_.erase(std::unique(interesting_.begin(), interesting_.end()),
                     interesting_.end());
  interesting_set_.insert(interesting_.begin(), interesting_.end());
}

const std::vector<uint64_t>* PropertyFilter(QueryId id,
                                            const QueryContext& ctx) {
  if (!UsesPropertyFilter(id) || IsStar(id) || ctx.FilterCoversAll()) {
    return nullptr;
  }
  return &ctx.interesting_properties();
}

void QueryResult::Normalize() { std::sort(rows.begin(), rows.end()); }

bool QueryResult::SameRows(const QueryResult& other) const {
  if (rows.size() != other.rows.size()) return false;
  std::vector<std::vector<uint64_t>> a = rows;
  std::vector<std::vector<uint64_t>> b = other.rows;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace swan::core
