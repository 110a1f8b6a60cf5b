// An independent SPARQL oracle. A seeded generator draws random queries
// over the benchmark vocabulary (1–5 triple patterns with shared variables
// and variable properties; FILTER =, !=, < and IN in their pushed and
// residual forms; OPTIONAL groups; top-level UNION; DISTINCT, LIMIT,
// OFFSET) and renders each as SPARQL text. A naive evaluator with SPARQL
// 1.1 bag semantics answers it straight from the dataset's triple list,
// sharing no code with sparql/, plan/ or core/bgp.cc. Every backend that
// answers Match, plus the sharded vertical store at 2 and 4 nodes and the
// sharded triple store at 2, must return the oracle's solution multiset,
// cost-based through
// sparql::Execute and as written through core::PlanQuery/ExecutePlan, at
// the test's thread width. Under LIMIT or OFFSET (there is no ORDER BY)
// only the row count and containment in the full answer are checked.
// Byte-mutated copies of every query text must parse and lower to a typed
// error or a valid plan.
//
// Every other graph first takes a seeded batch of writes: inserts on
// existing and new properties and subjects, deletes of base rows and of
// unmerged inserts, and the re-insert of a deleted base row. The batch
// goes to every backend that accepts it (the row stores reject deletes
// and C-Store all writes, so they sit those graphs out) and to the
// oracle's triple list. Match never merges a column store's write store,
// so these graphs' queries all read through its overlay.
//
// The run is seeded from gtest's random seed and prints it: the default
// run uses seed 0, `--gtest_shuffle` draws a new seed each repetition, and
// `--gtest_shuffle --gtest_random_seed=N` replays seed N. A failure prints
// the seed and the query text.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bgp.h"
#include "core/col_backends.h"
#include "core/cstore_backend.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"
#include "plan/stats.h"
#include "rdf/dataset.h"
#include "shard/sharded_backend.h"
#include "sparql/sparql.h"

namespace swan {
namespace {

// The engine's marker for a variable an OPTIONAL or a UNION branch left
// unbound; the oracle uses it the same way.
constexpr uint64_t kUnbound = ~0ULL;

// --- The query AST and its SPARQL text --------------------------------------

struct Term {
  enum class Kind { kVar, kConst, kNumber };
  Kind kind = Kind::kVar;
  std::string text;  // variable name without '?', term text, or digits
};
struct Pattern {
  Term s, p, o;
};
struct Filter {
  std::string var;
  std::string op;  // "=", "!=", "<" or "IN"
  std::vector<Term> values;
};
struct Group {
  std::vector<Pattern> patterns;
  std::vector<Filter> filters;
};
struct Branch {
  Group required;
  std::vector<Group> optionals;
};
struct Query {
  bool distinct = false;
  std::vector<std::string> projection;  // empty: SELECT *
  std::vector<Branch> branches;
  std::optional<uint64_t> limit;
  std::optional<uint64_t> offset;
};

std::string Text(const Term& t) {
  return t.kind == Term::Kind::kVar ? "?" + t.text : t.text;
}

std::string Text(const Group& g) {
  std::string out;
  for (const Pattern& p : g.patterns) {
    out += Text(p.s) + " " + Text(p.p) + " " + Text(p.o) + " . ";
  }
  for (const Filter& f : g.filters) {
    out += "FILTER(?" + f.var + " " + f.op + " ";
    if (f.op == "IN") {
      out += "(";
      for (size_t i = 0; i < f.values.size(); ++i) {
        out += (i > 0 ? ", " : "") + Text(f.values[i]);
      }
      out += ")";
    } else {
      out += Text(f.values[0]);
    }
    out += ") ";
  }
  return out;
}

std::string Text(const Query& q) {
  std::string out = q.distinct ? "SELECT DISTINCT " : "SELECT ";
  if (q.projection.empty()) out += "* ";
  for (const std::string& v : q.projection) out += "?" + v + " ";
  out += "WHERE { ";
  for (size_t b = 0; b < q.branches.size(); ++b) {
    const Branch& branch = q.branches[b];
    std::string body = Text(Group{branch.required.patterns, {}});
    for (const Group& g : branch.optionals) body += "OPTIONAL { " + Text(g) + "} ";
    body += Text(Group{{}, branch.required.filters});
    if (q.branches.size() == 1) {
      out += body;
    } else {
      out += (b > 0 ? "UNION { " : "{ ") + body + "} ";
    }
  }
  out += "}";
  if (q.offset) out += " OFFSET " + std::to_string(*q.offset);
  if (q.limit) out += " LIMIT " + std::to_string(*q.limit);
  return out;
}

// --- The generator ----------------------------------------------------------

const std::vector<std::string> kProperties = {
    "<type>",  "<language>", "<origin>", "<records>", "<Point>",
    "<Encoding>", "<p0>",    "<p1>",     "<p2>",      "<p3>"};
const std::vector<std::string> kObjects = {
    "<Text>",   "<Date>",  "<language/iso639-2b/fre>", "<info:marcorg/DLC>",
    "\"end\"",  "\"start\"", "<enc0>", "\"lit0\"", "\"1\"", "\"2\"",
    "\"10\"",   "\"7\""};
constexpr uint64_t kSubjects = 30;
// The terms a write batch adds: one property and kNewSubjects subjects
// numbered from kSubjects.
const std::string kNewProperty = "<p-new>";
constexpr uint64_t kNewSubjects = 4;

std::string SubjectText(uint64_t i) { return "<s" + std::to_string(i) + ">"; }

// A random graph over the vocabulary: subjects also appear as objects
// (always under <records>), and some literals are numeric.
rdf::Dataset OracleGraph(uint64_t seed) {
  Rng rng(seed);
  rdf::Dataset data;
  for (int i = 0; i < 300; ++i) {
    const std::string& p = kProperties[rng.Uniform(kProperties.size())];
    const std::string o = p == "<records>" || rng.Chance(0.2)
                              ? SubjectText(rng.Uniform(kSubjects))
                              : kObjects[rng.Uniform(kObjects.size())];
    data.Add(SubjectText(rng.Uniform(kSubjects)), p, o);
  }
  return data;
}

// Inserts (true) and deletes, in order.
using WriteBatch = std::vector<std::pair<bool, rdf::Triple>>;

// A seeded batch of writes over `data`, whose new terms it interns (before
// any backend is built): deletes of base rows, inserts over old and new
// subjects, properties and objects, deletes of some of those inserts, and
// the re-insert of the first deleted row. Each write succeeds in order.
WriteBatch MakeWriteBatch(rdf::Dataset* data, uint64_t seed) {
  Rng rng(seed);
  const std::vector<rdf::Triple> base = data->triples();
  std::set<rdf::Triple> present(base.begin(), base.end());
  WriteBatch batch;
  const auto write = [&](bool insert, const rdf::Triple& t) {
    const bool applies = insert ? present.insert(t).second : present.erase(t);
    if (applies) batch.emplace_back(insert, t);
  };
  for (int i = 0; i < 12; ++i) write(false, base[rng.Uniform(base.size())]);
  const rdf::Triple revived = batch.front().second;
  std::vector<rdf::Triple> inserted;
  for (int i = 0; i < 24; ++i) {
    const uint64_t s = rng.Chance(0.3) ? kSubjects + rng.Uniform(kNewSubjects)
                                       : rng.Uniform(kSubjects);
    const std::string& p = rng.Chance(0.3)
                               ? kNewProperty
                               : kProperties[rng.Uniform(kProperties.size())];
    const std::string o =
        rng.Chance(0.25) ? SubjectText(rng.Uniform(kSubjects + kNewSubjects))
                         : kObjects[rng.Uniform(kObjects.size())];
    auto& dict = data->dict();
    const rdf::Triple t{dict.Intern(SubjectText(s)), dict.Intern(p),
                        dict.Intern(o)};
    if (present.count(t) == 0) inserted.push_back(t);
    write(true, t);
  }
  for (size_t i = 0; i < inserted.size(); i += 5) write(false, inserted[i]);
  write(true, revived);
  return batch;
}

class QueryGenerator {
 public:
  // Constants come from `properties` and the first `subjects` subjects.
  QueryGenerator(uint64_t seed, std::vector<std::string> properties,
                 uint64_t subjects)
      : rng_(seed), properties_(std::move(properties)), subjects_(subjects) {}

  Query Next() {
    Query q;
    q.branches.resize(rng_.Chance(0.15) ? 2 : 1);
    std::vector<std::string> all;
    for (Branch& b : q.branches) {
      vars_.clear();
      const int optionals = rng_.Chance(0.35) ? (rng_.Chance(0.35) ? 2 : 1) : 0;
      const int required = 1 + static_cast<int>(rng_.Uniform(5 - optionals));
      for (int i = 0; i < required; ++i) {
        b.required.patterns.push_back(NextPattern(i == 0, false));
      }
      for (int k = 0; k < optionals; ++k) {
        const size_t before = vars_.size();
        Group g;
        const int n = rng_.Chance(0.3) ? 2 : 1;
        for (int i = 0; i < n; ++i) {
          // The first pattern of a later group often starts at a variable
          // an earlier OPTIONAL introduced, which may be unbound.
          g.patterns.push_back(NextPattern(false, i == 0 && k > 0));
        }
        if (rng_.Chance(0.3)) g.filters.push_back(NextFilter());
        b.optionals.push_back(std::move(g));
        fresh_.assign(vars_.begin() + static_cast<ptrdiff_t>(before),
                      vars_.end());
      }
      fresh_.clear();
      for (uint64_t n = rng_.Uniform(3); n > 0; --n) {
        b.required.filters.push_back(NextFilter());
      }
      for (const std::string& v : vars_) {
        if (std::find(all.begin(), all.end(), v) == all.end()) all.push_back(v);
      }
    }
    if (rng_.Chance(0.6)) {
      for (const std::string& v : all) {
        if (rng_.Chance(0.5)) q.projection.push_back(v);
      }
      if (q.projection.empty()) q.projection.push_back(all.back());
    }
    q.distinct = rng_.Chance(0.3);
    if (rng_.Chance(0.2)) q.limit = rng_.Uniform(9);
    if (rng_.Chance(0.15)) q.offset = rng_.Uniform(6);
    return q;
  }

 private:
  Term Var(const std::string& name) {
    if (std::find(vars_.begin(), vars_.end(), name) == vars_.end()) {
      vars_.push_back(name);
    }
    return {Term::Kind::kVar, name};
  }
  Term FreshVar() { return Var(std::string(1, 'a' + vars_.size())); }
  Term OldVar() {
    return vars_.empty() ? FreshVar() : Var(vars_[rng_.Uniform(vars_.size())]);
  }
  Term Const(const std::vector<std::string>& from) {
    if (rng_.Chance(0.04)) return {Term::Kind::kConst, "<absent>"};
    return {Term::Kind::kConst, from[rng_.Uniform(from.size())]};
  }
  Term Object() {
    if (rng_.Chance(0.25)) {
      return {Term::Kind::kConst, SubjectText(rng_.Uniform(subjects_))};
    }
    return Const(kObjects);
  }

  // A pattern joined to the earlier ones through its subject or object
  // (the first pattern starts the chain).
  Pattern NextPattern(bool first, bool from_fresh) {
    Pattern p;
    const bool join_subject = rng_.Chance(0.65);
    if (first) {
      p.s = rng_.Chance(0.9) ? FreshVar()
                             : Term{Term::Kind::kConst,
                                    SubjectText(rng_.Uniform(subjects_))};
    } else if (from_fresh && !fresh_.empty()) {
      p.s = Var(fresh_[rng_.Uniform(fresh_.size())]);
    } else {
      p.s = join_subject ? OldVar() : FreshVar();
    }
    p.p = rng_.Chance(0.8) ? Const(properties_)
                           : (rng_.Chance(0.7) ? FreshVar() : OldVar());
    if (first && p.s.kind != Term::Kind::kVar) {
      p.o = FreshVar();  // every branch binds a variable
    } else if (!first && !join_subject && !from_fresh) {
      p.o = OldVar();
    } else {
      p.o = rng_.Chance(0.4) ? Object()
                             : (rng_.Chance(0.8) ? FreshVar() : OldVar());
    }
    return p;
  }

  Filter NextFilter() {
    static const char* kOps[] = {"=", "!=", "<", "IN"};
    Filter f;
    f.var = vars_[rng_.Uniform(vars_.size())];
    f.op = kOps[rng_.Uniform(4)];
    const auto operand = [&]() -> Term {
      if (f.op == "<") {
        if (rng_.Chance(0.6)) {
          return {Term::Kind::kNumber, std::to_string(rng_.Uniform(12))};
        }
        return rng_.Chance(0.5) ? Term{Term::Kind::kConst, "\"7\""} : OldVar();
      }
      if (rng_.Chance(0.1)) {
        return {Term::Kind::kNumber, std::to_string(rng_.Uniform(12))};
      }
      return f.op != "IN" && rng_.Chance(0.2) ? OldVar() : Object();
    };
    const uint64_t n = f.op == "IN" ? 1 + rng_.Uniform(3) : 1;
    for (uint64_t i = 0; i < n; ++i) f.values.push_back(operand());
    return f;
  }

  Rng rng_;
  const std::vector<std::string> properties_;
  const uint64_t subjects_;
  std::vector<std::string> vars_;   // the branch's variables so far
  std::vector<std::string> fresh_;  // introduced by the last OPTIONAL
};

// --- The oracle -------------------------------------------------------------

using Row = std::vector<uint64_t>;

// Numeric value of a term's text: the lexical form of a quoted literal
// that parses fully as a number, or a bare number.
std::optional<double> NumberOfText(const std::string& text) {
  std::string lexical = text;
  if (!text.empty() && text[0] == '"') {
    lexical = text.substr(1, text.find('"', 1) - 1);
  }
  if (lexical.empty() || lexical[0] == '<') return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(lexical.c_str(), &end);
  if (end != lexical.c_str() + lexical.size()) return std::nullopt;
  return v;
}

class Oracle {
 public:
  // Answers over `triples`, the graph after its writes; `data` holds the
  // dictionary.
  Oracle(const rdf::Dataset& data, std::vector<rdf::Triple> triples)
      : data_(data), triples_(std::move(triples)) {}

  // The query's solutions after projection and DISTINCT, before OFFSET
  // and LIMIT, over `vars`; nullopt when an intermediate bag outgrows
  // kBudget solutions (the generator then draws another query).
  std::optional<std::vector<Row>> Answer(const Query& q,
                                         std::vector<std::string>* vars) {
    over_ = false;
    index_.clear();
    names_.clear();
    for (const Branch& b : q.branches) {
      Index(b.required);
      for (const Group& g : b.optionals) Index(g);
    }
    std::vector<Row> all;
    for (const Branch& b : q.branches) {
      std::vector<Row> bag = {Row(names_.size(), kUnbound)};
      for (const Pattern& p : b.required.patterns) bag = Extend(bag, p);
      for (const Group& g : b.optionals) {
        std::vector<Row> joined;
        for (const Row& mu : bag) {
          std::vector<Row> ext = {mu};
          for (const Pattern& p : g.patterns) ext = Extend(ext, p);
          ext = Keep(ext, g.filters);
          if (ext.empty()) ext = {mu};
          joined.insert(joined.end(), ext.begin(), ext.end());
        }
        bag = std::move(joined);
        if (bag.size() > kBudget) return std::nullopt;
      }
      bag = Keep(bag, b.required.filters);
      if (bag.size() > kBudget || over_) return std::nullopt;
      all.insert(all.end(), bag.begin(), bag.end());
    }
    *vars = q.projection.empty() ? names_ : q.projection;
    std::vector<Row> out;
    for (const Row& mu : all) {
      Row row;
      for (const std::string& v : *vars) row.push_back(mu[index_.at(v)]);
      out.push_back(std::move(row));
    }
    std::sort(out.begin(), out.end());
    if (q.distinct) out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  static constexpr size_t kBudget = 20000;

  void Index(const Group& g) {
    const auto add = [&](const std::string& v) {
      if (index_.emplace(v, names_.size()).second) names_.push_back(v);
    };
    for (const Pattern& p : g.patterns) {
      for (const Term* t : {&p.s, &p.p, &p.o}) {
        if (t->kind == Term::Kind::kVar) add(t->text);
      }
    }
    for (const Filter& f : g.filters) add(f.var);
  }

  std::optional<uint64_t> IdOf(const Term& t) const {
    return data_.dict().Find(t.text);
  }

  // Join of `bag` with one triple pattern: every solution extended by
  // every triple compatible with it.
  std::vector<Row> Extend(const std::vector<Row>& bag, const Pattern& p) {
    std::vector<Row> out;
    const Term* terms[3] = {&p.s, &p.p, &p.o};
    std::optional<uint64_t> ids[3];
    for (int c = 0; c < 3; ++c) {
      if (terms[c]->kind == Term::Kind::kVar) continue;
      ids[c] = IdOf(*terms[c]);
      if (!ids[c]) return out;  // a constant absent from the data
    }
    for (const Row& mu : bag) {
      for (const rdf::Triple& t : triples_) {
        const uint64_t value[3] = {t.subject, t.property, t.object};
        Row next = mu;
        bool ok = true;
        for (int c = 0; c < 3 && ok; ++c) {
          if (ids[c]) {
            ok = *ids[c] == value[c];
            continue;
          }
          uint64_t& cell = next[index_.at(terms[c]->text)];
          if (cell == kUnbound) cell = value[c];
          ok = cell == value[c];
        }
        if (ok) out.push_back(std::move(next));
      }
      if (out.size() > kBudget) {
        over_ = true;
        return {};
      }
    }
    return out;
  }

  std::vector<Row> Keep(const std::vector<Row>& bag,
                        const std::vector<Filter>& filters) {
    std::vector<Row> out;
    for (const Row& mu : bag) {
      if (std::all_of(filters.begin(), filters.end(),
                      [&](const Filter& f) { return Passes(f, mu); })) {
        out.push_back(mu);
      }
    }
    return out;
  }

  std::optional<double> NumberOfId(uint64_t id) const {
    return NumberOfText(std::string(data_.dict().Lookup(id)));
  }

  // Whether ?var op value(s) holds; an unbound variable or a non-numeric
  // operand of a numeric comparison is an error, which fails the filter.
  bool Passes(const Filter& f, const Row& mu) const {
    const uint64_t lhs = mu[index_.at(f.var)];
    if (lhs == kUnbound) return false;
    // 1 true, 0 false, -1 error.
    const auto equals = [&](const Term& v) -> int {
      if (v.kind == Term::Kind::kVar) {
        const uint64_t rhs = mu[index_.at(v.text)];
        return rhs == kUnbound ? -1 : lhs == rhs;
      }
      if (v.kind == Term::Kind::kNumber) {
        const auto l = NumberOfId(lhs);
        return l ? *l == *NumberOfText(v.text) : -1;
      }
      const auto id = IdOf(v);
      return id && *id == lhs;
    };
    if (f.op == "=") return equals(f.values[0]) == 1;
    if (f.op == "!=") return equals(f.values[0]) == 0;
    if (f.op == "IN") {
      return std::any_of(f.values.begin(), f.values.end(),
                         [&](const Term& v) { return equals(v) == 1; });
    }
    const Term& v = f.values[0];
    std::optional<double> rhs;
    if (v.kind == Term::Kind::kVar) {
      const uint64_t id = mu[index_.at(v.text)];
      if (id != kUnbound) rhs = NumberOfId(id);
    } else {
      rhs = NumberOfText(v.text);
    }
    const auto l = NumberOfId(lhs);
    return l && rhs && *l < *rhs;
  }

  const rdf::Dataset& data_;
  const std::vector<rdf::Triple> triples_;
  std::map<std::string, size_t> index_;
  std::vector<std::string> names_;  // order of first appearance
  bool over_ = false;  // an Extend outgrew kBudget
};

// --- The run ----------------------------------------------------------------

// Every backend that answers Match: the column, row and C-Store designs,
// the reference, and the sharded vertical store at 2 and 4 nodes and the
// sharded triple store at 2.
std::vector<std::unique_ptr<core::Backend>> AllBackends(
    const rdf::Dataset& data) {
  std::vector<std::unique_ptr<core::Backend>> out;
  out.push_back(std::make_unique<core::ReferenceBackend>(data));
  for (rdf::TripleOrder order :
       {rdf::TripleOrder::kSPO, rdf::TripleOrder::kPSO}) {
    out.push_back(std::make_unique<core::ColTripleBackend>(data, order));
  }
  out.push_back(std::make_unique<core::ColVerticalBackend>(data));
  out.push_back(std::make_unique<core::RowTripleBackend>(
      data, rowstore::TripleRelation::SpoConfig()));
  out.push_back(std::make_unique<core::RowTripleBackend>(
      data, rowstore::TripleRelation::PsoConfig()));
  out.push_back(std::make_unique<core::RowVerticalBackend>(data));
  out.push_back(
      std::make_unique<core::CStoreBackend>(data, data.DistinctProperties()));
  for (auto [nodes, vertical] : {std::pair{2, true}, std::pair{4, true},
                                 std::pair{2, false}}) {
    shard::ShardOptions options;
    options.nodes = nodes;
    options.vertical = vertical;
    out.push_back(std::make_unique<shard::ShardedBackend>(data, options));
  }
  return out;
}

// Applies `batch` to each backend, dropping those that reject a write as
// unimplemented, and to `triples`.
void ApplyWrites(const WriteBatch& batch,
                 std::vector<std::unique_ptr<core::Backend>>* backends,
                 std::vector<rdf::Triple>* triples) {
  std::erase_if(*backends, [&](const auto& backend) {
    for (const auto& [insert, t] : batch) {
      const Status st = insert ? backend->Insert(t) : backend->Delete(t);
      if (st.code() == StatusCode::kUnimplemented) return true;
      EXPECT_TRUE(st.ok()) << backend->name() << ": " << st.ToString();
    }
    return false;
  });
  for (const auto& [insert, t] : batch) {
    if (insert) {
      triples->push_back(t);
    } else {
      triples->erase(std::find(triples->begin(), triples->end(), t));
    }
  }
}

// The engine's rows reordered to `vars` (looked up by name in `have`).
std::vector<Row> Reorder(const std::vector<std::string>& have,
                         const std::vector<Row>& rows,
                         const std::vector<std::string>& vars) {
  std::vector<size_t> col;
  for (const std::string& v : vars) {
    col.push_back(static_cast<size_t>(
        std::find(have.begin(), have.end(), v) - have.begin()));
  }
  std::vector<Row> out;
  for (const Row& r : rows) {
    Row row;
    for (size_t c : col) row.push_back(c < r.size() ? r[c] : ~1ULL);
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Empty when `got` is the answer `want` (sorted, before OFFSET/LIMIT) of
// query `q`, else what differs.
std::string Compare(const Query& q, const std::vector<Row>& want,
                    std::vector<Row> got) {
  std::sort(got.begin(), got.end());
  if (!q.limit && !q.offset) {
    return got == want ? "" : "rows differ: got " + std::to_string(got.size()) +
                                  ", oracle " + std::to_string(want.size());
  }
  const uint64_t skip = std::min<uint64_t>(q.offset.value_or(0), want.size());
  const uint64_t count =
      std::min<uint64_t>(want.size() - skip, q.limit.value_or(~0ULL));
  if (got.size() != count) {
    return "sliced row count " + std::to_string(got.size()) + ", want " +
           std::to_string(count);
  }
  if (!std::includes(want.begin(), want.end(), got.begin(), got.end())) {
    return "sliced rows not contained in the full answer";
  }
  return "";
}

// Byte-mutated copies of `text` must parse and lower to a typed error or a
// valid plan.
void CheckMutations(const std::string& text, const rdf::Dataset& data,
                    const core::Backend& backend, const plan::StoreStats& stats,
                    Rng* rng) {
  static const char kBytes[] = "{}().?<>\"=!,*; \nFILTERUNIONOPTIONAL0a";
  for (int m = 0; m < 2; ++m) {
    std::string mutated = text;
    const size_t at = rng->Uniform(mutated.size());
    const char byte = kBytes[rng->Uniform(sizeof(kBytes) - 1)];
    switch (rng->Uniform(3)) {
      case 0:
        mutated[at] = byte;
        break;
      case 1:
        mutated.insert(mutated.begin() + static_cast<ptrdiff_t>(at), byte);
        break;
      default:
        mutated.erase(at, 1);
        break;
    }
    const Result<sparql::ParsedQuery> parsed = sparql::Parse(mutated);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << mutated;
      continue;
    }
    const Result<plan::LogicalPlan> logical =
        sparql::BuildLogicalPlan(parsed.value(), data);
    if (!logical.ok()) {
      EXPECT_EQ(logical.status().code(), StatusCode::kInvalidArgument)
          << mutated;
      continue;
    }
    const exec::ExecContext ectx(1);
    (void)core::PlanQuery(backend, logical.value(),
                          {plan::PlanMode::kCostBased, &stats,
                           backend.PlannerHints()},
                          ectx);
  }
}

class SparqlOracleTest : public ::testing::TestWithParam<int> {};

// Queries per width; the two widths make one ctest run's 2,000.
constexpr int kQueriesPerWidth = 1000;
constexpr int kQueriesPerGraph = 100;

TEST_P(SparqlOracleTest, RandomQueriesMatchOracle) {
  const int width = GetParam();
  const uint64_t seed = static_cast<uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
  std::printf("oracle seed %llu, width %d\n",
              static_cast<unsigned long long>(seed), width);
  const exec::ExecContext ectx(width);
  int checked = 0;
  for (int graph = 0; checked < kQueriesPerWidth; ++graph) {
    const uint64_t graph_seed = seed * 1000003 + static_cast<uint64_t>(graph);
    rdf::Dataset data = OracleGraph(graph_seed);
    const bool writes = graph % 2 == 1;
    const WriteBatch batch =
        writes ? MakeWriteBatch(&data, graph_seed ^ 0x3717e5) : WriteBatch{};
    // Load-time statistics, as a store keeps them across writes.
    const plan::StoreStats stats = plan::StoreStats::Collect(data);
    std::vector<std::unique_ptr<core::Backend>> backends = AllBackends(data);
    std::vector<rdf::Triple> triples = data.triples();
    ApplyWrites(batch, &backends, &triples);
    Oracle oracle(data, std::move(triples));
    std::vector<std::string> properties = kProperties;
    if (writes) properties.push_back(kNewProperty);
    QueryGenerator generator(graph_seed, std::move(properties),
                             writes ? kSubjects + kNewSubjects : kSubjects);
    Rng mutations(graph_seed ^ 0x5eed);
    for (int i = 0; i < kQueriesPerGraph && checked < kQueriesPerWidth; ++i) {
      const Query q = generator.Next();
      const std::string text = Text(q);
      std::vector<std::string> vars;
      const std::optional<std::vector<Row>> want = oracle.Answer(q, &vars);
      if (!want) continue;
      ++checked;
      const std::string where = "seed " + std::to_string(seed) + " graph " +
                                std::to_string(graph) +
                                (writes ? " (written)" : "") + " width " +
                                std::to_string(width) + ": " + text;
      for (const auto& backend : backends) {
        const Result<sparql::QueryOutput> out =
            sparql::Execute(*backend, data, text, ectx, &stats);
        ASSERT_TRUE(out.ok()) << out.status().ToString() << "\n" << where;
        const std::string cost_based =
            Compare(q, *want, Reorder(out.value().vars, out.value().rows, vars));
        EXPECT_EQ(cost_based, "") << backend->name() << " cost-based\n"
                                  << where;

        // As written: the engine's full bindings, then the oracle's own
        // projection, DISTINCT, OFFSET and LIMIT.
        const auto parsed = sparql::Parse(text);
        ASSERT_TRUE(parsed.ok()) << where;
        const auto logical = sparql::BuildLogicalPlan(parsed.value(), data);
        ASSERT_TRUE(logical.ok()) << where;
        const plan::PhysicalPlan plan = core::PlanQuery(
            *backend, logical.value(),
            {plan::PlanMode::kAsWritten, nullptr, backend->PlannerHints()},
            ectx);
        const Result<core::BgpResult> bgp =
            core::ExecutePlan(*backend, plan, ectx);
        ASSERT_TRUE(bgp.ok()) << bgp.status().ToString() << "\n" << where;
        std::vector<Row> rows =
            Reorder(bgp.value().vars, bgp.value().rows, vars);
        if (q.distinct) rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        if (q.offset) {
          rows.erase(rows.begin(),
                     rows.begin() + static_cast<ptrdiff_t>(std::min<uint64_t>(
                                        *q.offset, rows.size())));
        }
        if (q.limit && rows.size() > *q.limit) rows.resize(*q.limit);
        EXPECT_EQ(Compare(q, *want, std::move(rows)), "")
            << backend->name() << " as written\n" << where;
        if (HasFailure()) return;
      }
      CheckMutations(text, data, *backends.front(), stats, &mutations);
    }
  }
  EXPECT_EQ(checked, kQueriesPerWidth);
}

INSTANTIATE_TEST_SUITE_P(Widths, SparqlOracleTest, ::testing::Values(1, 8),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace swan
