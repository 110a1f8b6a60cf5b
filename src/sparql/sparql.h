#ifndef SWANDB_SPARQL_SPARQL_H_
#define SWANDB_SPARQL_SPARQL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/backend.h"
#include "exec/exec_context.h"
#include "plan/algebra.h"
#include "plan/stats.h"
#include "rdf/dataset.h"

namespace swan::sparql {

// A front-end for the SPARQL subset that maps onto the logical algebra of
// src/plan/ — the query-space fragment the paper analyzes in §2.2 (all 8
// simple triple patterns composed through the A/B/C join patterns), plus
// the forms that lower to filters, left joins and unions over them:
//
//   PREFIX ex: <http://example.org/>
//   SELECT DISTINCT ?who ?what
//   WHERE { ?who ex:authored ?what . ?what ex:cites ?classic .
//           FILTER(?what != ex:retracted)
//           OPTIONAL { ?who ex:name ?name } }
//   OFFSET 10 LIMIT 10
//
// Supported: PREFIX declarations, `SELECT * | ?var...`, DISTINCT, a WHERE
// block of triple patterns over IRIs (`<...>`), prefixed names
// (`ex:name`), literals (`"..."` with \-escapes and optional @lang / ^^
// suffixes), variables (`?name`), FILTER over one variable
// (`<,<=,>,>=,=,!=` against a number, term or variable, and
// `IN (term, ...)`), OPTIONAL groups (patterns + filters; not nested),
// top-level UNION of braced groups, LIMIT and OFFSET in either order.
// Not supported (rejected with a parse error): nested OPTIONAL, UNION
// inside a group, property paths, expressions beyond single comparisons.

// --- Abstract syntax ------------------------------------------------------

struct ParsedTerm {
  enum class Kind { kVariable, kIri, kLiteral, kNumber };
  Kind kind = Kind::kVariable;
  // Variable name without '?', the full term text including <> / "", or
  // the number's digits.
  std::string text;
};

struct ParsedPattern {
  ParsedTerm subject;
  ParsedTerm property;
  ParsedTerm object;
};

// FILTER(?var op operand) or FILTER(?var IN (operand, ...)).
struct ParsedFilter {
  std::string var;
  std::string op;  // "<", "<=", ">", ">=", "=", "!=", "IN"
  std::vector<ParsedTerm> values;
};

// One braced group's content: triple patterns plus filters.
struct ParsedGroup {
  std::vector<ParsedPattern> patterns;
  std::vector<ParsedFilter> filters;
};

// One UNION branch: the required group and its OPTIONAL groups in textual
// order.
struct ParsedBranch {
  ParsedGroup required;
  std::vector<ParsedGroup> optionals;
};

struct ParsedQuery {
  bool distinct = false;
  // Empty means SELECT * (all variables in order of first appearance).
  std::vector<std::string> projection;
  std::vector<ParsedBranch> branches;
  std::optional<uint64_t> limit;
  std::optional<uint64_t> offset;
};

// Parses the query text. Errors carry 1-based line:column positions.
Result<ParsedQuery> Parse(std::string_view query);

// Canonical form of a query's text, used by the serving layer as the
// lexical part of its result-cache key and defined by the lexer Parse
// uses: the query's tokens in order, keyword tokens upper-cased (so
// `select` and `SELECT` share one cache entry), every other token (IRI,
// literal with its @lang or ^^ suffix, variable, prefixed name, number,
// punctuation) copied from its source span, and one space between two
// tokens wherever the source separated them by whitespace or a comment.
// Two texts with the same canonical form therefore tokenize identically
// (so they parse to the same query); no semantic normalization (variable
// renaming, pattern reordering) is attempted. Text the lexer rejects is
// returned trimmed: such a query fails, and failed queries are never
// cached.
std::string CanonicalQueryText(std::string_view query);

// --- Lowering -------------------------------------------------------------

// Lowers a parsed query to the logical algebra: constants are bound
// against the dataset's dictionary (a miss marks the scan unsatisfiable —
// the planner constant-folds it to the empty result), filters are
// compiled to id / numeric comparisons, OPTIONAL becomes LeftJoin and
// branches become a Union, wrapped in Distinct/Project/Slice modifiers —
// the only record of the solution modifiers from here on. A projected
// variable that occurs nowhere in WHERE is an InvalidArgument error. The
// plan's NumericResolver decodes numeric literals through the
// dictionary. Exported for the shell's EXPLAIN, which plans the result
// through core::PlanQuery exactly as Execute does.
Result<plan::LogicalPlan> BuildLogicalPlan(const ParsedQuery& parsed,
                                           const rdf::Dataset& dataset);

// --- Execution ------------------------------------------------------------

struct QueryOutput {
  std::vector<std::string> vars;
  // Dictionary ids, one row per solution, aligned with vars; a variable
  // left unbound by an OPTIONAL holds plan::kUnbound. TermText decodes.
  std::vector<std::vector<uint64_t>> rows;
  // The planner's mode note for the executed physical plan (e.g.
  // "cost-based (stats: 400000 triples, 221 properties)") — surfaced into
  // the query log.
  std::string plan_note;
};

// The term text of a result cell: the dictionary entry for `id`, or the
// empty string for plan::kUnbound.
std::string TermText(const rdf::Dataset& dataset, uint64_t id);

// Parses and runs `query` against `backend`: Parse, BuildLogicalPlan,
// core::PlanQuery (which also distributes the plan on a scale-out
// backend), core::ExecutePlan, then the physical plan's projection,
// DISTINCT, OFFSET and LIMIT. Results stay dictionary ids; decoding is
// the caller's, through TermText, for the cells it shows. A constant term
// that is not in the dictionary yields an empty result (standard SPARQL
// semantics), not an error.
//
// The BGP evaluation fans its binding-extension batches out across the
// thread budget of `ectx` (see core::ExecutePlan); results are identical
// at every width. The plan is cost-based over `stats` (required) with the
// backend's access hints; RdfStore::stats() supplies a store's load-time
// statistics, plan::StoreStats::Collect those of a bare backend's dataset.
Result<QueryOutput> Execute(const core::Backend& backend,
                            const rdf::Dataset& dataset,
                            std::string_view query,
                            const exec::ExecContext& ectx,
                            const plan::StoreStats* stats);

}  // namespace swan::sparql

#endif  // SWANDB_SPARQL_SPARQL_H_
