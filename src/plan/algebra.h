#ifndef SWANDB_PLAN_ALGEBRA_H_
#define SWANDB_PLAN_ALGEBRA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace swan::plan {

// The logical query algebra behind every SPARQL and BGP entry point: the
// parsed query is lowered to a tree of relational operators over triple
// scans, the optimizer (plan/optimizer.h) turns the tree into an annotated
// physical plan, and core::ExecutePlan interprets that plan against any
// backend. This layer is deliberately free of core/ dependencies — it
// only knows about terms, patterns, and variables — so the dependency
// chain stays linear: plan -> core -> sparql.

// Sentinel for a variable left unbound by an OPTIONAL that found no match.
// Safe because dictionary ids are dense from 0 (see dict/dictionary.h);
// decoding an unbound id yields the empty string.
inline constexpr uint64_t kUnbound = ~0ULL;

// A term of a triple pattern: either a bound dictionary id or a named
// variable. (Lives here rather than in core/ so the planner can be built
// without the backend layer; core/bgp.h re-exports it as core::Term.)
struct Term {
  static Term Const(uint64_t id) { return Term{false, id, ""}; }
  static Term Var(std::string name) { return Term{true, 0, std::move(name)}; }

  bool is_var = false;
  uint64_t id = 0;
  std::string var;
};

struct BgpPattern {
  Term subject;
  Term property;
  Term object;
};

// Resolves a dictionary id to a numeric value when the underlying term is
// a numeric literal (e.g. "30" or "2.5"^^xsd:decimal), nullopt otherwise.
// Supplied by the sparql layer from the dataset's dictionary; the
// interpreter memoizes lookups per query.
using NumericResolver = std::function<std::optional<double>(uint64_t)>;

// --- Filters --------------------------------------------------------------

enum class FilterOp { kLt, kLe, kGt, kGe, kEq, kNe, kIn };

const char* ToString(FilterOp op);

// One right-hand operand of a filter. Exactly one of the fields is
// meaningful: a bound dictionary id (term identity comparison), a numeric
// value (numeric comparison), a variable name (column comparison), or —
// when all are empty — a constant term absent from the dictionary, which
// equals nothing (`=`/`IN` false, `!=` true).
struct FilterOperand {
  std::optional<uint64_t> id;
  std::optional<double> number;
  std::string var;  // non-empty for variable operands

  bool is_var() const { return !var.empty(); }
  bool known() const { return id || number || is_var(); }
};

// A filter `?var op rhs` (or `?var IN (rhs...)`). SPARQL error semantics:
// any comparison over an unbound variable or a non-numeric operand of a
// numeric comparison evaluates to false, never to an error.
struct FilterExpr {
  std::string var;  // left-hand variable
  FilterOp op = FilterOp::kEq;
  std::vector<FilterOperand> values;  // one entry, or several for IN
  // Constant-folded by the planner: the filter can never hold (e.g. a
  // numeric comparison against a non-numeric constant).
  bool impossible = false;

  // Variables this filter reads (lhs plus any variable operands).
  std::vector<std::string> Variables() const;
};

// --- Logical operator tree ------------------------------------------------

enum class LogicalOp {
  kScan,      // one triple pattern; leaf
  kJoin,      // natural join of the children (a BGP conjunction)
  kFilter,    // filter(child)
  kLeftJoin,  // child[0] OPTIONAL child[1]
  kUnion,     // bag union of the children, columns aligned by name
  kDistinct,  // duplicate elimination
  kProject,   // column selection
  kSlice,     // OFFSET / LIMIT
};

const char* ToString(LogicalOp op);

struct LogicalNode {
  LogicalOp op = LogicalOp::kScan;

  // kScan:
  BgpPattern pattern;
  // Set when a constant of the pattern is absent from the dictionary: the
  // scan (and any conjunction containing it) can never match.
  bool unsatisfiable = false;

  // kFilter:
  FilterExpr filter;

  // kProject: empty means "all variables in textual order".
  std::vector<std::string> projection;

  // kSlice:
  std::optional<uint64_t> offset;
  std::optional<uint64_t> limit;

  std::vector<std::unique_ptr<LogicalNode>> children;
};

// A rooted logical plan plus the value-level context execution needs. The
// solution modifiers live only in the tree, as Distinct/Project/Slice
// nodes.
struct LogicalPlan {
  std::unique_ptr<LogicalNode> root;
  NumericResolver numeric;  // may be null (no numeric filters)
};

// Node constructors (children are consumed).
std::unique_ptr<LogicalNode> MakeScan(BgpPattern pattern,
                                      bool unsatisfiable = false);
std::unique_ptr<LogicalNode> MakeJoin(
    std::vector<std::unique_ptr<LogicalNode>> children);
std::unique_ptr<LogicalNode> MakeFilter(FilterExpr filter,
                                        std::unique_ptr<LogicalNode> child);
std::unique_ptr<LogicalNode> MakeLeftJoin(std::unique_ptr<LogicalNode> left,
                                          std::unique_ptr<LogicalNode> right);
std::unique_ptr<LogicalNode> MakeUnion(
    std::vector<std::unique_ptr<LogicalNode>> children);

// Lowers a plain pattern list (the classic ExecuteBgp input) to
// Join(Scan...). No projection/slice nodes: the caller wants the full
// binding table.
LogicalPlan BuildBgpLogical(const std::vector<BgpPattern>& patterns);

// Variables of a pattern/subtree in textual first-appearance order.
void CollectPatternVars(const BgpPattern& pattern,
                        std::vector<std::string>* vars);
std::vector<std::string> CollectVars(const LogicalNode& node);

}  // namespace swan::plan

#endif  // SWANDB_PLAN_ALGEBRA_H_
