#include "plan/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"

namespace swan::plan {

const char* ToString(PlanMode mode) {
  switch (mode) {
    case PlanMode::kCostBased:
      return "cost-based";
    case PlanMode::kWorstOrder:
      return "worst-order";
    case PlanMode::kAsWritten:
      return "as-written";
  }
  return "?";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Exhaustive DP is affordable up to this many patterns per group; larger
// conjunctions fall back to greedy minimum-cardinality ordering.
constexpr size_t kDpLimit = 8;

// --- Variable bitmaps -----------------------------------------------------
// Join ordering tracks bound-variable sets as uint64 bitmaps. Groups with
// more than 64 distinct variables (never the paper's workload) run in
// textual order.

class VarBits {
 public:
  // Returns false once more than 64 variables exist.
  bool Intern(const std::string& var, int* bit) {
    auto it = index_.find(var);
    if (it != index_.end()) {
      *bit = it->second;
      return true;
    }
    if (index_.size() >= 64) return false;
    *bit = static_cast<int>(index_.size());
    index_.emplace(var, *bit);
    return true;
  }
  bool PatternMask(const BgpPattern& p, uint64_t* mask) {
    *mask = 0;
    for (const Term* t : {&p.subject, &p.property, &p.object}) {
      if (!t->is_var) continue;
      int bit = 0;
      if (!Intern(t->var, &bit)) return false;
      *mask |= 1ULL << bit;
    }
    return true;
  }

 private:
  std::unordered_map<std::string, int> index_;
};

// --- Cardinality and cost model -------------------------------------------

struct TermState {
  bool bound = false;     // constant, or variable already bound
  bool is_const = false;  // constant (id meaningful)
  uint64_t id = 0;
};

TermState StateOf(const Term& term, uint64_t var_mask, VarBits* vars) {
  TermState st;
  if (!term.is_var) {
    st.bound = st.is_const = true;
    st.id = term.id;
    return st;
  }
  int bit = 0;
  if (vars != nullptr && vars->Intern(term.var, &bit)) {
    st.bound = (var_mask >> bit) & 1;
  }
  return st;
}

// Expected matches of one instantiated probe of `p`, given which
// variables are already bound.
double EstFanout(const BgpPattern& p, uint64_t bound_mask, VarBits* vars,
                 const StoreStats& stats) {
  const TermState s = StateOf(p.subject, bound_mask, vars);
  const TermState pr = StateOf(p.property, bound_mask, vars);
  const TermState o = StateOf(p.object, bound_mask, vars);
  const auto opt = [](const TermState& t) {
    return t.bound ? std::optional<uint64_t>(t.id) : std::nullopt;
  };
  if (pr.bound && !pr.is_const) {
    // Property bound through a variable: average over the properties.
    const double props =
        static_cast<double>(std::max<uint64_t>(1, stats.distinct_properties()));
    return stats.EstimateMatches(opt(s), std::nullopt, opt(o)) / props;
  }
  return stats.EstimateMatches(opt(s), opt(pr), opt(o));
}

// Modeled cost of one Match call for `p` under the backend's access
// hints. `fanout` is the expected result size of the probe.
double CallCost(const BgpPattern& p, uint64_t bound_mask, VarBits* vars,
                double fanout, const StoreStats& stats,
                const AccessHints& h) {
  const TermState s = StateOf(p.subject, bound_mask, vars);
  const TermState pr = StateOf(p.property, bound_mask, vars);
  const double n = static_cast<double>(stats.total_triples);
  const double props =
      static_cast<double>(std::max<uint64_t>(1, stats.distinct_properties()));

  double seeks = 1.0;
  double touched;  // triples the backend must look at
  if (pr.bound) {
    // The property's extent (exact for constants, average for variables).
    double extent = n / props;
    if (pr.is_const) {
      const auto it = stats.by_property.find(pr.id);
      extent = it == stats.by_property.end()
                   ? 0.0
                   : static_cast<double>(it->second.count);
    }
    if (h.clustered_by_property) {
      touched = (s.bound && h.subject_indexed) ? fanout : extent;
    } else if (s.bound && h.subject_indexed) {
      // Subject-clustered store: scan the subject's run for the property.
      touched = n / static_cast<double>(
                        std::max<uint64_t>(1, stats.distinct_subjects));
    } else {
      touched = n;  // full scan
    }
  } else if (s.bound && h.subject_indexed) {
    seeks = h.property_fanout ? props : 1.0;
    touched = fanout;
  } else {
    touched = n;  // object-only or fully unbound: no index applies
  }
  return seeks * h.seek_cost + touched * h.scan_row_cost +
         fanout * h.result_row_cost;
}

// Expected matches of one probe of `p` whose scan applies `filter`: each
// position holding a pushed IN list sums the estimate over its listed
// ids, as if each were the constant (a list on two positions sums over
// their pairs). Positions from `c` on are still to expand.
double EstFilteredFanout(const BgpPattern& p, const rdf::PatternFilter& filter,
                         int c, uint64_t bound_mask, VarBits* vars,
                         const StoreStats& stats) {
  const Term* terms[3] = {&p.subject, &p.property, &p.object};
  for (; c < 3; ++c) {
    if (!terms[c]->is_var ||
        filter.at(c).kind() != rdf::ScanFilter::Kind::kIn) {
      continue;
    }
    const std::string& var = terms[c]->var;
    double sum = 0.0;
    for (uint64_t id : filter.at(c).ids()) {
      BgpPattern one = p;
      for (Term* t : {&one.subject, &one.property, &one.object}) {
        if (t->is_var && t->var == var) *t = Term::Const(id);
      }
      sum += EstFilteredFanout(one, filter, c + 1, bound_mask, vars, stats);
    }
    return sum;
  }
  return EstFanout(p, bound_mask, vars, stats);
}

// --- Flattened branch specs -----------------------------------------------

struct GroupSpec {
  std::vector<BgpPattern> patterns;  // textual order
  std::vector<size_t> sources;       // textual index of each pattern
  std::vector<FilterExpr> filters;
  bool unsat = false;
  std::string unsat_reason;
};

struct BranchSpec {
  GroupSpec required;
  std::vector<GroupSpec> optionals;
};

void FlattenGroup(const LogicalNode& node, GroupSpec* group,
                  size_t* next_source) {
  switch (node.op) {
    case LogicalOp::kScan:
      group->patterns.push_back(node.pattern);
      group->sources.push_back((*next_source)++);
      if (node.unsatisfiable && !group->unsat) {
        group->unsat = true;
        group->unsat_reason =
            "pattern " + PatternText(node.pattern) + " cannot match";
      }
      return;
    case LogicalOp::kFilter:
      group->filters.push_back(node.filter);
      FlattenGroup(*node.children[0], group, next_source);
      return;
    case LogicalOp::kJoin:
      for (const auto& child : node.children) {
        FlattenGroup(*child, group, next_source);
      }
      return;
    default:
      SWAN_CHECK_MSG(false, "unexpected operator inside a group");
  }
}

BranchSpec FlattenBranch(const LogicalNode& node) {
  BranchSpec spec;
  size_t next_source = 0;
  // Filters wrap LeftJoins wrap the required Join — peel filters (they
  // belong to the required group's scope), then left joins.
  std::function<void(const LogicalNode&)> walk = [&](const LogicalNode& n) {
    if (n.op == LogicalOp::kFilter) {
      spec.required.filters.push_back(n.filter);
      walk(*n.children[0]);
      return;
    }
    if (n.op == LogicalOp::kLeftJoin) {
      walk(*n.children[0]);
      GroupSpec optional;
      FlattenGroup(*n.children[1], &optional, &next_source);
      spec.optionals.push_back(std::move(optional));
      return;
    }
    FlattenGroup(n, &spec.required, &next_source);
  };
  walk(node);
  return spec;
}

// --- Ordering strategies --------------------------------------------------

// Cost-based ordering: exhaustive DP over linear join orders (≤ kDpLimit
// patterns), greedy minimum-cardinality beyond. `outer_mask` holds the
// variables bound before the group starts.
std::vector<size_t> CostOrder(const std::vector<BgpPattern>& patterns,
                              const std::vector<uint64_t>& pattern_masks,
                              uint64_t outer_mask, double est_in,
                              VarBits* vars, const StoreStats& stats,
                              const AccessHints& hints, bool worst) {
  const size_t n = patterns.size();
  const double rows0 = std::max(est_in, 0.0);

  if (!worst && n >= 2 && n <= kDpLimit) {
    const size_t full = (1ULL << n) - 1;
    std::vector<double> cost(full + 1, kInf), rows(full + 1, 0.0);
    std::vector<int> last(full + 1, -1);
    std::vector<size_t> prev(full + 1, 0);
    cost[0] = 0.0;
    rows[0] = rows0;
    for (size_t mask = 0; mask <= full; ++mask) {
      if (cost[mask] == kInf) continue;
      uint64_t bound = outer_mask;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1ULL << i)) bound |= pattern_masks[i];
      }
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1ULL << i)) continue;
        const double fanout = EstFanout(patterns[i], bound, vars, stats);
        const double step =
            rows[mask] * CallCost(patterns[i], bound, vars, fanout, stats,
                                  hints);
        const size_t next = mask | (1ULL << i);
        if (cost[mask] + step < cost[next]) {
          cost[next] = cost[mask] + step;
          rows[next] = rows[mask] * fanout;
          last[next] = static_cast<int>(i);
          prev[next] = mask;
        }
      }
    }
    std::vector<size_t> order;
    for (size_t mask = full; mask != 0; mask = prev[mask]) {
      order.push_back(static_cast<size_t>(last[mask]));
    }
    std::reverse(order.begin(), order.end());
    return order;
  }

  // Greedy: repeatedly take the pattern with the smallest estimated
  // output (ties: cheapest probe) — or the largest, for the adversarial
  // worst-order baseline.
  std::vector<size_t> order;
  std::vector<bool> used(n, false);
  uint64_t bound = outer_mask;
  double r = rows0;
  for (size_t step = 0; step < n; ++step) {
    size_t best = 0;
    double best_rows = worst ? -kInf : kInf;
    double best_cost = best_rows;
    double best_fanout = 1.0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const double fanout = EstFanout(patterns[i], bound, vars, stats);
      const double rows_out = r * fanout;
      const double c =
          r * CallCost(patterns[i], bound, vars, fanout, stats, hints);
      const bool better =
          worst ? (rows_out > best_rows ||
                   (rows_out == best_rows && c > best_cost))
                : (rows_out < best_rows ||
                   (rows_out == best_rows && c < best_cost));
      if (better) {
        best = i;
        best_rows = rows_out;
        best_cost = c;
        best_fanout = fanout;
      }
    }
    used[best] = true;
    order.push_back(best);
    bound |= pattern_masks[best];
    r *= best_fanout;
  }
  return order;
}

// --- Group compilation ----------------------------------------------------

void PatternVarsInto(const BgpPattern& p,
                     std::unordered_set<std::string>* vars) {
  for (const Term* t : {&p.subject, &p.property, &p.object}) {
    if (t->is_var) vars->insert(t->var);
  }
}

// Pushes `filter` into `step`'s scan when the scan can apply it exactly:
// an `=` or `IN` over a variable the step binds fresh, whose operands are
// all dictionary-id constants. Operands absent from the dictionary equal
// nothing and drop out (an empty list matches nothing); a numeric operand
// compares by value and a variable operand by row, so either keeps the
// filter residual. Returns whether the filter was pushed.
bool PushIntoScan(const FilterExpr& filter,
                  const std::unordered_set<std::string>& bound_before,
                  PhysStep* step) {
  if ((filter.op != FilterOp::kEq && filter.op != FilterOp::kIn) ||
      filter.impossible || bound_before.count(filter.var) != 0) {
    return false;
  }
  std::vector<uint64_t> ids;
  for (const FilterOperand& v : filter.values) {
    if (v.is_var() || v.number) return false;
    if (v.id) ids.push_back(*v.id);
  }
  rdf::ScanFilter* slots[3] = {&step->scan_filter.subject,
                               &step->scan_filter.property,
                               &step->scan_filter.object};
  const Term* terms[3] = {&step->pattern.subject, &step->pattern.property,
                          &step->pattern.object};
  bool any = false;
  for (int c = 0; c < 3; ++c) {
    if (!terms[c]->is_var || terms[c]->var != filter.var) continue;
    if (!slots[c]->all()) return false;  // one pushed filter per position
    any = true;
  }
  if (!any) return false;
  for (int c = 0; c < 3; ++c) {
    if (terms[c]->is_var && terms[c]->var == filter.var) {
      *slots[c] = rdf::ScanFilter::In(ids);
    }
  }
  return true;
}

// Compiles one group (required or optional) into ordered physical steps.
// `outer` holds the variables bound before the group runs. Bumps
// `*wide_groups` when the group has too many variables to order by cost.
PhysPipeline CompileGroup(const GroupSpec& group,
                          const std::unordered_set<std::string>& outer,
                          double est_in, const PlannerOptions& opts,
                          size_t* wide_groups) {
  PhysPipeline out;
  for (const BgpPattern& p : group.patterns) {
    std::vector<std::string> vs;
    CollectPatternVars(p, &vs);
    for (std::string& v : vs) {
      if (outer.count(v) == 0 &&
          std::find(out.vars.begin(), out.vars.end(), v) == out.vars.end()) {
        out.vars.push_back(std::move(v));
      }
    }
  }
  if (group.unsat) {
    out.always_empty = true;
    out.empty_reason = group.unsat_reason;
    return out;
  }

  // A filter that can never hold, or that reads a variable bound nowhere
  // in scope, empties the group (SPARQL error semantics: comparisons over
  // unbound variables are false for every row).
  std::unordered_set<std::string> in_scope = outer;
  for (const std::string& v : out.vars) in_scope.insert(v);
  for (const FilterExpr& filter : group.filters) {
    if (filter.impossible) {
      out.always_empty = true;
      out.empty_reason = "filter on ?" + filter.var + " can never hold";
      return out;
    }
    for (const std::string& v : filter.Variables()) {
      if (in_scope.count(v) == 0) {
        out.always_empty = true;
        out.empty_reason = "filter reads unbound variable ?" + v;
        return out;
      }
    }
  }

  // Join ordering.
  VarBits vars;
  std::vector<uint64_t> masks(group.patterns.size());
  uint64_t outer_mask = 0;
  bool bitmaps_ok = true;
  for (const std::string& v : outer) {
    int bit = 0;
    if (!vars.Intern(v, &bit)) {
      bitmaps_ok = false;
      break;
    }
    outer_mask |= 1ULL << bit;
  }
  for (size_t i = 0; bitmaps_ok && i < group.patterns.size(); ++i) {
    bitmaps_ok = vars.PatternMask(group.patterns[i], &masks[i]);
  }
  if (!bitmaps_ok && opts.mode != PlanMode::kAsWritten) ++*wide_groups;
  const bool by_stats = opts.mode != PlanMode::kAsWritten && bitmaps_ok;
  std::vector<size_t> order(group.patterns.size());
  if (by_stats) {
    order = CostOrder(group.patterns, masks, outer_mask, est_in, &vars,
                      *opts.stats, opts.hints,
                      opts.mode == PlanMode::kWorstOrder);
  } else {
    std::iota(order.begin(), order.end(), size_t{0});
  }

  for (size_t i : order) {
    PhysStep step;
    step.pattern = group.patterns[i];
    step.source_index = group.sources[i];
    out.steps.push_back(std::move(step));
  }

  // Push each filter to the earliest step after which its variables are
  // all bound, and into that step's scan when the scan can apply it.
  std::unordered_set<std::string> bound_vars = outer;
  std::vector<bool> placed(group.filters.size(), false);
  for (size_t k = 0; k < out.steps.size(); ++k) {
    PhysStep& step = out.steps[k];
    const std::unordered_set<std::string> bound_before = bound_vars;
    PatternVarsInto(step.pattern, &bound_vars);
    for (size_t f = 0; f < group.filters.size(); ++f) {
      if (placed[f]) continue;
      const auto fvars = group.filters[f].Variables();
      const bool ready =
          std::all_of(fvars.begin(), fvars.end(), [&](const std::string& v) {
            return bound_vars.count(v) != 0;
          });
      if (ready) {
        if (!PushIntoScan(group.filters[f], bound_before, &step)) {
          step.filters.push_back(group.filters[f]);
        }
        placed[f] = true;
      }
    }
  }

  // Cardinality annotations along the chosen order, counting the filters
  // pushed into each scan, plus each constant-property step's extent (what
  // its one scan returns) for the interpreter's run-time choice between
  // probing and one scan over the extent.
  double rows = std::max(est_in, 0.0);
  if (by_stats) {
    const StoreStats& stats = *opts.stats;
    uint64_t bound = outer_mask;
    for (size_t k = 0; k < out.steps.size(); ++k) {
      PhysStep& step = out.steps[k];
      const BgpPattern& p = step.pattern;
      const double fanout =
          EstFilteredFanout(p, step.scan_filter, 0, bound, &vars, stats);
      step.est_in = rows;
      step.est_matches = fanout;
      rows *= fanout;
      step.est_out = rows;
      if (opts.mode == PlanMode::kCostBased && !p.property.is_var) {
        const auto extent_of = [&](std::optional<uint64_t> object) {
          return stats.EstimateMatches(std::nullopt, p.property.id, object);
        };
        const rdf::ScanFilter& objects = step.scan_filter.object;
        if (!p.object.is_var) {
          step.extent = extent_of(p.object.id);
        } else if (objects.kind() == rdf::ScanFilter::Kind::kIn) {
          step.extent = 0.0;
          for (uint64_t id : objects.ids()) step.extent += extent_of(id);
        } else {
          step.extent = extent_of(std::nullopt);
        }
      }
      bound |= masks[order[k]];
    }
    out.est_rows = rows;
  }
  return out;
}

}  // namespace

PhysicalPlan Optimize(const LogicalPlan& logical, const PlannerOptions& opts) {
  SWAN_CHECK_MSG(logical.root != nullptr, "logical plan without a root");
  SWAN_CHECK_MSG(opts.mode == PlanMode::kAsWritten || opts.stats != nullptr,
                 "cost-ordered plan without statistics");
  PhysicalPlan plan;
  plan.numeric = logical.numeric;
  plan.hints = opts.hints;

  // Peel the solution modifiers off the top of the tree.
  const LogicalNode* node = logical.root.get();
  for (;;) {
    if (node->op == LogicalOp::kSlice) {
      plan.offset = node->offset;
      plan.limit = node->limit;
    } else if (node->op == LogicalOp::kProject) {
      plan.projection = node->projection;
    } else if (node->op == LogicalOp::kDistinct) {
      plan.distinct = true;
    } else {
      break;
    }
    SWAN_CHECK_MSG(node->children.size() == 1, "modifier node needs a child");
    node = node->children[0].get();
  }

  std::vector<const LogicalNode*> branch_nodes;
  if (node->op == LogicalOp::kUnion) {
    for (const auto& child : node->children) {
      branch_nodes.push_back(child.get());
    }
  } else {
    branch_nodes.push_back(node);
  }

  // Column order of the final table: textual first appearance across all
  // branches — never the planner's evaluation order.
  for (const LogicalNode* branch : branch_nodes) {
    for (const std::string& v : CollectVars(*branch)) {
      if (std::find(plan.all_vars.begin(), plan.all_vars.end(), v) ==
          plan.all_vars.end()) {
        plan.all_vars.push_back(v);
      }
    }
  }

  size_t wide_groups = 0;
  for (const LogicalNode* branch_node : branch_nodes) {
    BranchSpec spec = FlattenBranch(*branch_node);
    // A branch filter over a variable only an OPTIONAL binds cannot run in
    // a required step: it runs after the optionals. One over a variable
    // bound nowhere stays, and empties the required group.
    std::vector<std::string> required_vars;
    std::vector<std::string> optional_vars;
    for (const BgpPattern& p : spec.required.patterns) {
      CollectPatternVars(p, &required_vars);
    }
    for (const GroupSpec& optional : spec.optionals) {
      for (const BgpPattern& p : optional.patterns) {
        CollectPatternVars(p, &optional_vars);
      }
    }
    const auto in = [](const std::vector<std::string>& vars,
                       const std::string& v) {
      return std::find(vars.begin(), vars.end(), v) != vars.end();
    };
    std::vector<FilterExpr> post_filters;
    std::erase_if(spec.required.filters, [&](const FilterExpr& filter) {
      const auto fvars = filter.Variables();
      const bool after_optionals =
          std::any_of(fvars.begin(), fvars.end(),
                      [&](const std::string& v) {
                        return !in(required_vars, v);
                      }) &&
          std::all_of(fvars.begin(), fvars.end(), [&](const std::string& v) {
            return in(required_vars, v) || in(optional_vars, v);
          });
      if (after_optionals) post_filters.push_back(filter);
      return after_optionals;
    });
    PhysPipeline branch =
        CompileGroup(spec.required, {}, 1.0, opts, &wide_groups);

    // Optionals run after the required steps, in textual order; each sees
    // the variables of the required group and of earlier optionals.
    std::unordered_set<std::string> outer;
    for (const std::string& v : branch.vars) outer.insert(v);
    std::vector<std::string> branch_vars = branch.vars;
    for (const GroupSpec& optional : spec.optionals) {
      PhysPipeline compiled =
          CompileGroup(optional, outer, branch.est_rows, opts, &wide_groups);
      for (const std::string& v : compiled.vars) {
        outer.insert(v);
        branch_vars.push_back(v);
      }
      branch.optionals.push_back(std::move(compiled));
    }

    if (!branch.always_empty) branch.post_filters = std::move(post_filters);
    branch.vars = std::move(branch_vars);
    plan.branches.push_back(std::move(branch));
  }

  plan.mode_note = ToString(opts.mode);
  if (opts.mode != PlanMode::kAsWritten) {
    plan.mode_note +=
        " (stats: " + std::to_string(opts.stats->total_triples) +
        " triples, " + std::to_string(opts.stats->distinct_properties()) +
        " properties)";
  }
  if (wide_groups > 0) {
    plan.mode_note += "; " + std::to_string(wide_groups) +
                      " group(s) over 64 variables as written";
  }
  return plan;
}

}  // namespace swan::plan
