#include "core/bgp.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <optional>
#include <set>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/distributed.h"

namespace swan::core {

namespace {

// Binding rows of one width, row-major in one buffer. The count is kept
// apart from the buffer because a row may have no cells at all (the empty
// binding every branch starts from, or a pattern of constants only).
struct Rows {
  std::vector<uint64_t> cells;
  size_t count = 0;

  // Appends a row of `width` cells: the first `n` copied from `row`, the
  // rest kUnbound. Returns the new row's cells.
  uint64_t* Append(const uint64_t* row, size_t n, size_t width) {
    const size_t base = cells.size();
    cells.insert(cells.end(), row, row + n);
    cells.resize(base + width, kUnbound);
    ++count;
    return cells.data() + base;
  }
  void PopBack(size_t width) {
    cells.resize(cells.size() - width);
    --count;
  }
};

// The binding table a branch builds up: one column per variable, in the
// order the interpreter first binds them (the final remap to
// PhysicalPlan::all_vars restores textual order). A step may add names to
// `vars` before it writes rows of the new width, so `width` is the width
// of the rows currently held.
struct Table {
  static constexpr size_t npos = static_cast<size_t>(-1);

  std::vector<std::string> vars;
  size_t width = 0;
  Rows rows;

  const uint64_t* Row(size_t i) const { return rows.cells.data() + i * width; }

  size_t Find(const std::string& v) const {
    const auto it = std::find(vars.begin(), vars.end(), v);
    return it == vars.end() ? npos : static_cast<size_t>(it - vars.begin());
  }
  size_t AddVar(const std::string& v) {
    vars.push_back(v);
    return vars.size() - 1;
  }
  void Replace(Rows next) {
    rows = std::move(next);
    width = vars.size();
  }
};

// Re-lays the rows at the table's current variable count, padding the new
// cells with kUnbound.
void Widen(Table* table) {
  const size_t width = table->vars.size();
  if (width == table->width) return;
  Rows next;
  next.cells.reserve(table->rows.count * width);
  for (size_t i = 0; i < table->rows.count; ++i) {
    next.Append(table->Row(i), table->width, width);
  }
  table->Replace(std::move(next));
}

// Index of a variable in the binding table, or nullopt for constants.
struct SlotRef {
  std::optional<size_t> var_index;  // set if variable
  uint64_t const_id = 0;
};

SlotRef ResolveTerm(const Term& term, Table* table) {
  if (!term.is_var) {
    return SlotRef{std::nullopt, term.id};
  }
  const size_t existing = table->Find(term.var);
  if (existing != Table::npos) {
    return SlotRef{existing, 0};
  }
  return SlotRef{table->AddVar(term.var), 0};
}

// Span name for a step: plain when the step carries no estimate (the
// as-written order), "<base> est=N" when the planner annotated one —
// EXPLAIN ANALYZE reads the estimate from the span name and the actual
// cardinality from rows_out.
std::string StepSpanName(const char* base, double est_out) {
  if (est_out < 0) return base;
  return std::string(base) + " est=" +
         std::to_string(static_cast<long long>(std::llround(est_out)));
}

// A filter with its variables resolved to binding-table columns once per
// application, not once per row.
struct BoundFilter {
  const plan::FilterExpr* expr;
  size_t lhs_col;
  std::vector<size_t> operand_cols;  // npos for constant operands
};

// Evaluates filters against binding rows. Dictionary-id comparisons are
// direct; numeric comparisons go through the plan's NumericResolver with
// per-query memoization. SPARQL error semantics throughout: a comparison
// over an unbound variable, or a numeric comparison over a non-numeric
// term, is false — it never raises and never matches.
class FilterEvaluator {
 public:
  explicit FilterEvaluator(const plan::NumericResolver& numeric)
      : numeric_(numeric) {}

  bool Passes(const BoundFilter& bound, const uint64_t* row) {
    const plan::FilterExpr& filter = *bound.expr;
    if (bound.lhs_col == Table::npos) return false;
    const uint64_t lhs = row[bound.lhs_col];
    if (lhs == kUnbound) return false;

    auto operand_id = [&](size_t i) -> std::optional<uint64_t> {
      const plan::FilterOperand& v = filter.values[i];
      if (!v.is_var()) return v.id;
      const size_t c = bound.operand_cols[i];
      if (c == Table::npos || row[c] == kUnbound) return std::nullopt;
      return row[c];
    };

    // Equality against one operand. `defined` is false when the
    // comparison is a SPARQL error (unbound variable operand, or a
    // numeric operand against a non-numeric lhs) — then both `=` and
    // `!=` are false. An operand absent from the dictionary is a valid
    // term that simply equals nothing in the store.
    auto equals = [&](size_t i, bool* defined) {
      const plan::FilterOperand& v = filter.values[i];
      *defined = true;
      if (v.is_var()) {
        const auto rid = operand_id(i);
        if (!rid) {
          *defined = false;
          return false;
        }
        return lhs == *rid;
      }
      if (v.number) {
        const auto ln = NumberOf(lhs);
        if (!ln) {
          *defined = false;
          return false;
        }
        return *ln == *v.number;
      }
      if (v.id) return lhs == *v.id;
      return false;  // not in the dictionary
    };

    switch (filter.op) {
      case plan::FilterOp::kEq: {
        bool defined = false;
        return equals(0, &defined) && defined;
      }
      case plan::FilterOp::kNe: {
        bool defined = false;
        const bool eq = equals(0, &defined);
        return defined && !eq;
      }
      case plan::FilterOp::kIn: {
        for (size_t i = 0; i < filter.values.size(); ++i) {
          bool defined = false;
          if (equals(i, &defined) && defined) return true;
        }
        return false;
      }
      default:
        break;
    }

    // Relational: numeric only.
    const auto ln = NumberOf(lhs);
    if (!ln) return false;
    const plan::FilterOperand& v = filter.values[0];
    std::optional<double> rn;
    if (v.is_var()) {
      const auto rid = operand_id(0);
      if (rid) rn = NumberOf(*rid);
    } else if (v.number) {
      rn = v.number;
    } else if (v.id) {
      rn = NumberOf(*v.id);
    }
    if (!rn) return false;
    switch (filter.op) {
      case plan::FilterOp::kLt:
        return *ln < *rn;
      case plan::FilterOp::kLe:
        return *ln <= *rn;
      case plan::FilterOp::kGt:
        return *ln > *rn;
      case plan::FilterOp::kGe:
        return *ln >= *rn;
      default:
        return false;
    }
  }

 private:
  std::optional<double> NumberOf(uint64_t id) {
    if (id == kUnbound) return std::nullopt;
    const auto it = memo_.find(id);
    if (it != memo_.end()) return it->second;
    std::optional<double> v = numeric_ ? numeric_(id) : std::nullopt;
    memo_.emplace(id, v);
    return v;
  }

  const plan::NumericResolver& numeric_;
  std::unordered_map<uint64_t, std::optional<double>> memo_;
};

// Drops the rows failing any of `filters`, compacting the survivors in
// place and preserving their order.
void ApplyFilters(const std::vector<plan::FilterExpr>& filters,
                  FilterEvaluator* eval, Table* table) {
  if (filters.empty() || table->rows.count == 0) return;
  std::vector<BoundFilter> bound;
  for (const plan::FilterExpr& f : filters) {
    BoundFilter b{&f, table->Find(f.var), {}};
    for (const plan::FilterOperand& v : f.values) {
      b.operand_cols.push_back(v.is_var() ? table->Find(v.var) : Table::npos);
    }
    bound.push_back(std::move(b));
  }
  const size_t width = table->width;
  uint64_t* cells = table->rows.cells.data();
  size_t kept = 0;
  for (size_t i = 0; i < table->rows.count; ++i) {
    const uint64_t* row = cells + i * width;
    const bool ok = std::all_of(
        bound.begin(), bound.end(),
        [&](const BoundFilter& b) { return eval->Passes(b, row); });
    if (!ok) continue;
    if (kept != i) std::copy_n(row, width, cells + kept * width);
    ++kept;
  }
  table->rows.count = kept;
  table->rows.cells.resize(kept * width);
}

// Bindings per extension batch: one Match per binding dominates the work,
// so small batches balance skewed fan-outs across lanes.
constexpr uint64_t kBindingsPerBatch = 16;

// Whether a step is answered by one pass over its property's extent
// instead of one Match per binding row. Eligible: a constant property
// whose extent the planner annotated, and a subject variable bound by an
// earlier step. Priced with the plan's access hints: each probe pays a
// seek and materializes its estimated matches; the scan-join pays one
// seek and one sequential pass over the extent, its triples priced as
// scanned. The row count is the actual one — a skewed constant the
// planner's uniform estimate missed still gets the one-pass join — so the
// cheaper side wins outright, with no safety margin.
bool ChooseScanJoin(const plan::PhysStep& step, const plan::AccessHints& h,
                    const SlotRef& s, size_t known_vars, uint64_t rows) {
  if (step.extent < 0 || step.est_matches < 0 ||
      step.pattern.property.is_var || !s.var_index ||
      *s.var_index >= known_vars) {
    return false;
  }
  const double probe_cost =
      static_cast<double>(rows) *
      (h.seek_cost + step.est_matches * h.result_row_cost);
  const double scan_cost = h.seek_cost + step.extent * h.scan_row_cost;
  return scan_cost < probe_cost;
}

// Forward ship leg for annotated scale-out probe steps: the binding table
// (or its distinct-key semi-join filter) travels coordinator -> home
// before the probes run there. Charged from actual row counts — the
// estimates only picked the strategy. The result-return leg is charged
// per Match by the sharded backend, so it is not repeated here.
void ChargeShipLeg(const Backend& backend, const plan::PhysStep& step,
                   const exec::ExecContext& ectx, const Table& table,
                   std::initializer_list<const SlotRef*> refs,
                   size_t known_vars) {
  const uint64_t n = table.rows.count;
  if (step.ship == plan::ShipMode::kLocal || step.home_node < 0 || n == 0) {
    return;
  }
  DistRouting* dist = backend.dist();
  if (dist == nullptr) return;
  const int src = dist->Coordinator();
  if (step.ship == plan::ShipMode::kShipBindings) {
    const uint64_t width = std::max<size_t>(known_vars, 1);
    dist->Ship(src, step.home_node, n * width * plan::kBytesPerBindingCell,
               (n + plan::kBindingsPerMessage - 1) / plan::kBindingsPerMessage,
               ectx);
    return;
  }
  // The filter is the distinct values of the already-bound variable terms
  // this pattern joins on.
  std::set<uint64_t> keys;
  for (const SlotRef* ref : refs) {
    if (!ref->var_index || *ref->var_index >= known_vars) continue;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = table.Row(i)[*ref->var_index];
      if (v != kUnbound) keys.insert(v);
    }
  }
  const uint64_t distinct = std::max<uint64_t>(keys.size(), 1);
  dist->Ship(src, step.home_node, distinct * plan::kBytesPerKey, 1, ectx);
}

// Extends every binding row with the matches of one instantiated pattern.
// Two strategies, chosen per step at run time (ChooseScanJoin): probing —
// the classic index-nested-loop step, one Match per row — or a scan-join,
// one Match for the property's extent joined on the subject through
// binary search over the subject-ordered extent. Both emit each input
// row's extensions contiguously and in table order, which the OPTIONAL
// merge relies on.
void ExtendStep(const Backend& backend, const plan::PhysStep& step,
                const plan::AccessHints& hints, const exec::ExecContext& ectx,
                obs::Histogram* batch_hist, Table* table) {
  const plan::BgpPattern& pattern = step.pattern;
  const size_t known_vars = table->width;
  const SlotRef s = ResolveTerm(pattern.subject, table);
  const SlotRef p = ResolveTerm(pattern.property, table);
  const SlotRef o = ResolveTerm(pattern.object, table);
  const size_t width = table->vars.size();
  const uint64_t n = table->rows.count;
  const bool scan_join = ChooseScanJoin(step, hints, s, known_vars, n);

  // One span per step, opened on the control thread; the Match spans
  // inside worker lanes are suppressed automatically.
  obs::Span span(ectx.trace(),
                 StepSpanName(scan_join ? "bgp.scan_join" : "bgp.extend",
                              step.est_out));
  span.set_rows_in(n);

  // Appends `row` extended by `t`, unless a variable repeated within the
  // pattern (e.g. (?x, p, ?x)) or one an earlier OPTIONAL left unbound
  // disagrees. Fresh cells start kUnbound, so one rule covers both: an
  // unbound cell takes the value, a bound one must equal it.
  auto emit = [&](const uint64_t* row, const rdf::Triple& t, Rows* out) {
    uint64_t* cells = out->Append(row, known_vars, width);
    auto bind = [cells](const SlotRef& ref, uint64_t value) {
      if (!ref.var_index) return true;
      uint64_t& cell = cells[*ref.var_index];
      if (cell == kUnbound) cell = value;
      return cell == value;
    };
    if (!bind(s, t.subject) || !bind(p, t.property) || !bind(o, t.object)) {
      out->PopBack(width);
    }
  };

  // A variable padded to kUnbound by an earlier OPTIONAL is free again
  // (SPARQL compatible-binding semantics), as is one this pattern
  // introduces.
  auto bound_value = [&](const SlotRef& ref,
                         const uint64_t* row) -> std::optional<uint64_t> {
    if (!ref.var_index) return ref.const_id;
    if (*ref.var_index < known_vars && row[*ref.var_index] != kUnbound) {
      return row[*ref.var_index];
    }
    return std::nullopt;
  };
  auto probe = [&](const uint64_t* row, Rows* out) {
    rdf::TriplePattern tp;
    tp.subject = bound_value(s, row);
    tp.property = bound_value(p, row);
    tp.object = bound_value(o, row);
    ++ectx.counters().match_calls;
    for (const rdf::Triple& t : backend.Match(tp, ectx)) emit(row, t, out);
  };

  Rows next;
  if (scan_join) {
    // Nothing ships forward on a scale-out backend: Match returns the
    // extent to the coordinator and charges that leg itself.
    ++ectx.counters().star_gathers;
    ++ectx.counters().match_calls;
    rdf::TriplePattern tp;
    tp.property = p.const_id;
    if (!o.var_index) tp.object = o.const_id;
    std::vector<rdf::Triple> extent = backend.Match(tp, ectx);
    const auto by_subject = [](const rdf::Triple& a, const rdf::Triple& b) {
      return a.subject < b.subject;
    };
    if (!std::is_sorted(extent.begin(), extent.end(), by_subject)) {
      std::stable_sort(extent.begin(), extent.end(), by_subject);
    }
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t* row = table->Row(i);
      const uint64_t subject = row[*s.var_index];
      if (subject == kUnbound) {  // OPTIONAL padding: probe this row
        probe(row, &next);
        continue;
      }
      const auto [lo, hi] =
          std::equal_range(extent.begin(), extent.end(),
                           rdf::Triple{subject, 0, 0}, by_subject);
      for (auto it = lo; it != hi; ++it) emit(row, *it, &next);
    }
  } else {
    ChargeShipLeg(backend, step, ectx, *table, {&s, &p, &o}, known_vars);
    if (batch_hist != nullptr) {
      // Observe the *logical* batch split (a function of n alone), not the
      // executed one, so the distribution matches at every thread width.
      if (n >= 2 * kBindingsPerBatch) {
        for (uint64_t lo = 0; lo < n; lo += kBindingsPerBatch) {
          batch_hist->Observe(std::min(n, lo + kBindingsPerBatch) - lo);
        }
      } else {
        batch_hist->Observe(n);
      }
    }
    const uint64_t batches =
        ectx.parallel() && n >= 2 * kBindingsPerBatch
            ? (n + kBindingsPerBatch - 1) / kBindingsPerBatch
            : 1;
    if (batches <= 1) {
      for (uint64_t i = 0; i < n; ++i) probe(table->Row(i), &next);
    } else {
      // Order-preserving stitch: batch b covers a contiguous row range,
      // and batch outputs concatenate in batch order — the exact serial
      // extension sequence regardless of lane interleaving.
      ectx.counters().bgp_batches += batches;
      std::vector<Rows> batch_out(batches);
      ectx.ParallelFor(batches, 1, [&](uint64_t b, uint64_t e, uint64_t) {
        for (uint64_t batch = b; batch < e; ++batch) {
          const uint64_t lo = batch * kBindingsPerBatch;
          const uint64_t hi = std::min<uint64_t>(n, lo + kBindingsPerBatch);
          for (uint64_t i = lo; i < hi; ++i) {
            probe(table->Row(i), &batch_out[batch]);
          }
        }
      });
      size_t total = 0;
      for (const Rows& out : batch_out) total += out.cells.size();
      next.cells.reserve(total);
      for (const Rows& out : batch_out) {
        next.cells.insert(next.cells.end(), out.cells.begin(),
                          out.cells.end());
        next.count += out.count;
      }
    }
  }
  table->Replace(std::move(next));
  span.set_rows_out(table->rows.count);
}

// Runs a pipeline's extension steps plus their attached filters over the
// table.
void RunSteps(const Backend& backend, const std::vector<plan::PhysStep>& steps,
              const plan::AccessHints& hints, const exec::ExecContext& ectx,
              obs::Histogram* batch_hist, FilterEvaluator* eval,
              Table* table) {
  for (const plan::PhysStep& step : steps) {
    ExtendStep(backend, step, hints, ectx, batch_hist, table);
    ApplyFilters(step.filters, eval, table);
    if (table->rows.count == 0) break;
  }
}

// Left-joins one OPTIONAL pipeline into the table: runs the optional's
// steps over a copy of the rows tagged with a provenance column, then
// merges — rows with at least one surviving extension keep the extended
// versions, the rest are padded with kUnbound for the optional's fresh
// variables.
void ApplyOptional(const Backend& backend, const plan::PhysPipeline& optional,
                   const plan::AccessHints& hints,
                   const exec::ExecContext& ectx, obs::Histogram* batch_hist,
                   FilterEvaluator* eval, Table* table) {
  const auto add_fresh_vars = [&] {
    std::vector<size_t> cols;
    for (const std::string& v : optional.vars) {
      const size_t c = table->Find(v);
      cols.push_back(c != Table::npos ? c : table->AddVar(v));
    }
    return cols;
  };
  if (optional.always_empty || table->rows.count == 0) {
    // Nothing to join; the fresh columns still exist, all-unbound.
    add_fresh_vars();
    Widen(table);
    return;
  }
  obs::Span span(ectx.trace(), "bgp.optional");
  span.set_rows_in(table->rows.count);

  // Parser variables are alphanumeric, so "#src" cannot collide.
  const size_t in_width = table->width;
  const size_t src_col = in_width;
  Table work;
  work.vars = table->vars;
  work.AddVar("#src");
  Rows tagged;
  tagged.cells.reserve(table->rows.count * (in_width + 1));
  for (size_t i = 0; i < table->rows.count; ++i) {
    tagged.Append(table->Row(i), in_width, in_width + 1)[src_col] = i;
  }
  work.Replace(std::move(tagged));
  RunSteps(backend, optional.steps, hints, ectx, batch_hist, eval, &work);

  const std::vector<size_t> fresh_out = add_fresh_vars();
  std::vector<size_t> fresh_work;
  for (const std::string& v : optional.vars) fresh_work.push_back(work.Find(v));
  const size_t width = table->vars.size();

  // Extension steps are order-preserving, so the surviving work rows stay
  // grouped in ascending provenance order: one forward merge pass.
  Rows merged;
  merged.cells.reserve(std::max(work.rows.count, table->rows.count) * width);
  size_t next = 0;
  for (size_t i = 0; i < table->rows.count; ++i) {
    bool any = false;
    while (next < work.rows.count && work.Row(next)[src_col] == i) {
      const uint64_t* wrow = work.Row(next);
      // Required columns ride along in the work table (the optional may
      // even have bound a previously-unbound one).
      uint64_t* out = merged.Append(wrow, src_col, width);
      for (size_t k = 0; k < fresh_out.size(); ++k) {
        if (fresh_work[k] != Table::npos) {
          out[fresh_out[k]] = wrow[fresh_work[k]];
        }
      }
      any = true;
      ++next;
    }
    if (!any) merged.Append(table->Row(i), in_width, width);
  }
  table->Replace(std::move(merged));
  span.set_rows_out(table->rows.count);
}

// Triple patterns in a logical subtree: what a planning span reports as
// its input.
size_t CountScans(const plan::LogicalNode& node) {
  size_t scans = node.op == plan::LogicalOp::kScan ? 1 : 0;
  for (const auto& child : node.children) scans += CountScans(*child);
  return scans;
}

}  // namespace

Result<BgpResult> ExecutePlan(const Backend& backend,
                              const plan::PhysicalPlan& plan,
                              const exec::ExecContext& ectx) {
  // Binding-batch size distribution across all probe steps. Batch sizes
  // depend only on binding counts, never on the thread budget, so the
  // histogram is width-invariant.
  obs::Histogram* batch_hist = nullptr;
  if (obs::TraceSession* session = ectx.trace()) {
    batch_hist = session->metrics().GetHistogram(
        "bgp.batch_rows", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  }
  FilterEvaluator eval(plan.numeric);

  std::vector<Table> tables;
  size_t total_rows = 0;
  for (const plan::PhysPipeline& branch : plan.branches) {
    if (branch.always_empty) continue;
    Table table;
    table.rows.count = 1;  // one empty binding
    RunSteps(backend, branch.steps, plan.hints, ectx, batch_hist, &eval,
             &table);
    for (const plan::PhysPipeline& optional : branch.optionals) {
      ApplyOptional(backend, optional, plan.hints, ectx, batch_hist, &eval,
                    &table);
    }
    ApplyFilters(branch.post_filters, &eval, &table);
    total_rows += table.rows.count;
    tables.push_back(std::move(table));
  }

  // Align every branch's columns to the query-wide textual order.
  BgpResult result;
  result.vars = plan.all_vars;
  result.rows.reserve(total_rows);
  for (const Table& table : tables) {
    std::vector<size_t> col(plan.all_vars.size());
    for (size_t j = 0; j < col.size(); ++j) {
      col[j] = table.Find(plan.all_vars[j]);
    }
    for (size_t i = 0; i < table.rows.count; ++i) {
      const uint64_t* row = table.Row(i);
      std::vector<uint64_t>& out = result.rows.emplace_back(col.size());
      for (size_t j = 0; j < col.size(); ++j) {
        out[j] = col[j] == Table::npos ? kUnbound : row[col[j]];
      }
    }
  }
  return result;
}

plan::PhysicalPlan PlanQuery(const Backend& backend,
                             const plan::LogicalPlan& logical,
                             const plan::PlannerOptions& options,
                             const exec::ExecContext& ectx) {
  plan::PhysicalPlan physical;
  {
    obs::Span plan_span(ectx.trace(), "bgp.plan");
    plan_span.set_rows_in(CountScans(*logical.root));
    physical = plan::Optimize(logical, options);
  }
  if (const DistRouting* dist = backend.dist(); dist && dist->nodes() > 1) {
    obs::Span dist_span(ectx.trace(), "bgp.distribute");
    plan::DistCostModel model;
    model.nodes = dist->nodes();
    model.bytes_per_sec = dist->NetBandwidthBytesPerSec();
    model.seconds_per_message = dist->NetLatencySecondsPerMessage();
    model.coordinator = dist->Coordinator();
    model.home_node = [dist](uint64_t property) {
      return dist->HomeNode(property);
    };
    plan::AnnotateDistribution(&physical, model);
  }
  return physical;
}

Result<BgpResult> ExecuteBgp(const Backend& backend,
                             const std::vector<BgpPattern>& patterns,
                             const exec::ExecContext& ectx,
                             const plan::PlannerOptions& options) {
  if (patterns.empty()) {
    return Status::InvalidArgument("empty basic graph pattern");
  }
  for (const BgpPattern& p : patterns) {
    for (const Term* t : {&p.subject, &p.property, &p.object}) {
      if (t->is_var && t->var.empty()) {
        return Status::InvalidArgument("variable term with empty name");
      }
    }
  }
  return ExecutePlan(
      backend,
      PlanQuery(backend, plan::BuildBgpLogical(patterns), options, ectx),
      ectx);
}

}  // namespace swan::core
