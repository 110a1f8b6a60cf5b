#include "plan/physical.h"

#include <cmath>
#include <sstream>

namespace swan::plan {

namespace {

std::string TermText(const Term& term,
                     const std::function<std::string(uint64_t)>& term_name) {
  if (term.is_var) return "?" + term.var;
  if (term_name) return term_name(term.id);
  return "#" + std::to_string(term.id);
}

std::string EstText(double est) {
  if (est < 0) return "?";
  std::ostringstream out;
  if (est < 10) {
    out.precision(1);
    out << std::fixed << est;
  } else {
    out << static_cast<uint64_t>(std::llround(est));
  }
  return out.str();
}

std::string FilterText(const FilterExpr& filter,
                       const std::function<std::string(uint64_t)>& term_name) {
  std::ostringstream out;
  out << "FILTER(?" << filter.var << " " << ToString(filter.op) << " ";
  if (filter.op == FilterOp::kIn) out << "(";
  bool first = true;
  for (const FilterOperand& value : filter.values) {
    if (!first) out << ", ";
    first = false;
    if (value.is_var()) {
      out << "?" << value.var;
    } else if (value.id) {
      out << (term_name ? term_name(*value.id) : "#" + std::to_string(*value.id));
    } else if (value.number) {
      out << EstText(*value.number);
    } else {
      out << "<not-in-dictionary>";
    }
  }
  if (filter.op == FilterOp::kIn) out << ")";
  out << ")";
  if (filter.impossible) out << " [never true]";
  return out.str();
}

void RenderPipeline(const PhysPipeline& pipeline, const std::string& indent,
                    const std::function<std::string(uint64_t)>& term_name,
                    std::ostringstream* out) {
  if (pipeline.always_empty) {
    *out << indent << "empty (" << pipeline.empty_reason << ")\n";
    return;
  }
  for (const PhysStep& step : pipeline.steps) {
    *out << indent << "extend " << PatternText(step.pattern, term_name);
    if (step.est_out >= 0) {
      *out << "  (est " << EstText(step.est_out) << " rows";
      if (step.est_matches >= 0) {
        *out << ", " << EstText(step.est_matches) << " matches/probe";
      }
      if (step.extent >= 0) *out << ", extent " << EstText(step.extent);
      *out << ")";
    }
    // Distribution annotations only appear on annotated (scale-out)
    // plans, so single-node EXPLAIN output is unchanged.
    if (step.ship != ShipMode::kLocal) {
      *out << "  [" << ToString(step.ship) << " -> node " << step.home_node
           << "]";
    } else if (step.home_node >= 0) {
      *out << "  [node " << step.home_node << "]";
    }
    *out << "\n";
    const Term* terms[3] = {&step.pattern.subject, &step.pattern.property,
                            &step.pattern.object};
    for (int c = 0; c < 3; ++c) {
      const rdf::ScanFilter& f = step.scan_filter.at(c);
      if (f.all()) continue;
      *out << indent << "  scan " << TermText(*terms[c], term_name) << " IN (";
      for (size_t i = 0; i < f.ids().size(); ++i) {
        *out << (i > 0 ? ", " : "")
             << TermText(Term::Const(f.ids()[i]), term_name);
      }
      *out << ")\n";
    }
    for (const FilterExpr& filter : step.filters) {
      *out << indent << "  " << FilterText(filter, term_name) << "\n";
    }
  }
  for (const PhysPipeline& optional : pipeline.optionals) {
    *out << indent << "optional:\n";
    RenderPipeline(optional, indent + "  ", term_name, out);
  }
  for (const FilterExpr& filter : pipeline.post_filters) {
    *out << indent << FilterText(filter, term_name) << "\n";
  }
}

}  // namespace

std::string ToString(ShipMode mode) {
  switch (mode) {
    case ShipMode::kLocal:
      return "local";
    case ShipMode::kShipBindings:
      return "ship-bindings";
    case ShipMode::kShipSemiJoin:
      return "ship-semijoin";
  }
  return "?";
}

std::string PatternText(
    const BgpPattern& pattern,
    const std::function<std::string(uint64_t)>& term_name) {
  return "(" + TermText(pattern.subject, term_name) + " " +
         TermText(pattern.property, term_name) + " " +
         TermText(pattern.object, term_name) + ")";
}

std::string ExplainText(
    const PhysicalPlan& plan,
    const std::function<std::string(uint64_t)>& term_name) {
  std::ostringstream out;
  out << "plan: " << plan.mode_note << "\n";
  for (size_t b = 0; b < plan.branches.size(); ++b) {
    if (plan.branches.size() > 1) out << "branch " << (b + 1) << ":\n";
    RenderPipeline(plan.branches[b], "  ", term_name, &out);
  }
  out << "  project";
  if (plan.projection.empty()) {
    out << " *";
  } else {
    for (const std::string& var : plan.projection) out << " ?" << var;
  }
  if (plan.distinct) out << " distinct";
  if (plan.offset) out << " offset " << *plan.offset;
  if (plan.limit) out << " limit " << *plan.limit;
  out << "\n";
  return out.str();
}

}  // namespace swan::plan
