// Reproduces the §2.1 prose statistics that accompany Table 1/Figure 1:
// the most frequent property (<type>, 12,327,859 of 50.2M triples), the
// most popular object (<Date>, 4,035,522 triples — 8% — all under <type>),
// the next 8 most frequent objects all being type classes, and the
// near-uniform subject distribution (top subject only 3,794 triples,
// under 100 occurrences past the top ~97 subjects).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "rdf/term_counts.h"

namespace {

using Counts = std::vector<std::pair<uint64_t, uint64_t>>;
using Roles = swan::rdf::TermCounts::Roles;

// (term, count) for every term counted in `role`, most frequent first.
Counts SortedCounts(const swan::rdf::TermCounts& terms,
                    uint64_t Roles::*role) {
  Counts out;
  const auto roles = terms.roles();
  for (uint64_t id = 0; id < roles.size(); ++id) {
    if (roles[id].*role != 0) out.emplace_back(id, roles[id].*role);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace

int main() {
  using swan::TablePrinter;
  const auto config = swan::bench::DefaultConfig();
  swan::bench::PrintHeader("Section 2.1: distribution details",
                           "prose statistics of section 2.1", config);

  const auto barton = swan::bench_support::GenerateBarton(config);
  const auto& data = barton.dataset;
  const auto& dict = data.dict();
  const double total = static_cast<double>(data.size());

  const swan::rdf::TermCounts terms(data.triples());
  std::vector<uint64_t> obj_under_type(dict.size());
  const uint64_t type_id = dict.Find("<type>").value();
  for (const auto& t : data.triples()) {
    if (t.property == type_id) ++obj_under_type[t.object];
  }

  std::printf("--- top properties (paper: <type> holds 24.5%%) ---\n");
  TablePrinter props({"rank", "property", "triples", "% of total"});
  const Counts top_props = SortedCounts(terms, &Roles::property);
  for (size_t i = 0; i < std::min<size_t>(8, top_props.size()); ++i) {
    const auto [id, count] = top_props[i];
    props.AddRow({std::to_string(i + 1), std::string(dict.Lookup(id)),
                  TablePrinter::Int(count),
                  TablePrinter::Fixed(100.0 * count / total, 2)});
  }
  std::printf("%s\n", props.ToString().c_str());

  std::printf(
      "--- top objects (paper: <Date> 8%% of all triples, all under <type>; "
      "the\nnext 8 most frequent objects are also type classes) ---\n");
  TablePrinter objs({"rank", "object", "triples", "% of total",
                     "under <type>"});
  const Counts top_objs = SortedCounts(terms, &Roles::object);
  for (size_t i = 0; i < std::min<size_t>(9, top_objs.size()); ++i) {
    const auto [id, count] = top_objs[i];  // count > 0
    objs.AddRow({std::to_string(i + 1), std::string(dict.Lookup(id)),
                 TablePrinter::Int(count),
                 TablePrinter::Fixed(100.0 * count / total, 2),
                 TablePrinter::Fixed(100.0 * obj_under_type[id] / count, 1)});
  }
  std::printf("%s\n", objs.ToString().c_str());

  std::printf(
      "--- subject uniformity (paper: max 3,794 of 50.2M = 0.0075%%; below "
      "100\noccurrences past the top ~97 subjects) ---\n");
  const Counts top_subj = SortedCounts(terms, &Roles::subject);
  const double scaled_hundred = 100.0 * total / 50255599.0;
  size_t past_threshold = 0;
  while (past_threshold < top_subj.size() &&
         static_cast<double>(top_subj[past_threshold].second) >
             scaled_hundred) {
    ++past_threshold;
  }
  std::printf(
      "max subject frequency: %llu (%.4f%% of triples; paper 0.0075%%)\n"
      "subjects above the scale-equivalent of 100 Barton occurrences "
      "(%.1f): %zu (paper: ~97)\n\n",
      static_cast<unsigned long long>(top_subj.empty() ? 0
                                                       : top_subj[0].second),
      top_subj.empty() ? 0.0 : 100.0 * top_subj[0].second / total,
      scaled_hundred, past_threshold);

  std::printf(
      "expected shape: one dominant property (~24.5%%), <Date> as top object "
      "(~8%%,\n100%% under <type>) with further type classes behind it, and "
      "subjects whose\nmaximum share is orders of magnitude below the top "
      "property's.\n");
  return 0;
}
