#include "bench_support/dataset_stats.h"

#include <span>
#include <utility>

#include "rdf/term_counts.h"

namespace swan::bench_support {

Table1Stats ComputeTable1Stats(const rdf::Dataset& dataset) {
  Table1Stats stats;
  stats.total_triples = dataset.size();
  stats.strings_in_dictionary = dataset.dict().size();

  // Every occurrence of a term in a triple contributes its text once.
  uint64_t term_bytes = 5 * dataset.size();  // " " x3 + ". \n" per triple
  const rdf::TermCounts terms(dataset.triples());
  const std::span<const rdf::TermCounts::Roles> roles = terms.roles();
  for (uint64_t id = 0; id < roles.size(); ++id) {
    const rdf::TermCounts::Roles& r = roles[id];
    const uint64_t uses = r.subject + r.property + r.object;
    if (uses == 0) continue;
    term_bytes += uses * dataset.dict().Lookup(id).size();
    stats.distinct_subjects += r.subject != 0;
    stats.distinct_properties += r.property != 0;
    stats.distinct_objects += r.object != 0;
    stats.subjects_also_objects += r.subject != 0 && r.object != 0;
  }
  stats.dataset_bytes = term_bytes;
  return stats;
}

Figure1Curves ComputeFigure1Curves(const rdf::Dataset& dataset, int points) {
  std::vector<uint64_t> subj, prop, obj;
  const rdf::TermCounts terms(dataset.triples());
  for (const rdf::TermCounts::Roles& r : terms.roles()) {
    if (r.subject != 0) subj.push_back(r.subject);
    if (r.property != 0) prop.push_back(r.property);
    if (r.object != 0) obj.push_back(r.object);
  }
  Figure1Curves curves;
  curves.properties = CumulativeFrequency(std::move(prop), points);
  curves.subjects = CumulativeFrequency(std::move(subj), points);
  curves.objects = CumulativeFrequency(std::move(obj), points);
  return curves;
}

}  // namespace swan::bench_support
