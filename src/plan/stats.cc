#include "plan/stats.h"

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rdf/term_counts.h"

namespace swan::plan {

StoreStats StoreStats::Collect(const rdf::Dataset& dataset) {
  const std::vector<rdf::Triple>& triples = dataset.triples();
  const rdf::TermCounts terms(triples);
  const std::span<const rdf::TermCounts::Roles> roles = terms.roles();
  const uint64_t universe = roles.size();

  StoreStats stats;
  stats.total_triples = triples.size();
  // Global distinct counts, and each property's first slot in a counting
  // sort of the triples by property.
  std::vector<uint64_t> next(universe);
  uint64_t offset = 0;
  uint64_t properties = 0;
  for (uint64_t id = 0; id < universe; ++id) {
    stats.distinct_subjects += roles[id].subject != 0;
    stats.distinct_objects += roles[id].object != 0;
    properties += roles[id].property != 0;
    next[id] = offset;
    offset += roles[id].property;
  }
  // (subject, object) of every triple, grouped by property. Afterwards
  // next[p] is one past the end of property p's run.
  std::vector<std::pair<uint64_t, uint64_t>> runs(triples.size());
  for (const rdf::Triple& t : triples) {
    runs[next[t.property]++] = {t.subject, t.object};
  }

  // Per-property distinct keys, marked in id-indexed arrays that every
  // property's run clears behind itself, touching only its own slots.
  std::vector<uint8_t> subject_seen(universe);
  std::vector<uint8_t> object_seen(universe);
  stats.by_property.reserve(properties);
  for (uint64_t property = 0; property < universe; ++property) {
    const uint64_t count = roles[property].property;
    if (count == 0) continue;
    const std::span<const std::pair<uint64_t, uint64_t>> run(
        runs.data() + next[property] - count, count);
    PropertyStats ps;
    ps.count = count;
    for (const auto& [subject, object] : run) {
      ps.distinct_subjects += !std::exchange(subject_seen[subject], 1);
      ps.distinct_objects += !std::exchange(object_seen[object], 1);
    }
    for (const auto& [subject, object] : run) {
      subject_seen[subject] = 0;
      object_seen[object] = 0;
    }
    stats.by_property.emplace(property, ps);
  }
  return stats;
}

double StoreStats::EstimateMatches(std::optional<uint64_t> subject,
                                   std::optional<uint64_t> property,
                                   std::optional<uint64_t> object) const {
  if (total_triples == 0) return 0.0;
  double est;
  if (property) {
    const auto it = by_property.find(*property);
    if (it == by_property.end()) return 0.0;  // property never occurs
    const PropertyStats& ps = it->second;
    est = static_cast<double>(ps.count);
    if (subject && ps.distinct_subjects > 0) {
      est /= static_cast<double>(ps.distinct_subjects);
    }
    if (object && ps.distinct_objects > 0) {
      est /= static_cast<double>(ps.distinct_objects);
    }
  } else {
    est = static_cast<double>(total_triples);
    if (subject && distinct_subjects > 0) {
      est /= static_cast<double>(distinct_subjects);
    }
    if (object && distinct_objects > 0) {
      est /= static_cast<double>(distinct_objects);
    }
  }
  return est;
}

void StoreStats::AuditInto(audit::AuditLevel level, audit::AuditReport* report,
                           const rdf::Dataset& dataset) const {
  uint64_t sum = 0;
  for (const auto& [property, ps] : by_property) {
    sum += ps.count;
    if (ps.count == 0) {
      report->Add(audit::FindingClass::kStructure, "plan.stats",
                  "property " + std::to_string(property) +
                      " recorded with zero triples");
    }
    if (ps.distinct_subjects > ps.count || ps.distinct_objects > ps.count) {
      report->Add(audit::FindingClass::kStructure, "plan.stats",
                  "property " + std::to_string(property) +
                      " has more distinct keys than triples");
    }
  }
  if (sum != total_triples) {
    report->Add(audit::FindingClass::kStructure, "plan.stats",
                "per-property counts sum to " + std::to_string(sum) +
                    ", total records " + std::to_string(total_triples));
  }
  if (level == audit::AuditLevel::kQuick) return;

  // Full audit: the statistics must equal a fresh collection — load-time
  // stats never drift from the dataset they were computed over (the store
  // holds a const reference; mutations go through the backend deltas and
  // are folded into a new dataset on reload).
  const StoreStats fresh = Collect(dataset);
  if (fresh.total_triples != total_triples ||
      fresh.distinct_subjects != distinct_subjects ||
      fresh.distinct_objects != distinct_objects ||
      fresh.by_property.size() != by_property.size()) {
    report->Add(audit::FindingClass::kStructure, "plan.stats",
                "stored statistics disagree with a fresh collection pass");
    return;
  }
  for (const auto& [property, ps] : fresh.by_property) {
    const auto it = by_property.find(property);
    if (it == by_property.end() || it->second.count != ps.count ||
        it->second.distinct_subjects != ps.distinct_subjects ||
        it->second.distinct_objects != ps.distinct_objects) {
      report->Add(audit::FindingClass::kStructure, "plan.stats",
                  "stale statistics for property " + std::to_string(property));
      return;
    }
  }
}

}  // namespace swan::plan
