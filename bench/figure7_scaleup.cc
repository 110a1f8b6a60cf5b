// Reproduces Figure 7: the scalability experiment of section 4.4 — the
// same triples redistributed over an increasing number of properties
// (222 -> 1000 via property splitting), comparing q2*, q3*, q4*, q6* on
// the column-store triple (PSO) and vertical schemes.

#include "exhibit.h"

int main(int argc, char** argv) {
  using namespace swan::bench;
  using swan::core::QueryId;
  ExhibitSpec spec;
  spec.name = "figure7_scaleup";
  spec.title = "Figure 7: scalability with the number of properties";
  spec.reproduces = "Figure 7 of Sidirourgos et al., VLDB 2008";
  spec.points.clear();
  for (uint64_t properties : {222, 320, 430, 540, 650, 770, 880, 1000}) {
    spec.points.push_back({.properties = properties});
  }
  spec.designs = {"MonetDB triple PSO", "MonetDB vert. SO"};
  spec.queries = {QueryId::kQ2Star, QueryId::kQ3Star, QueryId::kQ4Star,
                  QueryId::kQ6Star};
  spec.modes = {Mode::kHot};
  spec.metrics = {Metric::kReal};
  spec.note =
      "At 222 properties the vertical scheme wins; as properties split\n"
      "further its times increase steadily (hundreds of per-partition\n"
      "joins/unions) while triple-store times stay flat or decrease, so the\n"
      "triple-store overtakes it well before 1000 properties.\n";
  RunExhibit(spec, argc, argv);
  return 0;
}
