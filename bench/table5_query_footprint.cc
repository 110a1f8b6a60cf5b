// Reproduces Table 5: per-query data volume read from disk and number of
// rows returned, for q1..q7 on the C-Store-style engine (the paper
// instruments the original C-Store with iostat).

#include "exhibit.h"

int main(int argc, char** argv) {
  using namespace swan::bench;
  ExhibitSpec spec;
  spec.name = "table5_query_footprint";
  spec.title = "Table 5: data relevant to a query";
  spec.reproduces = "Table 5 of Sidirourgos et al., VLDB 2008";
  spec.designs = {"C-Store vert. SO"};
  spec.queries = swan::core::InitialQueries();
  spec.modes = {Mode::kCold};
  spec.repetitions = 1;  // cold bytes and rows are exact
  spec.metrics = {Metric::kMbRead, Metric::kRows};
  spec.note =
      "Every query reads a major portion of the (small) database, the\n"
      "28-property subset above: per-query footprints are the same order of\n"
      "magnitude as the whole store, with q5 the largest reader.\n";
  RunExhibit(spec, argc, argv);
  return 0;
}
