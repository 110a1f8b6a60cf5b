// Reproduces Table 6: cold-run execution times for all 12 benchmark
// queries over the full storage-scheme x engine grid.

#include "exhibit.h"

int main(int argc, char** argv) {
  using namespace swan::bench;
  InitThreads(argc, argv);
  ExhibitSpec spec = GridSpec(/*hot=*/false);
  spec.points[0].codec = InitCodec(argc, argv);
  RunExhibit(spec, argc, argv);
  return 0;
}
