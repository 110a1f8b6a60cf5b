// Reproduces Table 7: hot-run execution times for all 12 benchmark
// queries over the full storage-scheme x engine grid.

#include "exhibit.h"

int main(int argc, char** argv) {
  using namespace swan::bench;
  InitThreads(argc, argv);
  ExhibitSpec spec = GridSpec(/*hot=*/true);
  spec.codec = InitCodec(argc, argv);
  spec.json_path = InitJsonPath(argc, argv, spec.name);
  RunExhibit(spec);
  return 0;
}
