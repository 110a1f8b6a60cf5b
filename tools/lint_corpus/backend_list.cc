// swan-lint-corpus-path: tests/bad_backend_list_test.cc
// Seeded corpus for the backend-list rule: a suite opens its engine
// backends from bench_support::Designs(), never with make_unique, so that
// every suite's design list is the one list. The reference oracle stays
// hand-built.
#include <memory>
#include <vector>

#include "bench_support/designs.h"
#include "core/col_backends.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"
#include "shard/sharded_backend.h"

namespace swan {

void HandBuiltList(const rdf::Dataset& data) {
  std::vector<std::unique_ptr<core::Backend>> backends;
  backends.push_back(std::make_unique<core::ColVerticalBackend>(data));  // expect(backend-list)
  backends.push_back(std::make_unique<core::RowTripleBackend>(  // expect(backend-list)
      data, rowstore::TripleRelation::PsoConfig()));
  backends.push_back(
      std::make_unique<shard::ShardedBackend>(data, shard::ShardOptions{}));  // expect(backend-list)
}

void FromTheList(const rdf::Dataset& data) {
  auto designs = bench_support::OpenDesigns(data);
  auto one = bench_support::OpenDesign(data, "MonetDB vert. SO");
  // The oracle is not a design.
  auto reference = std::make_unique<core::ReferenceBackend>(data);
  // swan-lint: allow(backend-list)
  auto kept = std::make_unique<core::CStoreBackend>(data, std::vector<uint64_t>{});
  (void)designs;
  (void)one;
  (void)reference;
  (void)kept;
}

}  // namespace swan
