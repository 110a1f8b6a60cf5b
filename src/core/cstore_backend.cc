#include "core/cstore_backend.h"

#include "colstore/pattern_scan.h"
#include "common/macros.h"
#include "obs/trace.h"

namespace swan::core {

namespace {

cstore::CStoreConstants ConstantsFrom(const QueryContext& ctx) {
  const Vocabulary& v = ctx.vocab();
  cstore::CStoreConstants c;
  c.type = v.type;
  c.text = v.text;
  c.language = v.language;
  c.french = v.french;
  c.origin = v.origin;
  c.dlc = v.dlc;
  c.records = v.records;
  c.point = v.point;
  c.end = v.end;
  c.encoding = v.encoding;
  c.dict_size = ctx.dict_size();
  return c;
}

const std::vector<std::string>& ColumnNamesFor(QueryId id) {
  static const auto* const kTwo =
      new std::vector<std::string>{"obj", "count"};
  static const auto* const kProp =
      new std::vector<std::string>{"prop", "count"};
  static const auto* const kThree =
      new std::vector<std::string>{"prop", "obj", "count"};
  static const auto* const kQ5 = new std::vector<std::string>{"subj", "obj"};
  static const auto* const kQ7 =
      new std::vector<std::string>{"subj", "encoding", "type"};
  switch (id) {
    case QueryId::kQ1:
      return *kTwo;
    case QueryId::kQ2:
    case QueryId::kQ6:
      return *kProp;
    case QueryId::kQ3:
    case QueryId::kQ4:
      return *kThree;
    case QueryId::kQ5:
      return *kQ5;
    default:
      return *kQ7;
  }
}

}  // namespace

CStoreBackend::CStoreBackend(const rdf::Dataset& dataset,
                             std::vector<uint64_t> properties,
                             storage::DiskConfig disk_config,
                             size_t pool_pages)
    : BackendBase(disk_config, pool_pages), dataset_ptr_(&dataset) {
  engine_ = std::make_unique<cstore::CStoreEngine>(pool_, disk_);
  engine_->Load(dataset.triples(), properties);
}

bool CStoreBackend::Supports(QueryId id) const {
  return !IsStar(id) && id != QueryId::kQ8;
}

QueryResult CStoreBackend::Run(QueryId id, const QueryContext& ctx,
                               const exec::ExecContext& ectx) {
  SWAN_CHECK_MSG(Supports(id),
                 "C-Store's hard-wired plans cover only q1-q7");
  obs::Span span(ectx.trace(), "cstore.query");
  const cstore::CStoreConstants c = ConstantsFrom(ctx);
  QueryResult result;
  result.column_names = ColumnNamesFor(id);
  switch (id) {
    case QueryId::kQ1:
      result.rows = engine_->Q1(c, ectx);
      break;
    case QueryId::kQ2:
      result.rows = engine_->Q2(c, ectx);
      break;
    case QueryId::kQ3:
      result.rows = engine_->Q3(c, ectx);
      break;
    case QueryId::kQ4:
      result.rows = engine_->Q4(c, ectx);
      break;
    case QueryId::kQ5:
      result.rows = engine_->Q5(c, ectx);
      break;
    case QueryId::kQ6:
      result.rows = engine_->Q6(c, ectx);
      break;
    case QueryId::kQ7:
      result.rows = engine_->Q7(c, ectx);
      break;
    default:
      SWAN_CHECK(false);
  }
  span.set_rows_out(result.rows.size());
  return result;
}

std::vector<rdf::Triple> CStoreBackend::Match(
    const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
    const exec::ExecContext& ectx) const {
  // The column stores' one pattern scan over each partition, serial in
  // property order, then the filter as a plain post-filter: the paper's baseline engine
  // stays as it was built. The span is suppressed automatically inside
  // BGP worker lanes.
  obs::Span span(ectx.trace(), "cstore.match");
  std::vector<uint64_t> props;
  if (pattern.property) {
    if (engine_->HasProperty(*pattern.property)) {
      props.push_back(*pattern.property);
    }
  } else {
    props = engine_->properties();
  }
  std::vector<rdf::Triple> out;
  const rdf::ScanFilter all;
  for (uint64_t p : props) {
    colstore::MatchColumns<2>(
        {&engine_->SubjectColumn(p), &engine_->ObjectColumn(p)}, {0, 1},
        {pattern.subject, pattern.object}, {&all, &all}, 0, ectx,
        [&](const auto& v, uint64_t n) {
          for (uint64_t i = 0; i < n; ++i) out.push_back({v[0][i], p, v[1][i]});
        });
  }
  if (!filter.all()) {
    std::erase_if(out, [&](const rdf::Triple& t) { return !filter.Passes(t); });
  }
  span.set_rows_out(out.size());
  return out;
}

void CStoreBackend::DropCaches() {
  engine_->DropCaches();
  pool_->Clear();
}

}  // namespace swan::core
