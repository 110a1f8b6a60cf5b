#ifndef SWANDB_CORE_CSTORE_BACKEND_H_
#define SWANDB_CORE_CSTORE_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "cstore/cstore_engine.h"

namespace swan::core {

// Adapter exposing the hard-wired C-Store engine as a Backend. Only q1–q7
// are supported, and only the triples of the "interesting" properties are
// loaded — faithfully mirroring the repeatability constraints the paper
// ran into (§3). Match() consequently only sees the loaded properties.
class CStoreBackend : public BackendBase {
 public:
  // `properties` is the subset to load (the 28 interesting ones).
  CStoreBackend(const rdf::Dataset& dataset,
                std::vector<uint64_t> properties,
                storage::DiskConfig disk_config =
                    cstore::CStoreEngine::RecommendedDiskConfig(390.0),
                size_t pool_pages = 4096);

  std::string name() const override { return "C-Store vert. SO"; }
  bool Supports(QueryId id) const override;
  using Backend::Run;
  using Backend::Match;
  QueryResult Run(QueryId id, const QueryContext& ctx,
                  const exec::ExecContext& ectx) override;
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
      const exec::ExecContext& ectx) const override;
  void DropCaches() override;
  uint64_t disk_bytes() const override { return engine_->disk_bytes(); }

  const cstore::CStoreEngine& engine() const { return *engine_; }

  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = true;  // per-property projections
    hints.subject_indexed = true;        // sorted on subject
    hints.property_fanout = true;        // unbound property = all projections
    return hints;
  }

  audit::AuditReport Audit(audit::AuditLevel level) const override {
    audit::AuditReport report;
    engine_->AuditInto(level, dataset_ptr_->dict().size(), &report);
    report.Merge(BackendBase::Audit(level));
    AuditNoFrames(&report);
    return report;
  }

  ResidentBytes Resident() const override {
    ResidentBytes bytes = BackendBase::Resident();
    bytes.column_images = engine_->resident_bytes();
    return bytes;
  }

 private:
  const rdf::Dataset* dataset_ptr_;
  std::unique_ptr<cstore::CStoreEngine> engine_;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_CSTORE_BACKEND_H_
