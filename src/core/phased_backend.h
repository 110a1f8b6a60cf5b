#ifndef SWANDB_CORE_PHASED_BACKEND_H_
#define SWANDB_CORE_PHASED_BACKEND_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "colstore/ops.h"
#include "core/backend.h"

namespace swan::core {

// (key, count) groups, ascending by key.
using KeyCounts = std::vector<std::pair<uint64_t, uint64_t>>;
// (subject, object) rows of one property, ascending.
using SubjectObjects = std::vector<std::pair<uint64_t, uint64_t>>;

// Every engine but the C-Store baseline and the reference, as one
// partition of the 12 benchmark queries. One skeleton (RunPartitioned)
// holds the eight logical plans. Its pattern steps on one property (the
// subject filter ?s p o, the pair step ?s p ?o over a subject set, q6's
// probe ?s <records> ?o over an object set) are Match calls, a set going
// as an id-set rdf::ScanFilter; each engine supplies the five phases below
// over its own layout. A step or phase reads only this backend's base data
// and takes its filter as an argument, so the skeleton serves a single
// node, which is one partition, and the nodes of a scale-out store alike.
//
// Every set a phase takes (subjects, objects) is a sorted, duplicate-free
// span, and each engine builds the membership structure it probes inside
// the phase: a dense colstore::MarkSet on the column engines, a hash
// IdSet on the row engines. Steps and phases yield sorted, duplicate-free
// rows, so partials from several nodes merge linearly at a coordinator,
// and every engine returns its rows in the same order.
//
// Property lists (`props`) are sorted; nullptr means every property.
// `universe` bounds the dictionary ids (dense set and counter sizing).
class PhasedBackend : public BackendBase {
 public:
  // `tag` prefixes the engine's span names ("col_vert", "row_triple").
  PhasedBackend(std::string tag, storage::DiskConfig disk_config,
                size_t pool_pages)
      : BackendBase(disk_config, pool_pages), tag_(std::move(tag)) {}
  PhasedBackend(std::string tag, storage::SimulatedDisk* disk,
                storage::BufferPool* pool)
      : BackendBase(disk, pool), tag_(std::move(tag)) {}

  // The 12 benchmark queries over this backend alone: RunPartitioned
  // with one partition and no network.
  using Backend::Run;
  QueryResult Run(QueryId id, const QueryContext& ctx,
                  const exec::ExecContext& ectx) final;

  // The 12 benchmark queries over `parts`, partition n on node n of
  // `routing` (nullptr: one partition, no network). Every partition first
  // folds its write store into its base data. Each query then gathers
  // its filter from the nodes holding it and ships it to the nodes that
  // consume it, runs its phase on every holder, and merges the sorted
  // partials at the routing's coordinator, where HAVING applies. A single
  // partial is the answer as it stands. The root span is
  // "<tag>.<FamilyName(id)>".
  static QueryResult RunPartitioned(std::span<PhasedBackend* const> parts,
                                    DistRouting* routing,
                                    std::string_view tag, QueryId id,
                                    const QueryContext& ctx,
                                    const exec::ExecContext& ectx);

  uint64_t merge_count() const { return merge_count_; }
  // Rows waiting in the write store (inserts + tombstones); none for an
  // engine that applies writes in place.
  virtual uint64_t PendingWrites() const { return 0; }

 protected:
  const std::string& tag() const { return tag_; }

  // Rebuilds the read-optimized base from base + write store; returns the
  // rows rewritten (every rebuilt partition, or the whole table).
  virtual uint64_t EnsureMerged() { return 0; }

 private:
  // Applies buffered inserts and deletes to the base data; the phases
  // never see the write store.
  void MergeDelta(const exec::ExecContext& ectx);

  // --- phases -------------------------------------------------------------
  // q8: objects o with (subject, ?, o).
  virtual std::vector<uint64_t> ObjectsOf(
      uint64_t subject, const exec::ExecContext& ectx) const = 0;
  // q1: object counts of one property.
  virtual KeyCounts ObjectCounts(uint64_t property, uint64_t universe,
                                 const exec::ExecContext& ectx) const = 0;
  // q2/q6: per-property triple counts of the `subjects`.
  virtual KeyCounts PropertyCounts(std::span<const uint64_t> subjects,
                                   const std::vector<uint64_t>* props,
                                   uint64_t universe,
                                   const exec::ExecContext& ectx) const = 0;
  // q3/q4: the (property, object) groups of the `subjects` whose count
  // reaches min_count(property), from colstore::CountPairs over the
  // selected pairs.
  virtual std::vector<colstore::PairCount> PropertyObjectCounts(
      std::span<const uint64_t> subjects, const std::vector<uint64_t>* props,
      uint64_t universe, const colstore::MinCount& min_count,
      const exec::ExecContext& ectx) const = 0;
  // q8: subjects with an object in `objects`, through any property.
  virtual std::vector<uint64_t> SubjectsWithObjectIn(
      std::span<const uint64_t> objects, uint64_t universe,
      const exec::ExecContext& ectx) const = 0;

  std::string tag_;
  uint64_t merge_count_ = 0;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_PHASED_BACKEND_H_
