#ifndef SWANDB_EXEC_EXEC_CONTEXT_H_
#define SWANDB_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>

namespace swan::obs {
class TraceSession;
}  // namespace swan::obs

namespace swan::exec {

// Per-query operator/cost counters, accumulated by every layer an
// ExecContext flows through. Atomic because ParallelFor chunks bump them
// concurrently; reads are only meaningful at quiescent points (before /
// after a query), which is how the benches and tests use them.
struct OpCounters {
  std::atomic<uint64_t> parallel_regions{0};  // ParallelFor calls that fanned out
  std::atomic<uint64_t> morsels{0};           // chunks executed across regions
  std::atomic<uint64_t> merge_join_partitions{0};  // key-range join partitions
  std::atomic<uint64_t> match_calls{0};       // Backend::Match invocations
  std::atomic<uint64_t> bgp_batches{0};       // parallel binding-extension batches
  std::atomic<uint64_t> star_gathers{0};      // BGP steps run as scan-joins
  // Modeled-network cost (scale-out topologies only; zero on one node).
  // Charged by net::NetworkModel::Ship via the routing layer.
  std::atomic<uint64_t> net_bytes{0};         // bytes shipped between nodes
  std::atomic<uint64_t> net_messages{0};      // inter-node messages

  // Plain-value copy for reporting.
  struct Snapshot {
    uint64_t parallel_regions = 0;
    uint64_t morsels = 0;
    uint64_t merge_join_partitions = 0;
    uint64_t match_calls = 0;
    uint64_t bgp_batches = 0;
    uint64_t star_gathers = 0;
    uint64_t net_bytes = 0;
    uint64_t net_messages = 0;
  };
  Snapshot Snap() const {
    Snapshot s;
    s.parallel_regions = parallel_regions.load(std::memory_order_relaxed);
    s.morsels = morsels.load(std::memory_order_relaxed);
    s.merge_join_partitions =
        merge_join_partitions.load(std::memory_order_relaxed);
    s.match_calls = match_calls.load(std::memory_order_relaxed);
    s.bgp_batches = bgp_batches.load(std::memory_order_relaxed);
    s.star_gathers = star_gathers.load(std::memory_order_relaxed);
    s.net_bytes = net_bytes.load(std::memory_order_relaxed);
    s.net_messages = net_messages.load(std::memory_order_relaxed);
    return s;
  }
  void Reset() {
    parallel_regions.store(0, std::memory_order_relaxed);
    morsels.store(0, std::memory_order_relaxed);
    merge_join_partitions.store(0, std::memory_order_relaxed);
    match_calls.store(0, std::memory_order_relaxed);
    bgp_batches.store(0, std::memory_order_relaxed);
    star_gathers.store(0, std::memory_order_relaxed);
    net_bytes.store(0, std::memory_order_relaxed);
    net_messages.store(0, std::memory_order_relaxed);
  }
};

// The execution context of one query: an explicit handle on the scheduler
// carrying the thread budget and the per-query operator counters. Every
// layer below the API boundary (storage lane accrual excepted, which rides
// the per-chunk TaskContext) receives the context as a parameter instead
// of reading global execution state — `exec::Threads()` is read in exactly
// two places, both inside src/exec: the default constructor here and the
// scheduler that caps the effective width at the pool size.
//
// The default-constructed context snapshots the globally configured width,
// so code built before the refactor behaves identically; an explicit
// ExecContext(n) narrows (never widens past the pool) the fan-out of
// everything it is passed to. ExecContext(1) is the serial engine: every
// ParallelFor it issues runs inline on the calling thread, bit-identical
// to the pre-parallel code paths.
//
// Deterministic accounting carries over from the global scheduler: chunk
// c of a region runs on lane c % threads() no matter which OS thread the
// work-stealing pool lands it on, so modeled cost (CPU + simulated disk)
// is a function of the context, not the host.
class ExecContext {
 public:
  // Width = the globally configured exec::SetThreads value.
  ExecContext();
  // Explicit thread budget (clamped to >= 1). The effective fan-out of a
  // region is min(threads, configured pool width).
  explicit ExecContext(int threads);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  int threads() const { return threads_; }
  bool parallel() const { return threads_ > 1; }

  // Morsel scheduler bound to this context: identical contract to
  // exec::ParallelFor, with the fan-out width capped at threads().
  void ParallelFor(uint64_t n, uint64_t grain,
                   const std::function<void(uint64_t begin, uint64_t end,
                                            uint64_t chunk)>& body) const;

  // Shard count for per-shard partial aggregation under this context's
  // budget: threads() when n is worth splitting, else 1.
  uint64_t ShardsFor(uint64_t n, uint64_t min_items_per_shard) const;

  OpCounters& counters() const { return counters_; }

  // The trace session observing this query, or nullptr (the default: all
  // tracing code is a null check). exec only stores the pointer — the
  // profiling glue (core::ScopedProfile) owns the session and attaches /
  // detaches it at quiescent points, never while a ParallelFor issued
  // from this context is in flight. Mutable for the same reason as the
  // counters: observation state, not execution semantics.
  obs::TraceSession* trace() const { return trace_; }
  void AttachTrace(obs::TraceSession* session) const { trace_ = session; }

 private:
  int threads_ = 1;
  mutable OpCounters counters_;
  mutable obs::TraceSession* trace_ = nullptr;
};

}  // namespace swan::exec

#endif  // SWANDB_EXEC_EXEC_CONTEXT_H_
