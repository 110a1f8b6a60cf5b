// Concurrency stress for the storage layer and the parallel query path.
//
// The first half hammers BufferPool and Column from raw std::threads —
// real OS-level concurrency, not the morsel scheduler — and then checks
// that a quiescent kFull audit is clean: pins balanced, page table and
// frames agreeing, no duplicate disk reads for racing fetchers of one
// page. The second half is the engine-level determinism contract: every
// query returns byte-identical rows (and cold runs read identical byte
// counts) at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "audit/audit.h"
#include "bench_support/barton_generator.h"
#include "bench_support/designs.h"
#include "bench_support/harness.h"
#include "colstore/column.h"
#include "core/query.h"
#include "core/store.h"
#include "exec/thread_pool.h"
#include "serve/request.h"
#include "serve/service.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/simulated_disk.h"

namespace swan {
namespace {

using audit::AuditLevel;

std::vector<uint8_t> PatternPage(uint8_t fill) {
  return std::vector<uint8_t>(storage::kPageSize, fill);
}

// Deterministic per-thread page sequence (splitmix-style mixer).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(ConcurrencyStressTest, BufferPoolHammerThenCleanAudit) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  constexpr uint32_t kFiles = 4;
  constexpr uint32_t kPages = 16;
  std::vector<uint32_t> files;
  for (uint32_t f = 0; f < kFiles; ++f) {
    files.push_back(disk.CreateFile());
    for (uint32_t p = 0; p < kPages; ++p) {
      disk.AppendPage(files.back(),
                      PatternPage(static_cast<uint8_t>(f * 31 + p)).data());
    }
  }

  // Capacity far below the working set forces constant eviction while
  // other threads hold pins.
  storage::BufferPool pool(&disk, /*capacity_pages=*/12);  // swan-lint: allow(node-disk)
  constexpr int kThreads = 8;
  constexpr int kFetchesPerThread = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFetchesPerThread; ++i) {
        const uint64_t r = Mix(static_cast<uint64_t>(t) * 1000003 + i);
        const uint32_t f = static_cast<uint32_t>(r % kFiles);
        const uint32_t p = static_cast<uint32_t>((r >> 8) % kPages);
        storage::PageGuard guard = pool.Fetch({files[f], p});
        const uint8_t expected = static_cast<uint8_t>(f * 31 + p);
        if (!guard.valid() || guard.data()[0] != expected ||
            guard.data()[storage::kPageSize - 1] != expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiescent now: no pin may be outstanding and every invariant the full
  // audit walks (frame<->map agreement, LRU membership, capacity) holds.
  EXPECT_TRUE(audit::Audit(pool, AuditLevel::kFull).ok());
  EXPECT_TRUE(audit::Audit(disk, AuditLevel::kFull).ok());
  EXPECT_LE(pool.resident_pages(), pool.capacity_pages());
}

// The frame table grows one frame per miss while other lanes hold pins on
// frames created before: every lane fetches its own pages and keeps every
// guard, so each guard's bytes must survive the table's growth behind it.
TEST(ConcurrencyStressTest, FrameTableGrowsWhileLanesFetch) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  constexpr int kThreads = 8;
  constexpr uint32_t kPagesPerThread = 96;
  std::vector<uint32_t> files;
  for (int t = 0; t < kThreads; ++t) {
    files.push_back(disk.CreateFile());
    for (uint32_t p = 0; p < kPagesPerThread; ++p) {
      disk.AppendPage(files.back(),
                      PatternPage(static_cast<uint8_t>(t * 17 + p)).data());
    }
  }
  storage::BufferPool pool(&disk, /*capacity_pages=*/65536);  // swan-lint: allow(node-disk)
  ASSERT_EQ(pool.frame_count(), 0u);
  std::vector<std::vector<storage::PageGuard>> held(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t p = 0; p < kPagesPerThread; ++p) {
        held[t].push_back(pool.Fetch({files[t], p}));
        // Every guard so far, re-read after each growth step.
        for (uint32_t q = 0; q <= p; ++q) {
          const uint8_t want = static_cast<uint8_t>(t * 17 + q);
          const uint8_t* data = held[t][q].data();
          if (data[0] != want || data[storage::kPageSize - 1] != want) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.frame_count(), kThreads * kPagesPerThread);
  EXPECT_EQ(pool.misses(), kThreads * kPagesPerThread);
  held.clear();  // releases every pin
  EXPECT_TRUE(audit::Audit(pool, AuditLevel::kFull).ok());
}

// Lanes fetch pages while a writer write-throughs some of them. Writes are
// copy-on-write, so every guard reads one whole image that never changes
// under it, and a lane never sees a page go back to an older version (a
// write waits out an in-flight read of its page before re-pointing the
// frame). Byte 0 of a page is its number; every other byte its version.
TEST(ConcurrencyStressTest, WriteThroughWhileLanesFetch) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  constexpr uint32_t kPages = 32;
  constexpr uint32_t kWritten = 8;  // pages 0..7 are rewritten
  constexpr int kVersions = 200;
  const uint32_t f = disk.CreateFile();
  const auto image = [](uint32_t page, int version) {
    std::vector<uint8_t> bytes = PatternPage(static_cast<uint8_t>(version));
    bytes[0] = static_cast<uint8_t>(page);
    return bytes;
  };
  for (uint32_t p = 0; p < kPages; ++p) disk.AppendPage(f, image(p, 0).data());
  // Fewer frames than pages: misses and evictions race with the writes.
  storage::BufferPool pool(&disk, /*capacity_pages=*/12);  // swan-lint: allow(node-disk)

  constexpr int kReaders = 6;
  constexpr int kFetchesPerReader = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int> last_seen(kPages, 0);
      for (int i = 0; i < kFetchesPerReader; ++i) {
        const uint32_t p = static_cast<uint32_t>(
            Mix(static_cast<uint64_t>(t) * 1000003 + i) % kPages);
        storage::PageGuard guard = pool.Fetch({f, p});
        const uint8_t* data = guard.data();
        const uint8_t version = data[1];
        bool ok = guard.valid() && data[0] == p && version >= last_seen[p];
        for (size_t b = 2; ok && b < storage::kPageSize; ++b) {
          ok = data[b] == version;
        }
        // Still the same bytes after the scan.
        ok = ok && data[0] == p && data[1] == version;
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
        last_seen[p] = version;
      }
    });
  }
  threads.emplace_back([&] {
    for (int v = 1; v <= kVersions; ++v) {
      for (uint32_t p = 0; p < kWritten; ++p) {
        pool.WriteThrough({f, p}, image(p, v).data());
      }
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (uint32_t p = 0; p < kPages; ++p) {
    storage::PageGuard guard = pool.Fetch({f, p});
    EXPECT_EQ(guard.data()[1], p < kWritten ? kVersions : 0) << p;
  }
  EXPECT_EQ(pool.frame_bytes(), 0u);
  EXPECT_EQ(disk.PageImageBytes(), kPages * storage::kPageSize);
  EXPECT_TRUE(audit::Audit(pool, AuditLevel::kFull).ok());
  EXPECT_TRUE(audit::Audit(disk, AuditLevel::kFull).ok());
}

TEST(ConcurrencyStressTest, RacingFetchersOfOnePageShareOneRead) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(0x5a).data());
  storage::BufferPool pool(&disk, 8);  // swan-lint: allow(node-disk)

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        storage::PageGuard guard = pool.Fetch({f, 0});
        if (guard.data()[17] != 0x5a) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // The page never left the pool, so exactly one disk read happened:
  // concurrent fetchers of an in-flight page wait instead of re-reading.
  EXPECT_EQ(disk.total_reads(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_TRUE(audit::Audit(pool, AuditLevel::kFull).ok());
}

TEST(ConcurrencyStressTest, ConcurrentColumnGetLoadsOnce) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 64);  // swan-lint: allow(node-disk)
  colstore::Column column(&pool, &disk);
  std::vector<uint64_t> values(50000);
  for (uint64_t i = 0; i < values.size(); ++i) values[i] = i * 7 + 3;
  column.Build(values);
  column.DropCache();
  pool.Clear();
  disk.ResetStats();

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const std::vector<uint64_t> got = column.Encoded().Materialize();
      if (got.size() != values.size() || got[123] != 123 * 7 + 3 ||
          got.back() != (values.size() - 1) * 7 + 3) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // The load mutex serializes first access: the column streamed from disk
  // exactly once, not once per thread.
  EXPECT_EQ(disk.total_bytes_read(), column.disk_bytes());
  EXPECT_TRUE(column.Encoded().Materialize() == values);
}

// Engine-level determinism: identical rows and identical cold-run I/O
// bytes at every thread count, across all storage schemes touched by the
// parallel fan-out (triple-store chunked scans, vertical and C-Store
// per-property sub-plans).
TEST(ConcurrencyStressTest, QueriesBitIdenticalAcrossThreadCounts) {
  bench_support::BartonConfig config;
  config.target_triples = 20000;
  const auto barton = bench_support::GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = bench_support::MakeBartonContext(data, 28);

  std::vector<std::unique_ptr<core::Backend>> owned;
  std::vector<core::Backend*> backends;
  for (const char* label :
       {"MonetDB triple PSO", "MonetDB vert. SO", "C-Store vert. SO"}) {
    owned.push_back(bench_support::OpenDesign(data, label));
    backends.push_back(owned.back().get());
  }

  exec::SetThreads(1);
  std::vector<std::vector<core::QueryResult>> ref(backends.size());
  std::vector<std::vector<uint64_t>> ref_bytes(backends.size());
  for (size_t b = 0; b < backends.size(); ++b) {
    for (core::QueryId id : core::AllQueries()) {
      if (!backends[b]->Supports(id)) {
        ref[b].emplace_back();
        ref_bytes[b].push_back(0);
        continue;
      }
      ref[b].push_back(backends[b]->Run(id, ctx));
      ref_bytes[b].push_back(
          bench_support::MeasureCold(backends[b], id, ctx, 1).bytes_read);
    }
  }

  for (int t : {2, 4, 8}) {
    exec::SetThreads(t);
    for (size_t b = 0; b < backends.size(); ++b) {
      size_t q = 0;
      for (core::QueryId id : core::AllQueries()) {
        if (!backends[b]->Supports(id)) {
          ++q;
          continue;
        }
        const core::QueryResult rows = backends[b]->Run(id, ctx);
        EXPECT_TRUE(ref[b][q].SameRows(rows))
            << backends[b]->name() << " " << ToString(id) << " at " << t
            << " threads";
        EXPECT_EQ(
            bench_support::MeasureCold(backends[b], id, ctx, 1).bytes_read,
            ref_bytes[b][q])
            << backends[b]->name() << " " << ToString(id) << " at " << t
            << " threads";
        ++q;
      }
    }
  }
  exec::SetThreads(1);
}

// Serving-layer concurrency: real client threads submit through their own
// sessions while the workers are already running (live dispatch, not the
// submit-all-then-start replay protocol). Every completion's rows must
// still match the serially precomputed answer for that query — the
// turnstile serializes backend access, so concurrency in submission,
// cache and metrics bookkeeping never changes results. TSan-clean.
TEST(ConcurrencyStressTest, ConcurrentClientsThroughTheQueryService) {
  bench_support::BartonConfig config;
  config.target_triples = 8000;
  const auto barton = bench_support::GenerateBarton(config);
  const core::QueryContext ctx =
      bench_support::MakeBartonContext(barton.dataset, 28);

  struct Client {
    const char* label;
    core::QueryId bench;
    const char* sparql;
  };
  const std::vector<Client> clients = {
      {"c1", core::QueryId::kQ1,
       "SELECT ?s WHERE { ?s <type> <Text> } LIMIT 50"},
      {"c2", core::QueryId::kQ2,
       "SELECT ?s ?o WHERE { ?s <origin> ?o } LIMIT 50"},
      {"c3", core::QueryId::kQ5,
       "SELECT ?s WHERE { ?s <language> <language/iso639-2b/fre> } "
       "LIMIT 50"},
      {"c4", core::QueryId::kQ6,
       "SELECT ?s ?o WHERE { ?s <records> ?o . ?o <type> <Text> } "
       "LIMIT 50"},
  };

  // Serial reference answers, one per (client, kind).
  std::vector<serve::ResultPayload> bench_expected;
  std::vector<serve::ResultPayload> sparql_expected;
  {
    auto store = core::RdfStore::Open(barton.dataset, core::StoreOptions{});
    serve::ServiceOptions options;
    options.workers = 1;
    options.cache_bytes = 0;
    serve::QueryService serial(store.get(), ctx, options);
    serve::Session* session = serial.OpenSession("ref").value();
    for (const Client& client : clients) {
      serve::Request bench;
      bench.kind = serve::Request::Kind::kBench;
      bench.bench_id = client.bench;
      ASSERT_TRUE(serial.Submit(session, bench).ok());
      serve::Request sparql;
      sparql.kind = serve::Request::Kind::kSparql;
      sparql.text = client.sparql;
      ASSERT_TRUE(serial.Submit(session, sparql).ok());
    }
    serial.Start();
    serial.Drain();
    const auto done = serial.TakeCompletions();
    ASSERT_EQ(done.size(), clients.size() * 2);
    for (size_t i = 0; i < clients.size(); ++i) {
      ASSERT_TRUE(done[2 * i].status.ok());
      ASSERT_TRUE(done[2 * i + 1].status.ok());
      bench_expected.push_back(done[2 * i].result);
      sparql_expected.push_back(done[2 * i + 1].result);
    }
    serial.Stop();
  }

  auto store = core::RdfStore::Open(barton.dataset, core::StoreOptions{});
  serve::QueryService service(store.get(), ctx, {});
  std::vector<serve::Session*> sessions;
  for (const Client& client : clients) {
    sessions.push_back(service.OpenSession(client.label).value());
  }
  service.Start();  // live dispatch: workers race the submitting clients

  constexpr int kRequestsPerClient = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        serve::Request request;
        if (i % 2 == 0) {
          request.kind = serve::Request::Kind::kBench;
          request.bench_id = clients[c].bench;
        } else {
          request.kind = serve::Request::Kind::kSparql;
          request.text = clients[c].sparql;
        }
        for (;;) {  // Overloaded is transient backpressure: retry
          const auto submitted = service.Submit(sessions[c], request);
          if (submitted.ok()) break;
          if (submitted.status().code() != StatusCode::kOverloaded) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  service.Drain();
  const auto completions = service.TakeCompletions();
  ASSERT_EQ(completions.size(), clients.size() * kRequestsPerClient);

  for (const serve::Completion& completion : completions) {
    ASSERT_TRUE(completion.status.ok()) << completion.status.ToString();
    size_t c = clients.size();
    for (size_t i = 0; i < clients.size(); ++i) {
      if (completion.session_id == sessions[i]->id()) c = i;
    }
    ASSERT_LT(c, clients.size()) << completion.session_id;
    const serve::ResultPayload& expected =
        completion.kind == serve::Request::Kind::kBench ? bench_expected[c]
                                                        : sparql_expected[c];
    EXPECT_TRUE(completion.result == expected)
        << clients[c].label << " rows diverged under live concurrency";
  }

  // Quiescent: cache accounting and store invariants must audit clean.
  EXPECT_TRUE(store->Audit(AuditLevel::kQuick).ok());
  service.Stop();
}

// Scale-out serving under live dispatch: sessions gain node affinity when
// the store is sharded (session seq mod node count picks the gather
// node), so concurrent clients spread their coordinators across the
// topology. Results must still match the single-node serial answers —
// affinity moves *where* the gather runs, never *what* it returns — and
// every query-log record must carry its node dimension. TSan-clean.
TEST(ConcurrencyStressTest, NodeAffinitySessionsUnderLiveDispatch) {
  bench_support::BartonConfig config;
  config.target_triples = 8000;
  const auto barton = bench_support::GenerateBarton(config);
  const core::QueryContext ctx =
      bench_support::MakeBartonContext(barton.dataset, 28);

  const std::vector<core::QueryId> queries = {
      core::QueryId::kQ1, core::QueryId::kQ2, core::QueryId::kQ5,
      core::QueryId::kQ6};

  // Single-node serial reference answers.
  std::vector<serve::ResultPayload> expected;
  {
    auto store = core::RdfStore::Open(barton.dataset, core::StoreOptions{});
    serve::ServiceOptions options;
    options.workers = 1;
    options.cache_bytes = 0;
    serve::QueryService serial(store.get(), ctx, options);
    serve::Session* session = serial.OpenSession("ref").value();
    for (core::QueryId id : queries) {
      serve::Request request;
      request.kind = serve::Request::Kind::kBench;
      request.bench_id = id;
      ASSERT_TRUE(serial.Submit(session, request).ok());
    }
    serial.Start();
    serial.Drain();
    for (const serve::Completion& done : serial.TakeCompletions()) {
      ASSERT_TRUE(done.status.ok());
      expected.push_back(done.result);
    }
    ASSERT_EQ(expected.size(), queries.size());
    serial.Stop();
  }

  constexpr int kNodes = 4;
  core::StoreOptions store_options;
  store_options.nodes = kNodes;
  auto store = core::RdfStore::Open(barton.dataset, store_options);
  serve::QueryService service(store.get(), ctx, {});
  // More sessions than nodes, so the affinity mapping wraps around.
  constexpr int kSessions = 6;
  std::vector<serve::Session*> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(
        service.OpenSession("affinity-" + std::to_string(s)).value());
  }
  service.Start();  // live dispatch: workers race the submitting clients

  constexpr int kRequestsPerClient = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        serve::Request request;
        request.kind = serve::Request::Kind::kBench;
        request.bench_id = queries[(s + i) % queries.size()];
        for (;;) {
          const auto submitted = service.Submit(sessions[s], request);
          if (submitted.ok()) break;
          if (submitted.status().code() != StatusCode::kOverloaded) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  service.Drain();

  const auto completions = service.TakeCompletions();
  ASSERT_EQ(completions.size(),
            static_cast<size_t>(kSessions) * kRequestsPerClient);
  for (const serve::Completion& completion : completions) {
    ASSERT_TRUE(completion.status.ok()) << completion.status.ToString();
    int s = -1;
    for (int i = 0; i < kSessions; ++i) {
      if (completion.session_id == sessions[i]->id()) s = i;
    }
    ASSERT_GE(s, 0) << completion.session_id;
    // Recovering which query this session submitted at this point is not
    // possible from the completion alone; match against whichever
    // reference payload it equals (each query's answer is distinct). Row
    // order is bag semantics across node counts — the gather concatenates
    // per-node partials — so compare sorted.
    serve::ResultPayload got = completion.result;
    std::sort(got.rows.begin(), got.rows.end());
    bool matched = false;
    for (serve::ResultPayload ref : expected) {
      std::sort(ref.rows.begin(), ref.rows.end());
      if (got == ref) matched = true;
    }
    EXPECT_TRUE(matched) << "session " << completion.session_id
                         << " returned rows that match no single-node "
                            "reference answer";
  }

  // Every record carries the scale-out dimension, and the affinity
  // mapping actually spread the coordinators over multiple nodes.
  std::vector<bool> seen_node(kNodes, false);
  for (const obs::QueryLogRecord& record :
       service.telemetry().LogSnapshot()) {
    EXPECT_EQ(record.nodes, kNodes);
    ASSERT_GE(record.node, 0);
    ASSERT_LT(record.node, kNodes);
    seen_node[static_cast<size_t>(record.node)] = true;
  }
  int distinct_nodes = 0;
  for (const bool seen : seen_node) distinct_nodes += seen ? 1 : 0;
  EXPECT_GE(distinct_nodes, 2)
      << "six sessions over four nodes must gather on at least two nodes";

  EXPECT_TRUE(store->Audit(AuditLevel::kQuick).ok());
  service.Stop();
}

// The turnstile replay contract extended across the topology: with the
// submit-all-then-start protocol, the completion stream — dispatch
// indices, per-session order, rows, snapshot versions — is byte-identical
// at 1, 2, and 8 workers, on a 1-node and a 4-node store alike. Worker
// count is real host concurrency; node count moves coordinators and
// charges the modeled network. Neither may change what clients observe:
// the raw stream (including row order) is byte-identical across worker
// counts, and the canonical stream (rows sorted within each completion —
// the gather concatenates per-node partials, so cross-node row order is
// bag semantics, exactly like the bench equivalence gate) is
// byte-identical across the whole workers x nodes grid.
TEST(ConcurrencyStressTest, TurnstileStreamByteIdenticalAcrossWorkersAndNodes) {
  bench_support::BartonConfig config;
  config.target_triples = 8000;
  const auto barton = bench_support::GenerateBarton(config);
  const core::QueryContext ctx =
      bench_support::MakeBartonContext(barton.dataset, 28);

  const std::vector<core::QueryId> queries = {
      core::QueryId::kQ1, core::QueryId::kQ2, core::QueryId::kQ5,
      core::QueryId::kQ6};
  const rdf::Triple fresh{977001, 977002, 977003};

  struct Streams {
    std::string raw;        // rows in returned order
    std::string canonical;  // rows sorted within each completion
  };

  // Serialize the observable completion stream. The result cache is
  // disabled for the run: its keys are per-gather-node by design, so hit
  // patterns are node-count-dependent — everything else must not be.
  const auto stream_for = [&](int workers, int nodes) {
    core::StoreOptions store_options;
    store_options.nodes = nodes;
    auto store = core::RdfStore::Open(barton.dataset, store_options);
    serve::ServiceOptions options;
    options.workers = workers;
    options.cache_bytes = 0;
    serve::QueryService service(store.get(), ctx, options);
    std::vector<serve::Session*> sessions;
    for (int s = 0; s < 3; ++s) {
      sessions.push_back(
          service.OpenSession("turnstile-" + std::to_string(s)).value());
    }
    // A read/write mix: queries interleaved with an insert and a delete,
    // so snapshot versions advance mid-stream.
    for (int round = 0; round < 3; ++round) {
      for (size_t s = 0; s < sessions.size(); ++s) {
        serve::Request request;
        request.kind = serve::Request::Kind::kBench;
        request.bench_id = queries[(round + s) % queries.size()];
        EXPECT_TRUE(service.Submit(sessions[s], request).ok());
      }
      if (round == 0) {
        serve::Request insert;
        insert.kind = serve::Request::Kind::kInsert;
        insert.triple = fresh;
        EXPECT_TRUE(service.Submit(sessions[0], insert).ok());
      }
      if (round == 1) {
        serve::Request erase;
        erase.kind = serve::Request::Kind::kDelete;
        erase.triple = fresh;
        EXPECT_TRUE(service.Submit(sessions[1], erase).ok());
      }
    }
    service.Start();
    service.Drain();
    Streams streams;
    for (const serve::Completion& done : service.TakeCompletions()) {
      EXPECT_TRUE(done.status.ok()) << done.status.ToString();
      std::string head = std::to_string(done.dispatch_index) + "|" +
                         done.session_id + "|" + ToString(done.kind) + "|v" +
                         std::to_string(done.snapshot_version) + "|";
      for (const std::string& name : done.result.column_names) {
        head += name + ",";
      }
      const auto render = [](const std::vector<std::vector<uint64_t>>& rows) {
        std::string out;
        for (const auto& row : rows) {
          for (const uint64_t v : row) out += std::to_string(v) + ":";
          out += ";";
        }
        return out;
      };
      std::vector<std::vector<uint64_t>> sorted_rows = done.result.rows;
      std::sort(sorted_rows.begin(), sorted_rows.end());
      streams.raw += head + render(done.result.rows) + "\n";
      streams.canonical += head + render(sorted_rows) + "\n";
    }
    service.Stop();
    return streams;
  };

  const Streams reference = stream_for(/*workers=*/1, /*nodes=*/1);
  ASSERT_FALSE(reference.raw.empty());
  for (const int nodes : {1, 4}) {
    std::string raw_at_one_worker;
    for (const int workers : {1, 2, 8}) {
      const Streams streams = stream_for(workers, nodes);
      if (workers == 1) raw_at_one_worker = streams.raw;
      EXPECT_EQ(streams.raw, raw_at_one_worker)
          << "raw completion stream diverged at " << workers
          << " worker(s) x " << nodes << " node(s)";
      EXPECT_EQ(streams.canonical, reference.canonical)
          << "canonical completion stream diverged at " << workers
          << " worker(s) x " << nodes << " node(s)";
    }
  }
}

}  // namespace
}  // namespace swan
