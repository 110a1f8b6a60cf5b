#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/mutex.h"
#include "core/profiling.h"
#include "sparql/sparql.h"

namespace swan::serve {

namespace {

// Cache key text: kind tag + canonical query spelling, so two lexical
// variants of one SPARQL query share an entry.
std::string CacheText(const Request& request) {
  if (request.kind == Request::Kind::kBench) {
    return "bench:" + core::ToString(request.bench_id);
  }
  return "sparql:" + sparql::CanonicalQueryText(request.text);
}

}  // namespace

QueryService::QueryService(core::RdfStore* store,
                           std::optional<core::QueryContext> bench_ctx,
                           ServiceOptions options)
    : store_(store),
      bench_ctx_(std::move(bench_ctx)),
      options_(options),
      admission_(AdmissionOptions{options.max_queue}) {
  SWAN_CHECK(store_ != nullptr);
  SWAN_CHECK(options_.workers >= 1);
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(CacheOptions{options_.cache_bytes},
                                           &metrics_);
    audit_hook_token_ = store_->AddAuditHook(
        [this](audit::AuditLevel level, audit::AuditReport* report) {
          cache_->AuditInto(level, report, store_->snapshot_version());
        });
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() {
  Stop();
  if (audit_hook_token_ != 0) store_->RemoveAuditHook(audit_hook_token_);
}

Result<Session*> QueryService::OpenSession(const std::string& label,
                                           int priority, int threads) {
  MutexLock lock(&mutex_);
  if (threads <= 0) threads = options_.default_session_threads;
  Session* session = sessions_.Open(label, priority, threads);
  if (session == nullptr) {
    return Status::AlreadyExists("session '" + label + "' already open");
  }
  return session;
}

Session* QueryService::FindSession(const std::string& label) {
  MutexLock lock(&mutex_);
  return sessions_.Find(label);
}

Result<uint64_t> QueryService::Submit(Session* session, Request request) {
  SWAN_CHECK(session != nullptr);
  MutexLock lock(&mutex_);
  const uint64_t ticket = next_ticket_;
  const Status st = admission_.Admit(session, std::move(request), ticket);
  if (!st.ok()) {
    metrics_.GetCounter("serve.rejected")->Add(1);
    return st;
  }
  ++next_ticket_;
  metrics_.GetCounter("serve.submitted")->Add(1);
  lock.Unlock();
  work_cv_.NotifyOne();
  return ticket;
}

void QueryService::Start() {
  {
    MutexLock lock(&mutex_);
    if (started_) return;
    started_ = true;
    // Each submit-all-then-Start() batch replays independently: its
    // dispatch order must not depend on how many requests each session
    // ran in earlier batches.
    admission_.ResetFairness();
    // The trace epoch is read by executors under the turnstile, so write
    // it under turn_mutex_ too. Nesting it inside mutex_ here is the
    // service > turnstile lock order made executable (no request is in
    // flight: started_ was false, so no worker holds the turnstile).
    MutexLock turn(&turn_mutex_);
    trace_clock0_ = store_->backend().VirtualSeconds();
  }
  work_cv_.NotifyAll();
}

void QueryService::Pause() {
  MutexLock lock(&mutex_);
  started_ = false;
}

void QueryService::Drain() {
  MutexLock lock(&mutex_);
  SWAN_CHECK_MSG(started_, "Drain() before Start()");
  while (admission_.HasWork() || in_flight_ != 0) {
    drained_cv_.Wait(lock);
  }
}

void QueryService::Stop() {
  {
    MutexLock lock(&mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

std::vector<Completion> QueryService::TakeCompletions() {
  MutexLock lock(&mutex_);
  std::sort(completions_.begin(), completions_.end(),
            [](const Completion& a, const Completion& b) {
              return a.dispatch_index < b.dispatch_index;
            });
  return std::exchange(completions_, {});
}

std::vector<obs::SessionTrack> QueryService::SessionTracks() const {
  MutexLock lock(&turn_mutex_);
  std::vector<obs::SessionTrack> tracks;
  tracks.reserve(traces_.size());
  for (const TraceRecord& record : traces_) {
    tracks.push_back(obs::SessionTrack{record.label, record.session.get(),
                                       record.offset_seconds});
  }
  return tracks;
}

void QueryService::WorkerLoop() {
  for (;;) {
    Ticket ticket;
    {
      MutexLock lock(&mutex_);
      while (!stopping_ && !(started_ && admission_.HasWork())) {
        work_cv_.Wait(lock);
      }
      if (stopping_) return;
      ticket = admission_.PickNext();
      ticket.dispatch_index = dispatch_counter_++;
      // Queue depth is captured here, under the scheduler mutex: with the
      // submit-all-then-Start() protocol it is a pure function of the
      // dispatch index, so the query log stays byte-identical at any
      // worker count.
      ticket.queue_depth = admission_.queued();
      ++in_flight_;
    }

    Completion completion = Execute(std::move(ticket));

    {
      MutexLock lock(&mutex_);
      --in_flight_;
      metrics_.GetCounter("serve.completed")->Add(1);
      completions_.push_back(std::move(completion));
      if (!admission_.HasWork() && in_flight_ == 0) {
        drained_cv_.NotifyAll();
      }
    }
  }
}

Completion QueryService::Execute(Ticket ticket) {
  Completion completion;
  completion.ticket = ticket.ticket;
  completion.dispatch_index = ticket.dispatch_index;
  completion.session_id = ticket.session->id();
  completion.kind = ticket.request.kind;

  // Turnstile: run only when every lower dispatch index has finished.
  // The lock is held across the whole execution — it doubles as the
  // backend mutex (column backends merge deltas on read, the buffer pool
  // is single-writer) and makes the store's state evolution a function
  // of dispatch order alone.
  MutexLock turn(&turn_mutex_);
  while (exec_turn_ != ticket.dispatch_index) turn_cv_.Wait(turn);

  // One query-log record per executed request, built under the turnstile
  // so its deterministic surface (virtual times, counters, cache state)
  // reads one consistent point of the dispatch-order state evolution.
  obs::QueryLogRecord record;
  record.seq = ticket.dispatch_index;
  record.session = ticket.session->id();
  record.kind = ToString(ticket.request.kind);
  record.backend = store_->name();
  record.queue_depth = ticket.queue_depth;
  record.vt_start = store_->backend().VirtualSeconds() - trace_clock0_;
  // The virtual clock does not advance while a request queues, so its
  // wait is the virtual time from the batch epoch (Start()) to execution.
  record.queue_wait_seconds = record.vt_start;
  std::shared_ptr<obs::TraceSession> profile_session;

  switch (ticket.request.kind) {
    case Request::Kind::kInsert:
    case Request::Kind::kDelete: {
      record.text = std::string(ToString(ticket.request.kind)) + " " +
                    std::to_string(ticket.request.triple.subject) + " " +
                    std::to_string(ticket.request.triple.property) + " " +
                    std::to_string(ticket.request.triple.object);
      if (const core::DistRouting* dist = store_->backend().dist()) {
        record.nodes = dist->nodes();
      }
      const core::CostMeter meter(store_->backend(),
                                  ticket.session->ectx());
      completion.status = ticket.request.kind == Request::Kind::kInsert
                              ? store_->Insert(ticket.request.triple)
                              : store_->Delete(ticket.request.triple);
      completion.snapshot_version = store_->snapshot_version();
      if (completion.status.ok() && cache_ != nullptr) {
        cache_->InvalidateOlderThan(completion.snapshot_version);
      }
      completion.service_seconds =
          meter.Read().cpu_seconds + options_.request_overhead_seconds;
      // A write touches no simulated disk; its deterministic latency is
      // the fixed handling overhead.
      record.latency_seconds = options_.request_overhead_seconds;
      break;
    }
    case Request::Kind::kBench:
    case Request::Kind::kSparql:
      RunQueryTicket(ticket, &completion, &record, &profile_session);
      break;
  }

  record.text_hash = obs::Fnv1a64(record.text);
  record.ok = completion.status.ok();
  if (!record.ok) record.error = completion.status.message();
  record.cache_hit = completion.cache_hit;
  record.snapshot_version = completion.snapshot_version;
  record.rows = completion.result.rows.size();
  record.vt_finish = store_->backend().VirtualSeconds() - trace_clock0_;
  record.service_seconds = completion.service_seconds;
  const Session::CacheCounts& cache_counts = ticket.session->cache_counts();
  record.session_cache_hits = cache_counts.hits;
  record.session_cache_misses = cache_counts.misses;
  record.session_cache_evictions = cache_counts.evictions;

  // kTelemetry ranks below the turnstile.
  telemetry_.Record(std::move(record), profile_session.get());

  ++exec_turn_;
  turn.Unlock();
  turn_cv_.NotifyAll();
  return completion;
}

void QueryService::RunQueryTicket(const Ticket& ticket,
                                  Completion* completion,
                                  obs::QueryLogRecord* record,
                                  std::shared_ptr<obs::TraceSession>*
                                      profile_out) {
  core::Backend& backend = store_->backend();
  const uint64_t version = store_->snapshot_version();
  completion->snapshot_version = version;
  const std::string cache_text = CacheText(ticket.request);
  record->text = cache_text;

  // Scale-out node affinity: each session gathers at a fixed coordinator,
  // derived from its deterministic open index. Execution is serialized by
  // the turnstile, so moving the coordinator between queries is a
  // quiescent-point write. Single-node stores keep node 0.
  core::DistRouting* dist = backend.dist();
  const int topology_nodes = dist != nullptr ? dist->nodes() : 1;
  const int node =
      static_cast<int>((ticket.session->seq() - 1) %
                       static_cast<uint64_t>(topology_nodes));
  if (dist != nullptr) dist->SetCoordinator(node);
  record->node = node;
  record->nodes = topology_nodes;
  // The cached payload is coordinator-independent (row bags are), but the
  // cost attribution is not: key the cache per gather node so a hit
  // recorded against node n never masks another node's modeled traffic.
  const std::string cache_key =
      topology_nodes > 1 ? cache_text + " @node=" + std::to_string(node)
                         : cache_text;

  if (cache_ != nullptr) {
    std::optional<ResultPayload> hit = cache_->Get(cache_key, version);
    if (hit.has_value()) {
      completion->result = std::move(*hit);
      completion->cache_hit = true;
      completion->service_seconds = options_.request_overhead_seconds;
      // A hit never touches the backend: deterministic latency is the
      // handling overhead alone.
      record->latency_seconds = options_.request_overhead_seconds;
      ++ticket.session->cache_counts().hits;
      return;
    }
    ++ticket.session->cache_counts().misses;
  }

  // Profiling is always on: the fleet aggregator needs every executed
  // query's span tree, and span bookkeeping never advances the virtual
  // clock, so the modeled figures are unchanged. The Chrome-trace record
  // (one track per session) is kept only under options.trace.
  const double trace_offset = backend.VirtualSeconds() - trace_clock0_;
  core::ScopedProfile profile(ToString(ticket.request.kind) +
                                  std::string(" #") +
                                  std::to_string(ticket.ticket),
                              backend, ticket.session->ectx());
  const core::CostMeter meter(backend, ticket.session->ectx());

  if (ticket.request.kind == Request::Kind::kBench) {
    if (!bench_ctx_.has_value()) {
      completion->status = Status::InvalidArgument(
          "service opened without a benchmark query context");
    } else if (!backend.Supports(ticket.request.bench_id)) {
      completion->status = Status::Unimplemented(
          "backend does not support " +
          core::ToString(ticket.request.bench_id));
    } else {
      core::QueryResult result = backend.Run(
          ticket.request.bench_id, *bench_ctx_, ticket.session->ectx());
      completion->result.column_names = std::move(result.column_names);
      completion->result.rows = std::move(result.rows);
    }
  } else {
    Result<sparql::QueryOutput> output = sparql::Execute(
        backend, store_->dataset(), ticket.request.text,
        ticket.session->ectx(), &store_->stats());
    if (!output.ok()) {
      completion->status = output.status();
    } else {
      record->plan_mode = output.value().plan_note;
      completion->result.column_names = std::move(output.value().vars);
      completion->result.rows = std::move(output.value().rows);
    }
  }

  const core::ExecCost cost = meter.Fill(record);
  completion->service_seconds =
      cost.real_seconds() + options_.request_overhead_seconds;
  record->latency_seconds =
      cost.io_seconds + options_.request_overhead_seconds;

  std::shared_ptr<obs::TraceSession> session =
      profile.Finish(cost.cpu_seconds);
  record->ops = obs::CollectEstimatedOps(session->root());
  if (options_.trace) {
    // Already under turn_mutex_ (held across the whole execution).
    traces_.push_back(
        TraceRecord{ticket.session->id(), session, trace_offset});
  }
  *profile_out = std::move(session);

  if (completion->status.ok() && cache_ != nullptr) {
    const size_t evicted =
        cache_->Put(cache_key, version, completion->result);
    ticket.session->cache_counts().evictions += evicted;
  }
}

Result<ScriptRunResult> RunScript(QueryService* service,
                                  const std::vector<ScriptCommand>& script) {
  SWAN_CHECK(service != nullptr);
  const dict::Dictionary& dict = service->store()->dataset().dict();
  ScriptRunResult result;

  // Enqueue-all-then-start is the replay guarantee; on a service that is
  // already running (a warm pass), pause dispatch first so this batch is
  // also fully queued before the fairness policy sees it.
  service->Pause();

  for (const ScriptCommand& cmd : script) {
    if (cmd.kind == ScriptCommand::Kind::kSession) {
      if (service->FindSession(cmd.session) != nullptr) continue;  // warm pass
      Result<Session*> opened =
          service->OpenSession(cmd.session, cmd.priority, cmd.threads);
      if (!opened.ok()) return opened.status();
      continue;
    }
    Session* session = service->FindSession(cmd.session);
    if (session == nullptr) {
      return Status::InvalidArgument("serve script: unknown session '" +
                                     cmd.session + "'");
    }
    Request request;
    switch (cmd.kind) {
      case ScriptCommand::Kind::kBench:
        request.kind = Request::Kind::kBench;
        request.bench_id = cmd.bench_id;
        break;
      case ScriptCommand::Kind::kSparql:
        request.kind = Request::Kind::kSparql;
        request.text = cmd.text;
        break;
      case ScriptCommand::Kind::kInsert:
      case ScriptCommand::Kind::kDelete: {
        request.kind = cmd.kind == ScriptCommand::Kind::kInsert
                           ? Request::Kind::kInsert
                           : Request::Kind::kDelete;
        uint64_t ids[3] = {0, 0, 0};
        for (int i = 0; i < 3; ++i) {
          const std::optional<uint64_t> id = dict.Find(cmd.terms[i]);
          if (!id.has_value()) {
            return Status::InvalidArgument(
                "serve script: term '" + cmd.terms[i] +
                "' is not in the store's dictionary");
          }
          ids[i] = *id;
        }
        request.triple = rdf::Triple{ids[0], ids[1], ids[2]};
        break;
      }
      case ScriptCommand::Kind::kSession:
        break;  // handled above
    }
    for (int r = 0; r < cmd.repeat; ++r) {
      const Result<uint64_t> ticket = service->Submit(session, request);
      if (ticket.ok()) {
        ++result.submitted;
      } else if (ticket.status().code() == StatusCode::kOverloaded) {
        ++result.rejected;
      } else {
        return ticket.status();
      }
    }
  }

  service->Start();
  service->Drain();
  result.completions = service->TakeCompletions();
  return result;
}

}  // namespace swan::serve
