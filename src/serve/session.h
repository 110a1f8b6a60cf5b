#ifndef SWANDB_SERVE_SESSION_H_
#define SWANDB_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/exec_context.h"

namespace swan::serve {

// One client connection to the serving layer. A session owns
//
//   * its execution context — so each client gets its own thread budget,
//     operator counters and trace attachment point (I/O-lane isolation:
//     a narrow session cannot be widened by a neighbor, and per-query
//     counters never mix across clients);
//   * its result-cache counts — hits, misses and evictions charged to
//     this client, which every query-log record carries cumulatively (the
//     registry-global serve.cache.* counters only show totals). They are
//     written and read under the service's turnstile only;
//   * a deterministic identity: sessions are numbered 1, 2, ... in open
//     order, so the id ("s<seq>:<label>") and every tie-break keyed on
//     the sequence number replay identically run to run.
//
// Sessions are created by the service and live until the service is
// destroyed; the scheduler state they carry (dispatch fairness counts)
// lives in the AdmissionController.
class Session {
 public:
  struct CacheCounts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Session(uint64_t seq, std::string label, int priority, int threads)
      : seq_(seq),
        label_(std::move(label)),
        id_("s" + std::to_string(seq) + ":" + label_),
        priority_(priority),
        ectx_(threads) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t seq() const { return seq_; }
  const std::string& label() const { return label_; }
  const std::string& id() const { return id_; }
  int priority() const { return priority_; }

  const exec::ExecContext& ectx() const { return ectx_; }
  CacheCounts& cache_counts() { return cache_counts_; }

 private:
  uint64_t seq_;
  std::string label_;
  std::string id_;
  int priority_;
  exec::ExecContext ectx_;
  CacheCounts cache_counts_;
};

// Owns the sessions of one service, in open order. Labels are unique
// (Open returns nullptr on a duplicate — the caller turns that into an
// error). Externally synchronized: the service guards it with its own
// mutex, tests drive it single-threaded.
class SessionManager {
 public:
  Session* Open(std::string label, int priority, int threads) {
    if (Find(label) != nullptr) return nullptr;
    const uint64_t seq = static_cast<uint64_t>(sessions_.size()) + 1;
    sessions_.push_back(std::make_unique<Session>(seq, std::move(label),
                                                  priority, threads));
    return sessions_.back().get();
  }

  Session* Find(std::string_view label) {
    for (const auto& session : sessions_) {
      if (session->label() == label) return session.get();
    }
    return nullptr;
  }

  const std::vector<std::unique_ptr<Session>>& sessions() const {
    return sessions_;
  }

 private:
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace swan::serve

#endif  // SWANDB_SERVE_SESSION_H_
