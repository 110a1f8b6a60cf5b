#include "obs/querylog.h"

#include <cinttypes>
#include <cstdio>

#include "obs/json_writer.h"

namespace swan::obs {

namespace {

void CollectOps(const SpanNode& node, std::vector<QueryLogOp>* out) {
  QueryLogOp op;
  if (SplitEstimatedName(node.name, &op.op, &op.est)) {
    op.actual = node.rows_out;
    out->push_back(std::move(op));
  }
  for (const auto& child : node.children) CollectOps(*child, out);
}

}  // namespace

uint64_t Fnv1a64(std::string_view text) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

bool SplitEstimatedName(std::string_view name, std::string* op,
                        uint64_t* est) {
  const size_t pos = name.rfind(" est=");
  if (pos == std::string_view::npos) return false;
  const std::string_view digits = name.substr(pos + 5);
  if (digits.empty()) return false;
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *op = std::string(name.substr(0, pos));
  *est = value;
  return true;
}

std::vector<QueryLogOp> CollectEstimatedOps(const SpanNode& root) {
  std::vector<QueryLogOp> ops;
  CollectOps(root, &ops);
  return ops;
}

std::string QueryLogRecordJson(const QueryLogRecord& record,
                               bool include_host_time) {
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, record.text_hash);
  JsonWriter w;
  w.BeginObject().Field("seq", record.seq).Field("session", record.session)
      .Field("kind", record.kind).Field("text_hash", hash)
      .Field("text", record.text).Field("backend", record.backend)
      .Field("plan_mode", record.plan_mode).Field("ok", record.ok);
  if (!record.ok) w.Field("error", record.error);
  w.Field("cache_hit", record.cache_hit)
      .Field("snapshot", record.snapshot_version).Field("rows", record.rows)
      .Field("vt_start", record.vt_start, 9)
      .Field("vt_finish", record.vt_finish, 9)
      .Field("queue_wait", record.queue_wait_seconds, 9)
      .Field("queue_depth", record.queue_depth)
      .Field("io_seconds", record.io_seconds, 9)
      .Field("latency", record.latency_seconds, 9)
      .Field("bytes_read", record.bytes_read).Field("seeks", record.seeks)
      .Field("match_calls", record.match_calls).Field("morsels", record.morsels)
      .Field("bgp_batches", record.bgp_batches)
      .Field("star_gathers", record.star_gathers)
      .Field("node", record.node).Field("nodes", record.nodes)
      .Field("net_bytes", record.net_bytes)
      .Field("net_messages", record.net_messages)
      .Field("net_seconds", record.net_seconds, 9)
      .Key("session_cache").BeginObject()
      .Field("hits", record.session_cache_hits)
      .Field("misses", record.session_cache_misses)
      .Field("evictions", record.session_cache_evictions).EndObject()
      .Key("ops").BeginArray();
  for (const QueryLogOp& op : record.ops) {
    w.BeginObject().Field("op", op.op).Field("est", op.est)
        .Field("actual", op.actual).EndObject();
  }
  w.EndArray();
  if (include_host_time) {
    w.Field("cpu_seconds", record.cpu_seconds, 9)
        .Field("service_seconds", record.service_seconds, 9);
  }
  return w.EndObject().str();
}

}  // namespace swan::obs
