#include "obs/querylog.h"

#include <cinttypes>

#include "obs/export.h"

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
  std::string out;
  AppendF(&out, "{\"seq\":%" PRIu64 ",\"session\":\"%s\",\"kind\":\"%s\"",
          record.seq, JsonEscape(record.session).c_str(),
          JsonEscape(record.kind).c_str());
  AppendF(&out, ",\"text_hash\":\"%016" PRIx64 "\",\"text\":\"",
          record.text_hash);
  out += JsonEscape(record.text);
  out += '"';
  AppendF(&out, ",\"backend\":\"%s\",\"plan_mode\":\"%s\"",
          JsonEscape(record.backend).c_str(),
          JsonEscape(record.plan_mode).c_str());
  AppendF(&out, ",\"ok\":%s", record.ok ? "true" : "false");
  if (!record.ok) {
    out += ",\"error\":\"";
    out += JsonEscape(record.error);
    out += '"';
  }
  AppendF(&out, ",\"cache_hit\":%s,\"snapshot\":%" PRIu64 ",\"rows\":%" PRIu64,
          record.cache_hit ? "true" : "false", record.snapshot_version,
          record.rows);
  AppendF(&out,
          ",\"vt_start\":%.9f,\"vt_finish\":%.9f,\"queue_wait\":%.9f,"
          "\"queue_depth\":%" PRIu64 ",\"io_seconds\":%.9f,"
          "\"latency\":%.9f",
          record.vt_start, record.vt_finish, record.queue_wait_seconds,
          record.queue_depth, record.io_seconds, record.latency_seconds);
  AppendF(&out,
          ",\"bytes_read\":%" PRIu64 ",\"seeks\":%" PRIu64
          ",\"match_calls\":%" PRIu64 ",\"morsels\":%" PRIu64
          ",\"bgp_batches\":%" PRIu64 ",\"star_gathers\":%" PRIu64,
          record.bytes_read, record.seeks, record.match_calls, record.morsels,
          record.bgp_batches, record.star_gathers);
  AppendF(&out,
          ",\"node\":%d,\"nodes\":%d,\"net_bytes\":%" PRIu64
          ",\"net_messages\":%" PRIu64 ",\"net_seconds\":%.9f",
          record.node, record.nodes, record.net_bytes, record.net_messages,
          record.net_seconds);
  AppendF(&out,
          ",\"session_cache\":{\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
          ",\"evictions\":%" PRIu64 "}",
          record.session_cache_hits, record.session_cache_misses,
          record.session_cache_evictions);
  out.append(",\"ops\":[");
  for (size_t i = 0; i < record.ops.size(); ++i) {
    AppendF(&out, "%s{\"op\":\"%s\",\"est\":%" PRIu64 ",\"actual\":%" PRIu64
            "}",
            i ? "," : "", JsonEscape(record.ops[i].op).c_str(),
            record.ops[i].est, record.ops[i].actual);
  }
  out.append("]");
  if (include_host_time) {
    AppendF(&out, ",\"cpu_seconds\":%.9f,\"service_seconds\":%.9f",
            record.cpu_seconds, record.service_seconds);
  }
  out.append("}");
  return out;
}

std::string QueryLogJsonl(const std::vector<QueryLogRecord>& records,
                          bool include_host_time) {
  std::string out;
  for (const QueryLogRecord& record : records) {
    out += QueryLogRecordJson(record, include_host_time);
    out += '\n';
  }
  return out;
}

}  // namespace swan::obs
