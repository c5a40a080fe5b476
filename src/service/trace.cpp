#include "service/trace.h"

#include <algorithm>
#include <utility>

#include "obs/json_report.h"

namespace sdf::svc {
namespace {

std::string header_json() {
  obs::Json doc = obs::Json::object();
  doc["schema"] = std::string(kTraceSchema);
  doc["tool"] = "sdfmemd";
  return doc.dump(0);
}

Diagnostic parse_fail(std::string message) {
  Diagnostic diag;
  diag.code = ErrorCode::kParse;
  diag.message = std::move(message);
  return diag;
}

/// Fetches a required integer field; nullopt (after filling *error) on a
/// missing field or wrong type.
std::optional<std::int64_t> want_int(const obs::Json& doc,
                                     const std::string& key,
                                     std::string* error) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr || v->type() != obs::Json::Type::kInt) {
    *error = "trace record: missing or non-integer field \"" + key + "\"";
    return std::nullopt;
  }
  return v->as_int();
}

std::optional<std::string> want_string(const obs::Json& doc,
                                       const std::string& key,
                                       std::string* error) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr || v->type() != obs::Json::Type::kString) {
    *error = "trace record: missing or non-string field \"" + key + "\"";
    return std::nullopt;
  }
  return v->as_string();
}

}  // namespace

std::string encode_trace_record(const TraceRecord& record) {
  obs::Json doc = obs::Json::object();
  doc["tick_us"] = record.tick_us;
  doc["lane"] = record.lane;
  doc["tenant"] = record.tenant;
  doc["key"] = record.key_hex;
  doc["outcome"] = record.outcome;
  doc["shed"] = record.shed;
  doc["full_fidelity"] = record.full_fidelity;
  doc["deadline_ms"] = record.deadline_ms;
  doc["cost_ms"] = record.cost_ms;
  doc["actors"] = record.actors;
  doc["wall_ns"] = record.wall_ns;
  doc["wall_ns_capped"] = record.wall_ns_capped;
  doc["wall_ns_degraded"] = record.wall_ns_degraded;
  doc["response_hash"] = record.response_hash;
  doc["request"] = record.request;
  return doc.dump(0);
}

Result<TraceRecord> parse_trace_record(std::string_view text) {
  obs::Json doc;
  try {
    doc = obs::Json::parse(text);
  } catch (const std::exception& e) {
    return parse_fail(std::string("trace record: ") + e.what());
  }
  if (doc.type() != obs::Json::Type::kObject) {
    return parse_fail("trace record: not a JSON object");
  }
  TraceRecord record;
  std::string error;
  const auto tick = want_int(doc, "tick_us", &error);
  if (!tick) return parse_fail(error);
  record.tick_us = *tick;
  const auto lane = want_int(doc, "lane", &error);
  if (!lane) return parse_fail(error);
  record.lane = *lane;
  const auto tenant = want_string(doc, "tenant", &error);
  if (!tenant) return parse_fail(error);
  record.tenant = *tenant;
  const auto key = want_string(doc, "key", &error);
  if (!key) return parse_fail(error);
  record.key_hex = *key;
  const auto outcome = want_string(doc, "outcome", &error);
  if (!outcome) return parse_fail(error);
  record.outcome = *outcome;
  const auto request = want_string(doc, "request", &error);
  if (!request) return parse_fail(error);
  record.request = *request;
  // The remaining fields default when absent, so the format can grow
  // without invalidating old traces.
  if (const obs::Json* v = doc.find("shed")) record.shed = v->as_bool();
  if (const obs::Json* v = doc.find("full_fidelity")) {
    record.full_fidelity = v->as_bool();
  }
  if (const obs::Json* v = doc.find("deadline_ms")) {
    record.deadline_ms = v->as_int();
  }
  if (const obs::Json* v = doc.find("cost_ms")) record.cost_ms = v->as_int();
  if (const obs::Json* v = doc.find("actors")) record.actors = v->as_int();
  if (const obs::Json* v = doc.find("wall_ns")) record.wall_ns = v->as_int();
  if (const obs::Json* v = doc.find("wall_ns_capped")) {
    record.wall_ns_capped = v->as_int();
  }
  if (const obs::Json* v = doc.find("wall_ns_degraded")) {
    record.wall_ns_degraded = v->as_int();
  }
  if (const obs::Json* v = doc.find("response_hash")) {
    record.response_hash = v->as_string();
  }
  if (record.tick_us < 0 || record.lane < 0) {
    return parse_fail("trace record: negative tick_us or lane");
  }
  return record;
}

std::unique_ptr<TraceWriter> TraceWriter::create(const std::string& path) {
  return std::unique_ptr<TraceWriter>(
      new TraceWriter(util::JournalWriter::create(path, header_json())));
}

void TraceWriter::append(const TraceRecord& record) {
  const std::string encoded = encode_trace_record(record);
  const std::lock_guard<std::mutex> lock(mu_);
  journal_.append(encoded);
  ++count_;
}

std::int64_t TraceWriter::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

Trace read_trace(const std::string& path) {
  const util::RecoveredJournal recovered = util::recover_journal(path);
  if (recovered.torn_tail) {
    throw CorruptJournalError(
        "trace '" + path +
        "': torn tail (recording was interrupted mid-append); a truncated "
        "trace cannot be replayed faithfully — re-record it");
  }
  if (recovered.records.empty()) {
    throw CorruptJournalError("trace '" + path + "': no header record");
  }
  obs::Json header;
  try {
    header = obs::Json::parse(recovered.records.front());
  } catch (const std::exception& e) {
    throw CorruptJournalError("trace '" + path + "': unreadable header (" +
                              e.what() + ")");
  }
  const obs::Json* schema = header.find("schema");
  if (schema == nullptr || schema->as_string() != kTraceSchema) {
    throw CorruptJournalError("trace '" + path +
                              "': not a sdfmem.trace.v1 journal");
  }
  Trace trace;
  trace.records.reserve(recovered.records.size() - 1);
  for (std::size_t i = 1; i < recovered.records.size(); ++i) {
    Result<TraceRecord> record = parse_trace_record(recovered.records[i]);
    if (!record.ok()) {
      throw ParseError("trace '" + path + "' record " + std::to_string(i) +
                       ": " + record.error().message);
    }
    trace.records.push_back(std::move(record.value()));
  }
  // stable_sort keeps append order for same-(tick, lane) records — the
  // byte-deterministic replay order the acceptance tests pin.
  std::stable_sort(trace.records.begin(), trace.records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.tick_us != b.tick_us) return a.tick_us < b.tick_us;
                     return a.lane < b.lane;
                   });
  return trace;
}

}  // namespace sdf::svc
