#include "spans.h"

#include <cstdio>

namespace perfbench {
namespace {

/// The open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> t_open;

}  // namespace

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

std::int64_t SpanLog::open(const char* name, std::int64_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.request = request;
  rec.parent = t_open.empty() ? -1 : t_open.back();
  std::int64_t id = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kCapacity) {
      ++dropped_;
      return -1;
    }
    if (spans_.capacity() == 0) spans_.reserve(1u << 16);
    id = static_cast<std::int64_t>(spans_.size());
    rec.start_ns = now_ns();
    spans_.push_back(rec);
  }
  t_open.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id) {
  const std::int64_t end = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanLog::write_json(const std::string& path) const {
  const std::vector<SpanRecord> spans = snapshot();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%lld,"
                 "\"self_ns\":%lld}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(self[i]),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

std::map<std::string, std::map<std::int64_t, double>> per_request_us(
    const std::vector<SpanRecord>& spans, bool total) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, std::map<std::int64_t, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::int64_t ns = total ? s.end_ns - s.start_ns : self[i];
    out[s.name][s.request] += static_cast<double>(ns) / 1000.0;
  }
  return out;
}

}  // namespace perfbench
