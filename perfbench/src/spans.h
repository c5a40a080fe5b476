// Span recording for the traced run. Spans are taken in the benchmark's
// own code, around each call it makes into a library layer: name, start,
// end, parent span and request id. They stay in memory until the run
// ends, then go to a JSON file; self times are computed from them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, or -1
  std::int64_t request = 0;
};

/// Process-wide span store. Recording is off until enabled, and then
/// costs one clock read and one locked append per span boundary.
class SpanLog {
 public:
  static SpanLog& instance();

  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Opens a span under the innermost open span of this thread.
  std::int64_t open(const char* name, std::int64_t request);
  void close(std::int64_t id);

  /// Copy of every closed and open span, in open order.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  [[nodiscard]] std::size_t dropped() const;

  /// Writes every span, with its self time, as a JSON array. False on an
  /// I/O failure.
  bool write_json(const std::string& path) const;

 private:
  /// Bounds span storage (~40 MB); later spans are dropped and counted.
  static constexpr std::size_t kCapacity = 1u << 20;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::size_t dropped_ = 0;
};

/// RAII span; a no-op while recording is off.
class Span {
 public:
  Span(const char* name, std::int64_t request)
      : id_(SpanLog::instance().enabled()
                ? SpanLog::instance().open(name, request)
                : -1) {}
  ~Span() {
    if (id_ >= 0) SpanLog::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t id_;
};

/// Self time of each span: its duration minus the time its direct
/// children cover (children never overlap: one thread runs them in turn).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<SpanRecord>& spans);

/// Per span name, per request: the summed self time (or, with
/// `total`, the summed duration) in microseconds.
[[nodiscard]] std::map<std::string, std::map<std::int64_t, double>>
per_request_us(const std::vector<SpanRecord>& spans, bool total);

}  // namespace perfbench
