// sdfmemd: the long-running compile daemon (docs/SERVICE.md).
//
// Request lifecycle:
//
//   accept -> frame decode -> request parse -> tenant resolve
//     -> graph canonicalize
//     -> cache lookup ──hit──────────────────────────┐
//     -> weighted-fair admission (service/qos.h)     │
//          ──over share──> overloaded error          │
//     -> compile on util/thread_pool                 │
//     -> cache insert (full fidelity + under quota)  │
//     -> response frame <──────────────────────────────┘
//
// Concurrency model: listeners, the accept loop and one reader thread
// per connection belong to the svc::ConnectionHost the router shares
// (service/transport.h: reaped threads, a connection cap). Compiles fan
// out on the shared util::ThreadPool — bounded by the worker count, never
// the connection count — each budgeted one under its own per-thread
// ResourceGovernor (pipeline/governor.h), so budgets never serialize.
//
// Multi-tenant admission (docs/TENANCY.md): every compile that misses
// the cache carries a cost — its requested deadline_ms, or
// `default_cost_ms` when it has none. The total capacity
// `queue_capacity * default_cost_ms` is split between the registered
// tenants by weight; a request whose admission would push ITS tenant's
// backlog past that tenant's share is rejected with a typed
// `overloaded` diagnostic (ErrorCode::kOverloaded, exit code 24) —
// backpressure scoped to the tenant that caused it. An unregistered
// tenant id is a typed kUnknownTenant (exit code 25). Admitted requests
// queue per tenant and are scheduled by start-time fair queuing with
// per-tenant token-bucket throttling (qos::AdmissionController); the
// slot count equals the compile worker count.
//
// Load shedding is per tenant and reuses the pipeline's degradation
// ladder (pipeline/compile.h, ctl::shed_to_tier): at >= 1/2 of the
// tenant's share the loop optimizer is capped at kDppo, at >= 3/4 it is
// forced to kFlat and the ordering heuristic to the plain topological
// sort. Shed-degraded
// responses are served but never cached, so cache entries are always
// full-fidelity and hot responses stay byte-identical to an unloaded
// cold compile — for every tenant, since responses never embed the
// tenant id and the cache is shared.
//
// Graceful drain (util/shutdown.h): once SIGINT/SIGTERM sets the
// shutdown flag (or stop() is called), admission lifts its throttles, the
// host closes the listeners, connection threads finish the requests
// already received and exit, the pool drains, and run() returns. Every
// cache insert was already durable when its response left, so there is
// nothing to flush — the index survives even SIGKILL. The CLI maps a
// signal-initiated drain to exit code 23 (kInterrupted).
//
// Background cache scrubbing (docs/RELIABILITY.md "Cache scrubber"):
// with `scrub_interval_ms > 0` a housekeeping thread CRC-walks the
// object store between intervals, quarantines entries whose bytes no
// longer verify (service/cache.h scrub_once), and drops their hot-tier
// copies — silent disk corruption becomes a clean miss followed by a
// recompile, never a served wrong answer.
//
// Adaptive control (docs/CONTROL.md): with `--control-interval N` a
// housekeeping thread ticks the feedback controller (service/control.h)
// every N ms over that interval's delta metrics; it replaces the static
// `--cost-ms` admission estimate with the measured per-size-bucket EWMA
// and nudges the ladder trip points and per-tenant share boosts within
// hard clamps. `--record <file>` journals every request as a
// sdfmem.trace.v1 record (service/trace.h) for deterministic replay.
//
// Metrics (docs/OBSERVABILITY.md, "Service telemetry"): every event is
// counted once, in a lock-free obs::Registry built from kServerMetrics
// plus kTenantMetrics expanded for each registered tenant (the registry
// is fixed for the server's life, so a client cannot mint names). A
// request resolves its tenant to an index once; after that, recording is
// an index and a relaxed atomic add. Request latency goes into one
// obs::LogHistogram per server and one per tenant. stats_json() reads
// the registry and changes nothing; the control loop diffs each read
// against its own previous one. Under `serve --trace` run() copies the
// totals into the telemetry session once, on drain.
#pragma once

#include <iterator>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json_report.h"
#include "obs/metrics.h"
#include "pipeline/governor.h"
#include "service/cache.h"
#include "service/control.h"
#include "service/hot_tier.h"
#include "service/protocol.h"
#include "service/qos.h"
#include "service/trace.h"
#include "service/transport.h"
#include "util/thread_pool.h"

namespace sdf::svc {

struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix listener. An
  /// existing socket file at the path is replaced (stale-daemon cleanup).
  std::string socket_path;
  /// Loopback TCP port; 0 disables the TCP listener, negative asks for an
  /// ephemeral port (read back via Server::tcp_port()).
  int tcp_port = 0;
  /// Result-cache directory; empty runs without a cache.
  std::string cache_dir;
  /// In-memory LRU hot tier over the disk cache (service/hot_tier.h);
  /// bytes of response payloads kept resident. 0 disables the tier.
  /// Only meaningful with a cache_dir — the hot tier fronts the store.
  std::int64_t hot_tier_bytes = 32ll << 20;
  /// Period of the background cache scrubber; <= 0 disables it. Only
  /// meaningful with a cache_dir.
  int scrub_interval_ms = 0;
  /// Stable identity reported in stats_json() ("worker_id"); the fleet
  /// router health-checks it against its configuration so a socket that
  /// was taken over by a different worker is caught, not routed to.
  /// Empty (the default) omits the field.
  std::string worker_id;
  /// Compile worker threads (util::ThreadPool::resolve_jobs semantics).
  int jobs = 1;
  /// Admission bound: capacity is queue_capacity * default_cost_ms of
  /// backlog. 0 sheds every cache miss (useful for tests and for a
  /// read-only replica serving only cached results).
  int queue_capacity = 16;
  /// Cost charged for a request that carries no deadline, in ms.
  std::int64_t default_cost_ms = 1000;
  /// Server-side ceiling applied to every compile; a request's own
  /// budget can only tighten it.
  ResourceBudget budget;
  /// Tenant registry (docs/TENANCY.md). The default holds only the
  /// `public` tenant, which reproduces the single-queue behaviour;
  /// `--tenants-config` replaces it with a parsed sdfmem.tenants.v1
  /// document.
  qos::TenantRegistry tenants;
  /// Monitoring interval of the adaptive controller (docs/CONTROL.md);
  /// <= 0 disables the control loop entirely (`--control-interval`).
  int control_interval_ms = 0;
  /// Master switch (`--control off`): false pins every knob at its
  /// static default even when an interval is configured. With the
  /// controller off the cost model is still *recorded* (so `stats` can
  /// show how wrong --cost-ms is) but never *used* for admission.
  bool control = true;
  /// Controller thresholds/clamps; the defaults are the documented
  /// control law.
  ctl::ControllerConfig controller;
  /// When nonempty, journal every compile request to this sdfmem.trace.v1
  /// file (`serve --record`, service/trace.h). Refuses to overwrite.
  std::string record_path;
};

/// Server registry slots, in kServerMetrics order. The mirrored slots,
/// from kCacheInserts on, are never written: every read fills them from
/// the stats the cache tiers and the trace recorder keep themselves.
struct ServerMetric {
  enum : std::size_t {
    kRequests, kResponsesOk, kCacheHits, kCacheMisses, kOverloaded,
    kShedDegraded, kErrors, kBadFrames, kUnknownTenant, kPeerLookups,
    kPeerLookupHits, kPeerInserts, kCacheWriteFailures, kQueueDepth,
    kMaxQueueDepth, kCostModelSamples, kControlTicks, kControlAdjustments,
    kControlClamped, kControlCapped, kControlDegraded, kControlUtility,
    kControlShed, kTraceErrors, kCacheInserts, kCacheCorrupt, kScrubPasses,
    kScrubChecked, kScrubQuarantined, kHotHits, kHotMisses, kHotInserts,
    kHotEvictions, kHotBytes, kTraceRecords, kCount
  };
};

inline constexpr auto kGauge = obs::MetricKind::kGauge;
inline constexpr obs::MetricDef kServerMetrics[] = {
    {"service.requests"}, {"service.responses_ok"}, {"service.cache.hits"},
    {"service.cache.misses"}, {"service.overloaded"},
    {"service.shed_degraded"}, {"service.errors"}, {"service.bad_frames"},
    {"service.tenant.unknown"}, {"service.peer.lookups"},
    {"service.peer.lookup_hits"}, {"service.peer.inserts"},
    {"service.cache.write_failures"}, {"service.queue_depth", kGauge},
    {"service.max_queue_depth", kGauge}, {"service.cost_model.samples"},
    {"service.control.ticks"}, {"service.control.adjustments"},
    {"service.control.clamped"}, {"service.control.capped_x1000", kGauge},
    {"service.control.degraded_x1000", kGauge},
    {"service.control.utility_x1000", kGauge},
    {"service.control.shed_x1000", kGauge}, {"service.trace.errors"},
    {"service.cache.inserts"}, {"service.cache.corrupt"},
    {"service.cache.scrub_passes"}, {"service.cache.scrub_checked"},
    {"service.cache.scrub_quarantined"}, {"service.cache.hot_hits"},
    {"service.cache.hot_misses"}, {"service.cache.hot_inserts"},
    {"service.cache.hot_evictions"}, {"service.cache.hot_bytes", kGauge},
    {"service.trace.records"}};
static_assert(std::size(kServerMetrics) == ServerMetric::kCount);

/// Per-tenant registry slots, in kTenantMetrics order.
struct TenantMetric {
  enum : std::size_t {
    kRequests, kCacheHits, kCacheMisses, kOverloaded, kShedDegraded,
    kThrottleWaitUs, kCacheInserts, kCacheBytes, kQuotaDenied, kCount
  };
};

inline constexpr obs::MetricDef kTenantMetrics[] = {
    {"service.tenant.<t>.requests"}, {"service.tenant.<t>.cache_hits"},
    {"service.tenant.<t>.cache_misses"}, {"service.tenant.<t>.overloaded"},
    {"service.tenant.<t>.shed_degraded"},
    {"service.tenant.<t>.throttle_wait_us"},
    {"service.tenant.<t>.cache_inserts"}, {"service.tenant.<t>.cache_bytes"},
    {"service.tenant.<t>.cache_quota_denied"}};
static_assert(std::size(kTenantMetrics) == TenantMetric::kCount);

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners. Throws IoError when none can be
  /// bound (and BadArgumentError when none is configured).
  void start();

  /// Accept loop; returns after a graceful drain once stop() was called
  /// or the process shutdown flag (util/shutdown.h) is set. start() must
  /// have succeeded. While the telemetry session is on (`serve --trace`)
  /// the drain copies the registry totals into it.
  void run();

  /// Requests a drain (idempotent, callable from any thread or from a
  /// signal-adjacent context).
  void stop() noexcept { host_.stop(); }

  /// The bound TCP port (after start()); 0 when the TCP listener is off.
  [[nodiscard]] int tcp_port() const noexcept { return host_.tcp_port(); }

  /// Live stats as the kStatsResponse JSON document, the one read of
  /// server state.
  [[nodiscard]] std::string stats_json() const;

  /// Whether the adaptive controller is live (`control` master switch
  /// AND a positive interval).
  [[nodiscard]] bool control_enabled() const noexcept {
    return options_.control && options_.control_interval_ms > 0;
  }

  /// One controller interval: snapshot the window, tick the controller,
  /// apply the knobs to admission, emit service.control.* telemetry.
  /// The background control loop calls this every interval; tests and
  /// the replay harness call it directly for deterministic stepping.
  ctl::Decision control_tick();

 private:
  /// One read of everything a window diffs.
  struct Reading {
    std::chrono::steady_clock::time_point at;
    std::vector<std::int64_t> values;  ///< registry slots, mirrors filled
    obs::HistogramSnapshot latency;
  };

  void handle_frame(int fd, const Frame& frame);
  void handle_compile(int fd, std::string_view payload);
  void handle_peer_lookup(int fd, std::string_view payload);
  void handle_peer_insert(int fd, std::string_view payload);
  /// Tiered read: hot tier first (if `read_hot`), then the verified disk
  /// read (which also warms the hot tier). nullopt: both miss/no cache.
  [[nodiscard]] std::optional<std::string> cache_fetch(std::uint64_t key,
                                                       bool read_hot = true);
  /// Tiered write: durable disk insert plus hot-tier population. False
  /// when the durable insert failed (counted; the hot tier is skipped —
  /// it must only hold what the disk tier vouches for).
  bool cache_store(std::uint64_t key, std::string_view payload);
  /// Background scrubber body (see the file comment).
  void scrub_loop();
  /// Background controller body: control_tick() every interval.
  void control_loop();
  /// Reads the registry, filling in the mirrored slots.
  [[nodiscard]] Reading read() const;
  /// The interval between two reads: what the controller sees of it,
  /// and the stats_json() "window" object.
  [[nodiscard]] std::pair<ctl::IntervalMetrics, obs::Json> window(
      const Reading& later, const Reading& earlier) const;
  /// Index of a registered tenant in tenant_names_; nullopt if unknown.
  [[nodiscard]] std::optional<std::size_t> tenant_index(
      std::string_view name) const;
  void count_tenant(std::size_t tenant, std::size_t metric,
                    std::int64_t delta = 1) noexcept {
    metrics_.add(metrics_.slot(tenant, metric), delta);
  }
  /// Appends to the request trace, swallowing (but counting) IO errors —
  /// recording must never fail a request.
  void record_trace(const TraceRecord& record);
  void send_error(int fd, const Diagnostic& diag);
  void note_queue_depth();

  ServerOptions options_;
  /// The registered tenants (fixed for the server's life), sorted.
  std::vector<std::string> tenant_names_;
  obs::Registry metrics_;
  obs::LogHistogram latency_;
  std::unique_ptr<obs::LogHistogram[]> tenant_latency_;
  std::optional<ResultCache> cache_;
  std::optional<HotTier> hot_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<qos::AdmissionController> admission_;

  std::thread scrub_;
  std::thread control_;

  /// Zero reading at construction: the window base while no controller
  /// ticks.
  Reading start_;
  mutable std::mutex mu_;  ///< cost model + controller + tick readings
  ctl::CostModel cost_model_;
  ctl::Controller controller_;
  ctl::Decision last_decision_;
  /// The last two control_tick() reads: the last completed interval.
  Reading prev_tick_;
  Reading last_tick_;
  std::chrono::steady_clock::time_point trace_start_;
  std::unique_ptr<TraceWriter> recorder_;

  /// Last member: destroyed first, so connection threads are joined
  /// while everything they touch is still alive.
  ConnectionHost host_;
};

}  // namespace sdf::svc
