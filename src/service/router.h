// Fleet router: shard-routed forwarding over N sdfmemd workers
// (docs/SERVICE.md, "Fleet mode").
//
// The router speaks the same SDFSVC1 protocol as a worker, so existing
// clients point at it unchanged. For every compile request it:
//
//   1. derives the shard key — the request's content-addressed cache key
//      (canonical graph x option fingerprint), the same value the worker
//      would compute, so routing and caching agree byte-for-byte. A
//      request whose graph does not parse is routed by the raw-text hash
//      instead: it still lands deterministically on one worker, which
//      produces the structured parse error.
//   2. asks the shard owner (ring.h, first live worker clockwise from
//      the key) for its cached bytes (kPeerLookupRequest). Hit: the
//      response is relayed and the request never queues for a compile.
//   3. on a shard miss, probes the other live workers for the key; a
//      peer hit is relayed to the client AND warmed into the owner
//      (kPeerInsertRequest), so subsequent requests hit at step 2. This
//      is how the fleet heals after resizes and worker replacement.
//   4. otherwise forwards the full compile request to the owner and
//      relays the reply verbatim — compile responses and typed errors
//      (overloaded, unknown-tenant, parse...) pass through unchanged, so
//      per-tenant admission keeps working per worker.
//
// Failure semantics — degrade, never hang: every worker round-trip has a
// deadline (`worker_timeout_ms`). A connect failure, torn reply, or
// timeout counts against the worker's circuit breaker and the request
// re-routes to the next live worker on the ring (counted in `rerouted`);
// each worker is attempted at most once per request, so the loop
// terminates. When no routable worker remains the client gets a typed
// `unavailable` diagnostic (ErrorCode::kUnavailable, exit 26) — an error
// frame, not a stalled connection.
//
// Circuit breakers (docs/RELIABILITY.md, "Circuit breakers"): each
// worker carries a three-state breaker instead of a binary dead flag.
// `closed` routes normally; `breaker_threshold` *consecutive* failures
// open it (one flaky round-trip among successes does not). An `open`
// worker takes no traffic until the health prober (stats frames, each
// `health_interval_ms`) sees it answer again, which moves it to
// `half_open`: exactly one in-flight trial request is allowed through —
// success closes the breaker, failure re-opens it. A probe success on a
// closed breaker also clears the failure streak, so sporadic failures
// spread over time never accumulate to a spurious open. When the worker
// reports a `worker_id` and the spec pinned one, a probe mismatch counts
// as a failure (mis-wired socket, not routed to). Pre-fleet workers that
// answer peer frames with an error are remembered as
// `peer_support = false` and served by plain forwarding — version
// negotiation by behaviour, like the v2 tenancy schema.
//
// Metrics (docs/OBSERVABILITY.md): kRouterMetrics, counted once each in
// a lock-free obs::Registry that stats() reads.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/ring.h"
#include "service/transport.h"

namespace sdf::svc {

struct WorkerConfig {
  std::string id;     ///< ring identity; defaults to the endpoint name
  Endpoint endpoint;
  /// True when the spec pinned the id ("id@endpoint"): the health check
  /// then verifies the worker's reported worker_id against it.
  bool pinned_id = false;
};

/// Parses a --worker spec: "[id@]{path | tcp:PORT}". The id defaults to
/// the endpoint name. kBadArgument diagnostic on malformed specs.
[[nodiscard]] Result<WorkerConfig> parse_worker_spec(std::string_view spec);

struct RouterOptions {
  /// Listeners, same convention as ServerOptions.
  std::string socket_path;
  int tcp_port = 0;
  std::vector<WorkerConfig> workers;
  /// Virtual nodes per worker on the hash ring.
  int vnodes = 64;
  /// Health-probe period. <= 0 disables the background prober (failures
  /// are still detected inline and recovery needs a restart — tests
  /// only).
  int health_interval_ms = 250;
  /// Deadline for any single worker round-trip (connect + reply). A
  /// compile slower than this is treated as a dead worker and re-routed;
  /// generous by default because the re-route recompiles from scratch.
  int worker_timeout_ms = 60000;
  /// Consecutive failures that open a worker's circuit breaker. 1
  /// reproduces the pre-breaker instant-dead behaviour.
  int breaker_threshold = 3;
};

/// Per-worker circuit-breaker state (see the file comment).
enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string_view breaker_state_name(BreakerState s) noexcept;

struct RouterWorkerStats {
  std::string endpoint;
  bool alive = true;  ///< derived: breaker != kOpen (dashboards, smoke)
  BreakerState breaker = BreakerState::kClosed;
  int consecutive_failures = 0;
  bool peer_support = true;
  std::int64_t forwarded = 0;  ///< compile requests sent to this worker
  std::int64_t failures = 0;   ///< connect/timeout/torn-reply events
};

/// Router registry slots, in kRouterMetrics order.
struct RouterMetric {
  enum : std::size_t {
    kRequests, kErrors, kBadFrames, kLookupHits, kPeerHits, kWarms,
    kCompiles, kRerouted, kUnavailable, kWorkerDown, kBreakerOpen,
    kBreakerHalfOpen, kBreakerClose, kBreakerReopen, kWorkersAlive, kCount
  };
};

inline constexpr obs::MetricDef kRouterMetrics[] = {
    {"service.route.requests"}, {"service.route.errors"},
    {"service.route.bad_frames"}, {"service.route.lookup_hits"},
    {"service.route.peer_hits"}, {"service.route.warms"},
    {"service.route.compiles"}, {"service.route.rerouted"},
    {"service.route.unavailable"}, {"service.route.worker_down"},
    {"service.route.breaker_open"}, {"service.route.breaker_half_open"},
    {"service.route.breaker_close"}, {"service.route.breaker_reopen"},
    {"service.route.workers_alive", obs::MetricKind::kGauge}};
static_assert(std::size(kRouterMetrics) == RouterMetric::kCount);

struct RouterStats {
  std::int64_t requests = 0;
  std::int64_t connections = 0;
  std::int64_t bad_frames = 0;
  std::int64_t errors = 0;       ///< error frames the router itself sent
  std::int64_t lookup_hits = 0;  ///< served from the shard owner's cache
  std::int64_t peer_hits = 0;    ///< served from a non-owner peer's cache
  std::int64_t warms = 0;        ///< successful owner warm inserts
  std::int64_t compiles = 0;     ///< full compiles forwarded
  std::int64_t rerouted = 0;     ///< owner failed mid-request, retried
  std::int64_t unavailable = 0;  ///< requests failed: no live worker
  std::int64_t worker_down = 0;  ///< breaker closed/half-open -> open
  std::int64_t breaker_open = 0;       ///< closed -> open (threshold)
  std::int64_t breaker_half_open = 0;  ///< open -> half-open (probe)
  std::int64_t breaker_close = 0;      ///< half-open -> closed (trial ok)
  std::int64_t breaker_reopen = 0;     ///< half-open -> open (trial bad)
  std::map<std::string, RouterWorkerStats> workers;
};

class Router {
 public:
  /// Throws BadArgumentError when `workers` is empty or ids collide.
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds listeners and starts the health thread. Same error contract
  /// as Server::start().
  void start();

  /// Accept loop; returns after a graceful drain (stop() or the process
  /// shutdown flag).
  void run() { host_.run(); }

  void stop() noexcept { host_.stop(); }

  [[nodiscard]] int tcp_port() const noexcept { return host_.tcp_port(); }

  [[nodiscard]] RouterStats stats() const;

  /// Live stats as the kStatsResponse payload ("sdfmem.routestats.v1").
  [[nodiscard]] std::string stats_json() const;

  /// The configured shard owner for a key, ignoring liveness (tests and
  /// capacity planning; requests use the live-failover order).
  [[nodiscard]] const std::string& shard_owner(std::uint64_t key) const {
    return ring_.owner(key);
  }

 private:
  struct WorkerState {
    WorkerConfig cfg;
    BreakerState breaker = BreakerState::kClosed;
    int consecutive_failures = 0;
    /// True while a half-open trial request is in flight; only one
    /// request at a time probes a half-open worker.
    bool trial_inflight = false;
    bool peer_support = true;
    std::int64_t forwarded = 0;
    std::int64_t failures = 0;
  };

  void handle_frame(int fd, const Frame& frame);
  void handle_route(int fd, std::string_view payload);
  /// The failover body of handle_route once the shard key is known.
  void route_with_failover(int fd, std::string_view payload,
                           std::uint64_t key, bool have_cache_key);
  void send_error(int fd, const Diagnostic& diag);

  /// One bounded round-trip on an open worker connection (deadline
  /// `timeout_ms`, or worker_timeout_ms when 0); nullopt on send failure,
  /// torn reply, or timeout (caller records the failure).
  [[nodiscard]] std::optional<Frame> worker_roundtrip(
      int wfd, FrameKind kind, std::string_view payload, int timeout_ms = 0);
  /// Connects to a worker; -1 on failure (failure already recorded).
  [[nodiscard]] int worker_connect(const std::string& id);
  /// One breaker failure: half-open re-opens, closed opens at the
  /// threshold. Clears any trial claim this request held.
  void record_failure(const std::string& id);
  /// One breaker success: clears the failure streak; a half-open trial
  /// success closes the breaker.
  void record_success(const std::string& id);
  /// Health-probe success: an open breaker becomes half-open (routable
  /// for one trial); a closed one just clears its failure streak.
  void note_probe_success(const std::string& id);
  void note_workers_alive_locked();
  /// The first routable worker for `key` that is not in `exclude`;
  /// claims the half-open trial slot when it takes one. Empty when none.
  [[nodiscard]] std::string acquire_owner(
      std::uint64_t key, const std::vector<std::string>& exclude);
  /// Closed-breaker peers (preference order for `key`) for shard-miss
  /// probing; never half-open workers — trials stay single-file.
  [[nodiscard]] std::vector<std::string> peer_candidates(
      std::uint64_t key, const std::string& owner,
      const std::vector<std::string>& exclude) const;
  void health_loop();
  void health_check_once();

  RouterOptions options_;
  HashRing ring_;

  std::thread health_;

  obs::Registry metrics_{kRouterMetrics};
  mutable std::mutex mu_;  ///< workers_
  std::map<std::string, WorkerState> workers_;

  /// Last member: destroyed first, so connection threads are joined
  /// while everything they touch is still alive.
  ConnectionHost host_;
};

}  // namespace sdf::svc
