#include "service/router.h"

#include <algorithm>
#include <utility>

#include "obs/json_report.h"
#include "sdf/diagnostics.h"
#include "sdf/io.h"
#include "util/fault.h"
#include "util/hash.h"

namespace sdf::svc {
Result<WorkerConfig> parse_worker_spec(std::string_view spec) {
  const auto bad = [](std::string message) {
    Diagnostic diag;
    diag.code = ErrorCode::kBadArgument;
    diag.message = std::move(message);
    return diag;
  };
  WorkerConfig cfg;
  std::string_view endpoint = spec;
  const std::size_t at = spec.find('@');
  if (at != std::string_view::npos) {
    cfg.id = std::string(spec.substr(0, at));
    cfg.pinned_id = true;
    endpoint = spec.substr(at + 1);
    if (cfg.id.empty()) {
      return bad("--worker: empty id in '" + std::string(spec) + "'");
    }
  }
  if (endpoint.empty()) {
    return bad("--worker: empty endpoint in '" + std::string(spec) + "'");
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    const std::string_view digits = endpoint.substr(4);
    int port = 0;
    for (const char c : digits) {
      if (c < '0' || c > '9' || port > 65535) {
        port = -1;
        break;
      }
      port = port * 10 + (c - '0');
    }
    if (digits.empty() || port <= 0 || port > 65535) {
      return bad("--worker: bad TCP port in '" + std::string(spec) + "'");
    }
    cfg.endpoint.tcp_port = port;
  } else {
    cfg.endpoint.socket_path = std::string(endpoint);
  }
  if (cfg.id.empty()) cfg.id = cfg.endpoint.name();
  return cfg;
}

std::string_view breaker_state_name(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "closed";
}

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.vnodes),
      host_("route",
            {[this](int fd, const Frame& frame) { handle_frame(fd, frame); },
             [this](int fd, const Diagnostic& diag) { send_error(fd, diag); },
             [this] { metrics_.add(RouterMetric::kBadFrames); },
             {}}) {
  if (options_.workers.empty()) {
    throw BadArgumentError("route: no workers configured (need --worker)");
  }
  if (options_.worker_timeout_ms <= 0) options_.worker_timeout_ms = 60000;
  if (options_.breaker_threshold < 1) options_.breaker_threshold = 1;
  for (const WorkerConfig& cfg : options_.workers) {
    if (workers_.count(cfg.id) > 0) {
      throw BadArgumentError("route: duplicate worker id '" + cfg.id + "'");
    }
    WorkerState st;
    st.cfg = cfg;
    workers_.emplace(cfg.id, std::move(st));
    ring_.add(cfg.id);
  }
  metrics_.set(RouterMetric::kWorkersAlive,
               static_cast<std::int64_t>(workers_.size()));
}

Router::~Router() {
  stop();
  if (health_.joinable()) health_.join();
}

void Router::start() {
  host_.listen(options_.socket_path, options_.tcp_port);
  if (options_.health_interval_ms > 0) {
    health_ = std::thread([this] { health_loop(); });
  }
}

void Router::handle_frame(int fd, const Frame& frame) {
  switch (frame.kind) {
    case FrameKind::kPing:
      send_frame(fd, FrameKind::kPong, frame.payload);
      return;
    case FrameKind::kStatsRequest:
      send_frame(fd, FrameKind::kStatsResponse, stats_json());
      return;
    case FrameKind::kCompileRequest:
      handle_route(fd, frame.payload);
      return;
    default: {
      Diagnostic diag;
      diag.code = ErrorCode::kBadArgument;
      diag.message = "unexpected frame kind " +
                     std::to_string(static_cast<int>(frame.kind)) +
                     " (router accepts compile/ping/stats requests)";
      send_error(fd, diag);
      return;
    }
  }
}

void Router::handle_route(int fd, std::string_view payload) {
  metrics_.add(RouterMetric::kRequests);

  // The router rejects what every worker would reject — same parser —
  // instead of burning a forward on a malformed request.
  Result<CompileRequest> parsed = parse_compile_request(payload);
  if (!parsed.ok()) {
    send_error(fd, parsed.error());
    return;
  }
  const CompileRequest& req = parsed.value();

  // Shard key: the worker's exact cache key when the graph parses, the
  // raw-text hash otherwise (sticky routing for the parse error too).
  std::uint64_t key = 0;
  bool have_cache_key = false;
  try {
    const Graph g = parse_graph_text(req.graph_text);
    key = cache_key(write_graph_text(g), option_fingerprint(req));
    have_cache_key = true;
  } catch (const std::exception&) {
    key = util::fnv1a64(req.graph_text);
  }
  route_with_failover(fd, payload, key, have_cache_key);
}

std::string Router::acquire_owner(std::uint64_t key,
                                  const std::vector<std::string>& exclude) {
  const std::vector<std::string> order = ring_.owners(key, workers_.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& id : order) {
    if (std::find(exclude.begin(), exclude.end(), id) != exclude.end()) {
      continue;
    }
    const auto it = workers_.find(id);
    if (it == workers_.end()) continue;
    WorkerState& st = it->second;
    if (st.breaker == BreakerState::kOpen) continue;
    if (st.breaker == BreakerState::kHalfOpen) {
      // One trial at a time: the first request through claims the slot;
      // everyone else skips to the next routable worker until the trial
      // settles the breaker one way or the other.
      if (st.trial_inflight) continue;
      st.trial_inflight = true;
    }
    return id;
  }
  return {};
}

std::vector<std::string> Router::peer_candidates(
    std::uint64_t key, const std::string& owner,
    const std::vector<std::string>& exclude) const {
  const std::vector<std::string> order = ring_.owners(key, workers_.size());
  std::vector<std::string> peers;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& id : order) {
    if (id == owner) continue;
    if (std::find(exclude.begin(), exclude.end(), id) != exclude.end()) {
      continue;
    }
    const auto it = workers_.find(id);
    if (it == workers_.end()) continue;
    // Closed breakers only: open workers take no traffic, and half-open
    // trials stay single-file through acquire_owner.
    if (it->second.breaker != BreakerState::kClosed) continue;
    if (!it->second.peer_support) continue;
    peers.push_back(id);
  }
  return peers;
}

void Router::route_with_failover(int fd, std::string_view payload,
                                 std::uint64_t key, bool have_cache_key) {
  // Each failed attempt lands its owner on the per-request exclusion
  // list, so at most one attempt per configured worker — the loop cannot
  // spin even while the breaker threshold keeps a flaky worker routable.
  std::vector<std::string> excluded;
  for (std::size_t attempt = 0; attempt < options_.workers.size();
       ++attempt) {
    const std::string owner = acquire_owner(key, excluded);
    if (owner.empty()) break;
    // `failed`: the breaker failure is still to be recorded (a failed
    // worker_connect has recorded it already).
    const auto reroute_after = [&](const std::string& id, bool failed) {
      if (failed) record_failure(id);
      excluded.push_back(id);
      metrics_.add(RouterMetric::kRerouted);
    };
    const int raw_fd = worker_connect(owner);
    if (raw_fd < 0) {
      reroute_after(owner, false);
      continue;
    }
    FdGuard wfd(raw_fd);

    bool owner_peer_support;
    {
      std::lock_guard<std::mutex> lock(mu_);
      owner_peer_support = workers_[owner].peer_support;
    }

    if (have_cache_key && owner_peer_support) {
      const std::optional<Frame> reply =
          worker_roundtrip(wfd.get(), FrameKind::kPeerLookupRequest,
                           encode_peer_lookup(key));
      if (!reply.has_value()) {
        reroute_after(owner, true);
        continue;
      }
      if (reply->kind == FrameKind::kPeerLookupResponse &&
          !reply->payload.empty()) {
        // Shard hit: the owner's cache already had the bytes.
        record_success(owner);
        metrics_.add(RouterMetric::kLookupHits);
        send_frame(fd, FrameKind::kCompileResponse, reply->payload);
        return;
      }
      if (reply->kind == FrameKind::kErrorResponse) {
        // Pre-fleet worker: it answered the peer frame with a bad-frame
        // error and closed the connection — a transport-level success as
        // far as the breaker cares. Remember, reconnect, and fall back
        // to plain forwarding for this worker from now on.
        record_success(owner);
        {
          std::lock_guard<std::mutex> lock(mu_);
          workers_[owner].peer_support = false;
        }
        owner_peer_support = false;
        const int refd = worker_connect(owner);
        if (refd < 0) {
          reroute_after(owner, false);
          continue;
        }
        wfd.reset(refd);
      } else if (reply->kind != FrameKind::kPeerLookupResponse) {
        reroute_after(owner, true);
        continue;
      } else {
        // Shard miss — but the owner answered, which settles any trial.
        // Probe the closed-breaker peers: one that cached this key
        // serves the client immediately and warms the owner so the
        // shard heals.
        record_success(owner);
        for (const std::string& peer :
             peer_candidates(key, owner, excluded)) {
          const int praw = worker_connect(peer);
          if (praw < 0) continue;
          FdGuard pfd(praw);
          const std::optional<Frame> probe =
              worker_roundtrip(pfd.get(), FrameKind::kPeerLookupRequest,
                               encode_peer_lookup(key));
          if (!probe.has_value()) {
            record_failure(peer);
            continue;
          }
          if (probe->kind == FrameKind::kErrorResponse) {
            record_success(peer);
            std::lock_guard<std::mutex> lock(mu_);
            workers_[peer].peer_support = false;
            continue;
          }
          if (probe->kind != FrameKind::kPeerLookupResponse ||
              probe->payload.empty()) {
            if (probe->kind == FrameKind::kPeerLookupResponse) {
              record_success(peer);  // peer miss: still a clean answer
            }
            continue;
          }
          // Peer hit: warm the owner on the connection we already hold,
          // THEN relay to the client. Ordering matters — once the client
          // sees this reply, the shard owner is guaranteed to answer the
          // next lookup itself (no window where a follow-up request
          // re-probes peers). The warm is durable on the owner before
          // its ack. A failed warm still serves the client; the next
          // request just probes again.
          record_success(peer);
          metrics_.add(RouterMetric::kPeerHits);
          const std::optional<Frame> warm = worker_roundtrip(
              wfd.get(), FrameKind::kPeerInsertRequest,
              encode_peer_insert(key, probe->payload));
          if (warm.has_value() &&
              warm->kind == FrameKind::kPeerInsertResponse) {
            record_success(owner);
            metrics_.add(RouterMetric::kWarms);
          } else if (!warm.has_value()) {
            record_failure(owner);
          }
          send_frame(fd, FrameKind::kCompileResponse, probe->payload);
          return;
        }
      }
    }

    // Cold path: forward the full compile to the owner and relay the
    // reply verbatim — worker-typed errors (overloaded, unknown tenant,
    // parse...) reach the client exactly as a direct connection would.
    const std::optional<Frame> reply =
        worker_roundtrip(wfd.get(), FrameKind::kCompileRequest, payload);
    if (!reply.has_value()) {
      reroute_after(owner, true);
      continue;
    }
    record_success(owner);
    metrics_.add(RouterMetric::kCompiles);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_[owner].forwarded;
    }
    send_frame(fd, reply->kind, reply->payload);
    return;
  }

  metrics_.add(RouterMetric::kUnavailable);
  Diagnostic diag;
  diag.code = ErrorCode::kUnavailable;
  diag.message = "no live worker: all " +
                 std::to_string(options_.workers.size()) +
                 " configured workers are unreachable; retry once the "
                 "fleet recovers (docs/SERVICE.md \"Fleet mode\")";
  send_error(fd, diag);
}

std::optional<Frame> Router::worker_roundtrip(int wfd, FrameKind kind,
                                              std::string_view payload,
                                              int timeout_ms) {
  if ((kind == FrameKind::kPeerLookupRequest ||
       kind == FrameKind::kPeerInsertRequest) &&
      fault::enabled() && fault::should_fail("svc_peer_timeout")) {
    return std::nullopt;  // injected: the peer round-trip timed out
  }
  if (!send_all(wfd, encode_frame(kind, payload))) return std::nullopt;
  FrameReader reader;
  Frame frame;
  if (reader.read(wfd, &frame,
                  timeout_ms > 0 ? timeout_ms : options_.worker_timeout_ms) !=
      ReadOutcome::kFrame) {
    return std::nullopt;
  }
  return frame;
}

int Router::worker_connect(const std::string& id) {
  Endpoint ep;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = workers_.find(id);
    if (it == workers_.end()) return -1;
    ep = it->second.cfg.endpoint;
  }
  try {
    return connect_endpoint(ep);
  } catch (const std::exception&) {
    record_failure(id);
    return -1;
  }
}

void Router::record_failure(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = workers_.find(id);
  if (it == workers_.end()) return;
  WorkerState& st = it->second;
  ++st.failures;
  ++st.consecutive_failures;
  st.trial_inflight = false;
  if (st.breaker == BreakerState::kHalfOpen) {
    // The trial failed: straight back to open, no threshold grace.
    st.breaker = BreakerState::kOpen;
    metrics_.add(RouterMetric::kWorkerDown);
    metrics_.add(RouterMetric::kBreakerReopen);
  } else if (st.breaker == BreakerState::kClosed &&
             st.consecutive_failures >= options_.breaker_threshold) {
    st.breaker = BreakerState::kOpen;
    metrics_.add(RouterMetric::kWorkerDown);
    metrics_.add(RouterMetric::kBreakerOpen);
  }
  note_workers_alive_locked();
}

void Router::record_success(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = workers_.find(id);
  if (it == workers_.end()) return;
  WorkerState& st = it->second;
  st.consecutive_failures = 0;
  st.trial_inflight = false;
  if (st.breaker == BreakerState::kHalfOpen) {
    st.breaker = BreakerState::kClosed;
    metrics_.add(RouterMetric::kBreakerClose);
  }
  note_workers_alive_locked();
}

void Router::note_probe_success(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = workers_.find(id);
  if (it == workers_.end()) return;
  WorkerState& st = it->second;
  if (st.breaker == BreakerState::kOpen) {
    st.breaker = BreakerState::kHalfOpen;
    st.trial_inflight = false;
    metrics_.add(RouterMetric::kBreakerHalfOpen);
    note_workers_alive_locked();
  } else if (st.breaker == BreakerState::kClosed) {
    // A healthy probe wipes the streak so sporadic request failures
    // spread over time never accumulate to a spurious open.
    st.consecutive_failures = 0;
  }
  // Half-open: leave it alone — the in-flight trial request decides.
}

void Router::note_workers_alive_locked() {
  std::int64_t alive = 0;
  for (const auto& [id, st] : workers_) {
    if (st.breaker != BreakerState::kOpen) ++alive;
  }
  metrics_.set(RouterMetric::kWorkersAlive, alive);
}

void Router::health_loop() {
  do {
    health_check_once();
  } while (host_.wait_unless_stopped(options_.health_interval_ms));
}

void Router::health_check_once() {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(workers_.size());
    for (const auto& [id, st] : workers_) ids.push_back(id);
  }
  for (const std::string& id : ids) {
    if (host_.stop_requested()) return;
    const int raw_fd = worker_connect(id);
    if (raw_fd < 0) continue;  // already marked dead
    FdGuard wfd(raw_fd);
    // Health probes use a short deadline: a stats reply is cheap, and a
    // worker that cannot produce one inside 2 s is not routable.
    const std::optional<Frame> frame =
        worker_roundtrip(wfd.get(), FrameKind::kStatsRequest, "",
                         std::min(options_.worker_timeout_ms, 2000));
    if (!frame.has_value() || frame->kind != FrameKind::kStatsResponse) {
      record_failure(id);
      continue;
    }
    bool pinned = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = workers_.find(id);
      if (it != workers_.end()) pinned = it->second.cfg.pinned_id;
    }
    if (pinned) {
      // Identity check: a socket answered by a *different* worker (e.g.
      // a path reused by another fleet) is down, not routed to.
      std::string reported;
      try {
        const obs::Json doc = obs::Json::parse(frame->payload);
        if (const obs::Json* wid = doc.find("worker_id")) {
          reported = wid->as_string();
        }
      } catch (const std::exception&) {
        // Not a stats document — treat as unhealthy below.
        reported = "\x01not-stats";
      }
      if (!reported.empty() && reported != id) {
        record_failure(id);
        continue;
      }
    }
    note_probe_success(id);
  }
}

void Router::send_error(int fd, const Diagnostic& diag) {
  metrics_.add(RouterMetric::kErrors);
  obs::Json doc = obs::Json::object();
  doc["error"] = diagnostic_to_json(diag);
  send_frame(fd, FrameKind::kErrorResponse, doc.dump(2));
}

std::string Router::stats_json() const {
  obs::Json doc = obs::Json::object();
  doc["schema"] = "sdfmem.routestats.v1";
  doc["connections"] = host_.connections();
  // Every registry metric, under its name without the prefix.
  constexpr std::string_view kPrefix = "service.route.";
  for (std::size_t m = 0; m < RouterMetric::kCount; ++m) {
    doc[kRouterMetrics[m].name.substr(kPrefix.size())] = metrics_.get(m);
  }
  obs::Json workers = obs::Json::object();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, st] : workers_) {
      obs::Json w = obs::Json::object();
      w["endpoint"] = st.cfg.endpoint.name();
      w["alive"] = st.breaker != BreakerState::kOpen;
      w["breaker"] = std::string(breaker_state_name(st.breaker));
      w["consecutive_failures"] =
          static_cast<std::int64_t>(st.consecutive_failures);
      w["peer_support"] = st.peer_support;
      w["forwarded"] = st.forwarded;
      w["failures"] = st.failures;
      workers[id] = std::move(w);
    }
  }
  doc["workers"] = std::move(workers);
  return doc.dump(2);
}

}  // namespace sdf::svc
