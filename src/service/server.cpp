#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>
#include <vector>

#include "obs/json_report.h"
#include "obs/trace.h"
#include "sdf/diagnostics.h"
#include "sdf/io.h"
#include "util/fault.h"
#include "util/hash.h"

namespace sdf::svc {
namespace {

obs::Json latency_json(const obs::HistogramSnapshot& h) {
  obs::Json out = obs::Json::object();
  out["count"] = h.count;
  out["sum_us"] = h.sum;
  out["p50_us"] = h.percentile(50);
  out["p95_us"] = h.percentile(95);
  out["p99_us"] = h.percentile(99);
  return out;
}

obs::Json map_json(const std::map<std::string, std::int64_t>& values) {
  obs::Json out = obs::Json::object();
  for (const auto& [name, value] : values) out[name] = value;
  return out;
}

std::vector<std::string> names_of(const qos::TenantRegistry& registry) {
  std::vector<std::string> names;
  for (const auto& entry : registry.tenants()) names.push_back(entry.first);
  return names;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      tenant_names_(names_of(options_.tenants)),
      metrics_(kServerMetrics, kTenantMetrics, tenant_names_),
      tenant_latency_(
          std::make_unique<obs::LogHistogram[]>(tenant_names_.size())),
      controller_(options_.controller),
      host_("serve",
            {[this](int fd, const Frame& frame) { handle_frame(fd, frame); },
             [this](int fd, const Diagnostic& diag) { send_error(fd, diag); },
             [this] { metrics_.add(ServerMetric::kBadFrames); },
             // Rate limits are lifted so a throttled tenant's queued work
             // cannot wedge the shutdown.
             [this] { admission_->drain(); }}) {
  if (options_.default_cost_ms <= 0) options_.default_cost_ms = 1;
  start_ = read();
  prev_tick_ = start_;
  last_tick_ = start_;
  trace_start_ = start_.at;
  if (!options_.cache_dir.empty()) {
    cache_.emplace(options_.cache_dir);
    if (options_.hot_tier_bytes > 0) hot_.emplace(options_.hot_tier_bytes);
  }
  const int workers = util::ThreadPool::resolve_jobs(options_.jobs);
  pool_ = std::make_unique<util::ThreadPool>(workers);
  qos::AdmissionController::Options aopts;
  aopts.slots = workers > 0 ? workers : 1;
  aopts.capacity_ms = static_cast<std::int64_t>(options_.queue_capacity) *
                      options_.default_cost_ms;
  admission_ = std::make_unique<qos::AdmissionController>(options_.tenants,
                                                          aopts);
  metrics_.set(ServerMetric::kControlCapped, admission_->capped_x1000());
  metrics_.set(ServerMetric::kControlDegraded, admission_->degraded_x1000());
}

Server::~Server() {
  stop();
  if (scrub_.joinable()) scrub_.join();
  if (control_.joinable()) control_.join();
}

void Server::start() {
  host_.listen(options_.socket_path, options_.tcp_port);
  if (cache_.has_value() && options_.scrub_interval_ms > 0) {
    scrub_ = std::thread([this] { scrub_loop(); });
  }
  if (!options_.record_path.empty()) {
    recorder_ = TraceWriter::create(options_.record_path);
    trace_start_ = std::chrono::steady_clock::now();
  }
  if (control_enabled()) {
    control_ = std::thread([this] { control_loop(); });
  }
}

void Server::run() {
  host_.run();
  pool_->wait();
  metrics_.export_to_session(read().values);
}

void Server::handle_frame(int fd, const Frame& frame) {
  switch (frame.kind) {
    case FrameKind::kPing:
      send_frame(fd, FrameKind::kPong, frame.payload);
      return;
    case FrameKind::kStatsRequest:
      send_frame(fd, FrameKind::kStatsResponse, stats_json());
      return;
    case FrameKind::kCompileRequest:
      handle_compile(fd, frame.payload);
      return;
    case FrameKind::kPeerLookupRequest:
      handle_peer_lookup(fd, frame.payload);
      return;
    case FrameKind::kPeerInsertRequest:
      handle_peer_insert(fd, frame.payload);
      return;
    default: {
      Diagnostic diag;
      diag.code = ErrorCode::kBadArgument;
      diag.message = "unexpected frame kind " +
                     std::to_string(static_cast<int>(frame.kind)) +
                     " (server accepts compile/ping/stats requests)";
      send_error(fd, diag);
      return;
    }
  }
}

void Server::note_queue_depth() {
  const std::int64_t depth = admission_->total_depth();
  metrics_.set(ServerMetric::kQueueDepth, depth);
  metrics_.raise(ServerMetric::kMaxQueueDepth, depth);
}

std::optional<std::size_t> Server::tenant_index(std::string_view name) const {
  const auto it =
      std::lower_bound(tenant_names_.begin(), tenant_names_.end(), name);
  if (it == tenant_names_.end() || *it != name) return std::nullopt;
  return static_cast<std::size_t>(it - tenant_names_.begin());
}

void Server::handle_compile(int fd, std::string_view payload) {
  const auto started = std::chrono::steady_clock::now();
  // Latency is attributed per tenant once the request names one; until
  // then (frame/JSON errors) it lands on `public`, and an unregistered
  // name gets none.
  std::string tenant{qos::kPublicTenant};
  std::optional<std::size_t> t = tenant_index(tenant);
  // Trace skeleton (docs/CONTROL.md); every return path below goes
  // through finish(), which appends it when recording is on.
  TraceRecord rec;
  rec.lane = fd;
  rec.outcome = "error";
  const auto finish = [&] {
    const std::int64_t us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    latency_.record(us);
    if (t.has_value()) tenant_latency_[*t].record(us);
    if (recorder_ != nullptr) {
      rec.tick_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        started - trace_start_)
                        .count();
      if (rec.tick_us < 0) rec.tick_us = 0;
      rec.tenant = tenant;
      rec.request.assign(payload.data(), payload.size());
      record_trace(rec);
    }
  };
  const auto fail = [&](const Diagnostic& diag) {
    send_error(fd, diag);
    finish();
  };
  metrics_.add(ServerMetric::kRequests);

  if (fault::enabled() && fault::should_fail("svc_worker_stall")) {
    // Injected stall: long enough to trip a chaos-tuned router deadline
    // (worker_timeout_ms well under 400 ms), short enough that test
    // teardown drains promptly.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }

  Result<CompileRequest> parsed = parse_compile_request(payload);
  if (!parsed.ok()) return fail(parsed.error());
  const CompileRequest& req = parsed.value();

  // Tenant resolution comes before any work — including cache reads —
  // so an unregistered tenant cannot consume anything but the lookup.
  if (!req.tenant.empty()) {
    tenant = req.tenant;
    t = tenant_index(tenant);
  }
  if (!t.has_value()) {
    metrics_.add(ServerMetric::kUnknownTenant);
    Diagnostic diag;
    diag.code = ErrorCode::kUnknownTenant;
    diag.message = "unknown tenant '" + tenant +
                   "': not in this server's registry "
                   "(--tenants-config, docs/TENANCY.md)";
    return fail(diag);
  }
  count_tenant(*t, TenantMetric::kRequests);
  rec.deadline_ms = req.deadline_ms;

  // Parse-free hit (docs/SERVICE.md): canonical text hashes to its own
  // key, so the hot entry holding that text serves it unparsed.
  const std::string fingerprint = option_fingerprint(req);
  std::uint64_t key = cache_key(req.graph_text, fingerprint);
  HotTier::TextHit hit;
  if (hot_.has_value()) hit = hot_->lookup_text(key, req.graph_text);
  Graph g;
  if (!hit.payload.has_value()) {
    try {
      g = parse_graph_text(req.graph_text);
    } catch (const std::exception& e) {
      return fail(diagnostic_from_exception(e));
    }
    const std::string canonical = write_graph_text(g);
    key = cache_key(canonical, fingerprint);
    hit.actors = static_cast<std::int64_t>(g.num_actors());
    // A match an injected fault voided has already read the hot tier.
    hit.payload = cache_fetch(key, !hit.unusable);
    if (hit.payload.has_value() && hot_.has_value()) {
      hot_->attach_text(key, canonical, hit.actors);
    }
  }
  if (recorder_ != nullptr) rec.key_hex = key_hex(key);
  rec.actors = hit.actors;

  if (hit.payload.has_value()) {
    metrics_.add(ServerMetric::kCacheHits);
    metrics_.add(ServerMetric::kResponsesOk);
    count_tenant(*t, TenantMetric::kCacheHits);
    rec.outcome = "hit";
    rec.full_fidelity = true;  // the cache only holds full fidelity
    if (recorder_ != nullptr) {
      rec.response_hash = key_hex(util::fnv1a64(*hit.payload));
    }
    send_frame(fd, FrameKind::kCompileResponse, *hit.payload);
    finish();
    return;
  }
  if (cache_.has_value()) {
    metrics_.add(ServerMetric::kCacheMisses);
    count_tenant(*t, TenantMetric::kCacheMisses);
  }

  // Admission cost: the request's own deadline when it has one; else the
  // measured per-size-bucket EWMA while the controller is on (falling
  // back to --cost-ms until the bucket has a sample), else --cost-ms.
  std::int64_t cost_ms;
  if (req.deadline_ms > 0) {
    cost_ms = req.deadline_ms;
  } else if (control_enabled()) {
    std::lock_guard<std::mutex> lock(mu_);
    cost_ms = cost_model_.estimate_ms(rec.actors, options_.default_cost_ms);
  } else {
    cost_ms = options_.default_cost_ms;
  }
  rec.cost_ms = cost_ms;
  const qos::AdmissionController::Ticket ticket =
      admission_->acquire(tenant, cost_ms);
  if (ticket.status !=
      qos::AdmissionController::Ticket::Status::kGranted) {
    rec.outcome = "overloaded";
    metrics_.add(ServerMetric::kOverloaded);
    count_tenant(*t, TenantMetric::kOverloaded);
    Diagnostic diag;
    diag.code = ErrorCode::kOverloaded;
    diag.message =
        "tenant '" + tenant + "' overloaded: backlog would exceed its " +
        std::to_string(ticket.share_ms) + " ms share of capacity (queue " +
        std::to_string(options_.queue_capacity) + " x " +
        std::to_string(options_.default_cost_ms) + " ms); retry later";
    return fail(diag);
  }
  note_queue_depth();
  if (ticket.queue_wait_us > 0) {
    count_tenant(*t, TenantMetric::kThrottleWaitUs, ticket.queue_wait_us);
  }

  // Apply the tenant's load-shed tier, if any, without touching the
  // request's own option fingerprint — shed responses are served but
  // never cached.
  CompileOptions effective = req.options;
  const bool shedded = ctl::shed_to_tier(effective, ticket.tier);
  if (shedded) {
    metrics_.add(ServerMetric::kShedDegraded);
    count_tenant(*t, TenantMetric::kShedDegraded);
  }

  // Merge the request budget under the server ceiling: the tighter of
  // the two nonzero values wins on each axis.
  ResourceBudget budget = options_.budget;
  if (req.deadline_ms > 0 &&
      (budget.deadline_ms == 0 || req.deadline_ms < budget.deadline_ms)) {
    budget.deadline_ms = req.deadline_ms;
  }
  if (req.dp_mem_bytes > 0 &&
      (budget.dp_mem_bytes == 0 ||
       req.dp_mem_bytes < budget.dp_mem_bytes)) {
    budget.dp_mem_bytes = req.dp_mem_bytes;
  }
  const bool governed = budget.deadline_ms > 0 || budget.dp_mem_bytes > 0;

  std::int64_t wall_ns = 0;
  const auto run_compile = [&]() -> Result<CompileResult> {
    const obs::Span span("service.compile");
    // Measured wall time feeds the admission cost model; it brackets the
    // compile only, not queueing or response framing.
    const auto t0 = std::chrono::steady_clock::now();
    Result<CompileResult> result = [&] {
      if (!governed) return compile_checked(g, effective);
      // The scope is per thread: concurrent budgeted compiles each see
      // only their own governor.
      ResourceGovernor governor(budget);
      const ResourceGovernor::Scope scope(governor);
      return compile_checked(g, effective);
    }();
    wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    return result;
  };

  std::optional<Result<CompileResult>> outcome;
  if (pool_->threads() == 0) {
    // Worker spawning failed (pool_spawn fault / exhausted host): degrade
    // to compiling on the connection thread rather than deadlocking.
    outcome.emplace(run_compile());
  } else {
    std::promise<void> done;
    pool_->submit([&] {
      outcome.emplace(run_compile());
      done.set_value();
    });
    done.get_future().wait();
  }
  admission_->release(ticket);
  note_queue_depth();
  rec.wall_ns = wall_ns;
  {
    // The model learns whatever compile actually ran — degraded tiers
    // included — which is exactly what the next admission decision for a
    // similarly-sized graph will cost under the same load.
    std::lock_guard<std::mutex> lock(mu_);
    cost_model_.record(rec.actors, wall_ns);
  }
  metrics_.add(ServerMetric::kCostModelSamples);

  if (!outcome->ok()) return fail(outcome->error());
  const CompileResult& res = outcome->value();

  obs::Json doc = obs::Json::object();
  doc["schema"] = "sdfmem.telemetry.v1";
  doc["tool"] = "sdfmemd";
  obs::Json graph = obs::Json::object();
  graph["name"] = g.name();
  graph["actors"] = static_cast<std::int64_t>(g.num_actors());
  graph["edges"] = static_cast<std::int64_t>(g.num_edges());
  doc["graph"] = std::move(graph);
  obs::Json request = obs::Json::object();
  request["key"] = key_hex(key);
  request["options"] = fingerprint;
  doc["request"] = std::move(request);
  obs::Json results = obs::Json::object();
  results["schedule"] = res.schedule.to_string(g);
  results["nonshared_bufmem"] = res.nonshared_bufmem;
  results["dp_estimate"] = res.dp_estimate;
  results["shared_size"] = res.shared_size;
  results["bmlb"] = res.bmlb;
  results["mcw_optimistic"] = res.mcw_optimistic;
  results["mcw_pessimistic"] = res.mcw_pessimistic;
  results["order"] = std::string(order_name(effective.order));
  results["optimizer"] =
      std::string(optimizer_name(res.effective_optimizer));
  results["requested_optimizer"] =
      std::string(optimizer_name(req.options.optimizer));
  if (!res.degradation_path().empty()) {
    results["degraded_from"] = res.degradation_path();
  }
  if (res.order_degraded) results["order_degraded"] = true;
  if (shedded) results["load_shed"] = true;
  doc["results"] = std::move(results);
  const std::string response = doc.dump(2);

  // Only full-fidelity compiles enter the cache: a shed- or
  // budget-degraded result depends on transient load and must never be
  // replayed as the canonical answer for this key.
  const bool full_fidelity =
      !shedded && res.degradation_path().empty() && !res.order_degraded;
  const bool cacheable = cache_.has_value() && full_fidelity;
  rec.outcome = "ok";
  rec.shed = shedded;
  rec.full_fidelity = full_fidelity;
  if (full_fidelity && recorder_ != nullptr) {
    rec.response_hash = key_hex(util::fnv1a64(response));
  }
  if (cacheable) {
    // Cache-bytes quota (docs/TENANCY.md): a tenant over its insert
    // quota stops adding entries but keeps reading — the cache is
    // content-addressed and shared, so hits on entries other tenants
    // inserted still apply.
    const auto bytes = static_cast<std::int64_t>(response.size());
    const std::int64_t quota =
        options_.tenants.find(tenant)->cache_quota_bytes;
    const bool quota_ok =
        quota <= 0 ||
        metrics_.get(metrics_.slot(*t, TenantMetric::kCacheBytes)) + bytes <=
            quota;
    if (!quota_ok) {
      count_tenant(*t, TenantMetric::kQuotaDenied);
    } else if (cache_store(key, response)) {
      count_tenant(*t, TenantMetric::kCacheInserts);
      count_tenant(*t, TenantMetric::kCacheBytes, bytes);
    }
  }

  metrics_.add(ServerMetric::kResponsesOk);
  send_frame(fd, FrameKind::kCompileResponse, response);
  finish();
}

std::optional<std::string> Server::cache_fetch(std::uint64_t key,
                                               bool read_hot) {
  if (hot_.has_value() && read_hot) {
    if (std::optional<std::string> hit = hot_->lookup(key)) return hit;
  }
  if (!cache_.has_value()) return std::nullopt;
  std::optional<std::string> hit = cache_->lookup(key);
  // A verified disk read warms the hot tier, so the next read for this
  // key never touches the filesystem. Bytes are identical by
  // construction: the hot tier only ever holds what the disk tier
  // returned (or what was just durably inserted).
  if (hit.has_value() && hot_.has_value()) hot_->insert(key, *hit);
  return hit;
}

bool Server::cache_store(std::uint64_t key, std::string_view payload) {
  try {
    if (cache_.has_value()) cache_->insert(key, payload);
  } catch (const std::exception&) {
    // A failed durable insert (disk full, injected svc_cache_write)
    // degrades to an uncached response — the client still gets its
    // bytes; only this key's next request pays a recompile. The hot
    // tier is skipped: it must only hold disk-vouched bytes.
    metrics_.add(ServerMetric::kCacheWriteFailures);
    return false;
  }
  if (hot_.has_value()) hot_->insert(key, payload);
  return true;
}

void Server::scrub_loop() {
  while (host_.wait_unless_stopped(options_.scrub_interval_ms)) {
    const std::vector<std::uint64_t> quarantined = cache_->scrub_once();
    // A quarantined key's hot-tier copy is dropped too: the disk tier no
    // longer vouches for those bytes, so the next read must be a clean
    // miss -> recompile, not a resident stale copy.
    if (hot_.has_value()) {
      for (const std::uint64_t key : quarantined) hot_->erase(key);
    }
  }
}

void Server::record_trace(const TraceRecord& record) {
  try {
    recorder_->append(record);
  } catch (const std::exception&) {
    // Recording is observability, not correctness: a full disk must not
    // fail the request it was describing.
    metrics_.add(ServerMetric::kTraceErrors);
  }
}

void Server::control_loop() {
  while (host_.wait_unless_stopped(options_.control_interval_ms)) {
    control_tick();
  }
}

Server::Reading Server::read() const {
  Reading r{std::chrono::steady_clock::now(), metrics_.values(),
            latency_.snapshot()};
  std::vector<std::int64_t>& v = r.values;
  if (cache_.has_value()) {
    const CacheStats cs = cache_->stats();
    v[ServerMetric::kCacheInserts] = cs.inserts;
    v[ServerMetric::kCacheCorrupt] = cs.corrupt;
    v[ServerMetric::kScrubPasses] = cs.scrub_passes;
    v[ServerMetric::kScrubChecked] = cs.scrub_checked;
    v[ServerMetric::kScrubQuarantined] = cs.scrub_quarantined;
  }
  if (hot_.has_value()) {
    const HotTierStats hs = hot_->stats();
    v[ServerMetric::kHotHits] = hs.hits;
    v[ServerMetric::kHotMisses] = hs.misses;
    v[ServerMetric::kHotInserts] = hs.inserts;
    v[ServerMetric::kHotEvictions] = hs.evictions;
    v[ServerMetric::kHotBytes] = hs.bytes;
  }
  if (recorder_ != nullptr) {
    v[ServerMetric::kTraceRecords] = recorder_->records();
  }
  return r;
}

std::pair<ctl::IntervalMetrics, obs::Json> Server::window(
    const Reading& later, const Reading& earlier) const {
  const auto delta = [&](std::size_t slot) {
    return later.values[slot] - earlier.values[slot];
  };
  const obs::HistogramSnapshot latency =
      later.latency.delta_since(earlier.latency);
  ctl::IntervalMetrics m;
  m.requests = delta(ServerMetric::kRequests);
  m.overloaded = delta(ServerMetric::kOverloaded);
  m.shed_degraded = delta(ServerMetric::kShedDegraded);
  m.cache_hits = delta(ServerMetric::kCacheHits);
  m.p95_us = latency.percentile(95);
  for (std::size_t t = 0; t < tenant_names_.size(); ++t) {
    const std::string& name = tenant_names_[t];
    if (const auto d = delta(metrics_.slot(t, TenantMetric::kRequests))) {
      m.tenant_requests[name] = d;
    }
    if (const auto d = delta(metrics_.slot(t, TenantMetric::kOverloaded))) {
      m.tenant_overloaded[name] = d;
    }
  }
  obs::Json w = obs::Json::object();
  w["window_ms"] = static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(later.at -
                                                            earlier.at)
          .count());
  w["requests"] = m.requests;
  w["responses_ok"] = delta(ServerMetric::kResponsesOk);
  w["cache_hits"] = m.cache_hits;
  w["cache_misses"] = delta(ServerMetric::kCacheMisses);
  w["overloaded"] = m.overloaded;
  w["shed_degraded"] = m.shed_degraded;
  w["errors"] = delta(ServerMetric::kErrors);
  w["latency"] = latency_json(latency);
  w["tenant_requests"] = map_json(m.tenant_requests);
  w["tenant_overloaded"] = map_json(m.tenant_overloaded);
  w["counters"] =
      map_json(metrics_.counter_deltas(later.values, earlier.values));
  return {std::move(m), std::move(w)};
}

ctl::Decision Server::control_tick() {
  ctl::Decision decision;
  {
    std::lock_guard<std::mutex> lock(mu_);
    prev_tick_ = std::move(last_tick_);
    last_tick_ = read();
    decision = controller_.tick(window(last_tick_, prev_tick_).first);
    last_decision_ = decision;
    // The controller counts its own ticks; the registry mirrors them.
    metrics_.set(ServerMetric::kControlTicks, controller_.ticks());
    metrics_.set(ServerMetric::kControlAdjustments, controller_.adjustments());
    metrics_.set(ServerMetric::kControlClamped, controller_.clamped());
  }
  // Apply outside mu_: the admission controller has its own lock and
  // must never nest inside the controller mutex.
  admission_->set_trip_points(decision.knobs.capped_x1000,
                              decision.knobs.degraded_x1000);
  for (const auto& [name, settings] : admission_->registry().tenants()) {
    const auto it = decision.knobs.boost_x1000.find(name);
    admission_->set_share_boost(
        name, it == decision.knobs.boost_x1000.end() ? 1000 : it->second);
  }
  metrics_.set(ServerMetric::kControlCapped, decision.knobs.capped_x1000);
  metrics_.set(ServerMetric::kControlDegraded,
               decision.knobs.degraded_x1000);
  metrics_.set(ServerMetric::kControlUtility, decision.utility_x1000);
  metrics_.set(ServerMetric::kControlShed, decision.shed_x1000);
  return decision;
}

// Fleet peering (docs/SERVICE.md "Fleet mode"): the router asks this
// worker for cached bytes by key. Peer lookups must stay cheap — they
// are on the router's critical path for every shard hit — so they go
// straight to the cache tiers and never touch admission or tenancy (the
// cached document is tenant-independent by the cache-key contract).
void Server::handle_peer_lookup(int fd, std::string_view payload) {
  const Result<std::uint64_t> key = parse_peer_lookup(payload);
  if (!key.ok()) {
    send_error(fd, key.error());
    return;
  }
  metrics_.add(ServerMetric::kPeerLookups);
  std::optional<std::string> hit = cache_fetch(key.value());
  if (hit.has_value()) metrics_.add(ServerMetric::kPeerLookupHits);
  // Miss = empty payload; cached documents are never empty.
  send_frame(fd, FrameKind::kPeerLookupResponse,
             hit.has_value() ? *hit : std::string_view{});
}

// Warm insert: the router found the bytes on another worker and hands
// them to this shard owner. Only ever called with bytes that came out of
// a peer's verified cache, so full-fidelity by the cache contract; the
// insert is durable (disk tier) before the ack.
void Server::handle_peer_insert(int fd, std::string_view payload) {
  const Result<PeerInsert> parsed = parse_peer_insert(payload);
  if (!parsed.ok()) {
    send_error(fd, parsed.error());
    return;
  }
  if (!cache_.has_value()) {
    Diagnostic diag;
    diag.code = ErrorCode::kBadArgument;
    diag.message = "peer insert: this worker runs without a cache";
    send_error(fd, diag);
    return;
  }
  if (!cache_store(parsed.value().key, parsed.value().object)) {
    // The router must not count a warm that is not durable here.
    Diagnostic diag;
    diag.code = ErrorCode::kIo;
    diag.message = "peer insert: durable cache write failed";
    send_error(fd, diag);
    return;
  }
  metrics_.add(ServerMetric::kPeerInserts);
  send_frame(fd, FrameKind::kPeerInsertResponse, "");
}

void Server::send_error(int fd, const Diagnostic& diag) {
  metrics_.add(ServerMetric::kErrors);
  obs::Json doc = obs::Json::object();
  doc["error"] = diagnostic_to_json(diag);
  send_frame(fd, FrameKind::kErrorResponse, doc.dump(2));
}

std::string Server::stats_json() const {
  const Reading r = read();
  const auto get = [&r](std::size_t slot) { return r.values[slot]; };
  obs::Json doc = obs::Json::object();
  doc["schema"] = "sdfmem.stats.v1";
  if (!options_.worker_id.empty()) doc["worker_id"] = options_.worker_id;
  doc["requests"] = get(ServerMetric::kRequests);
  doc["responses_ok"] = get(ServerMetric::kResponsesOk);
  doc["errors"] = get(ServerMetric::kErrors);
  doc["overloaded"] = get(ServerMetric::kOverloaded);
  doc["shed_degraded"] = get(ServerMetric::kShedDegraded);
  doc["bad_frames"] = get(ServerMetric::kBadFrames);
  doc["unknown_tenant"] = get(ServerMetric::kUnknownTenant);
  doc["connections"] = host_.connections();
  doc["queue_depth"] = admission_->total_depth();
  doc["max_queue_depth"] = get(ServerMetric::kMaxQueueDepth);
  obs::Json cache = obs::Json::object();
  if (cache_.has_value()) {
    const CacheStats cs = cache_->stats();
    const HotTierStats hs =
        hot_.has_value() ? hot_->stats() : HotTierStats{};
    // "hits" keeps its pre-fleet meaning — served from cache, whichever
    // tier — so dashboards and the CI smoke asserts survive the split.
    cache["hits"] = cs.hits + hs.hits;
    cache["misses"] = cs.misses;
    cache["inserts"] = cs.inserts;
    cache["corrupt"] = cs.corrupt;
    cache["entries"] = cs.entries;
    cache["hot_hits"] = hs.hits;
    cache["hot_misses"] = hs.misses;
    cache["hot_inserts"] = hs.inserts;
    cache["hot_evictions"] = hs.evictions;
    cache["hot_bytes"] = hs.bytes;
    cache["hot_entries"] = hs.entries;
    cache["scrub_passes"] = cs.scrub_passes;
    cache["scrub_checked"] = cs.scrub_checked;
    cache["scrub_quarantined"] = cs.scrub_quarantined;
    cache["write_failures"] = get(ServerMetric::kCacheWriteFailures);
  }
  doc["cache"] = std::move(cache);
  obs::Json peer = obs::Json::object();
  peer["lookups"] = get(ServerMetric::kPeerLookups);
  peer["lookup_hits"] = get(ServerMetric::kPeerLookupHits);
  peer["inserts"] = get(ServerMetric::kPeerInserts);
  doc["peer"] = std::move(peer);
  doc["latency"] = latency_json(r.latency);
  // Every registered tenant appears, traffic or not, so dashboards and
  // the CI smoke assertions can key on names unconditionally. Its
  // counters are the kTenantMetrics slots, keyed by name suffix.
  constexpr std::string_view kTenantPrefix = "service.tenant.<t>.";
  obs::Json tenants = obs::Json::object();
  for (std::size_t i = 0; i < tenant_names_.size(); ++i) {
    const std::string& name = tenant_names_[i];
    const qos::TenantSettings& settings = *options_.tenants.find(name);
    obs::Json t = obs::Json::object();
    t["weight"] = settings.weight;
    t["share_ms"] = admission_->share_ms(name);
    t["backlog_ms"] = admission_->backlog_ms(name);
    t["rate_ms_per_sec"] = settings.rate_ms_per_sec;
    t["cache_quota_bytes"] = settings.cache_quota_bytes;
    for (std::size_t m = 0; m < TenantMetric::kCount; ++m) {
      t[kTenantMetrics[m].name.substr(kTenantPrefix.size())] =
          get(metrics_.slot(i, m));
    }
    t["latency"] = latency_json(tenant_latency_[i].snapshot());
    tenants[name] = std::move(t);
  }
  doc["tenants"] = std::move(tenants);
  // The monitoring window plus the sdfmem.controlstats.v1 object
  // (docs/CONTROL.md). A running control loop owns the window cadence,
  // and stats reports its last completed interval; otherwise the window
  // covers the time since start. Either way this read changes nothing.
  ctl::Decision last;
  ctl::CostModel cost_model;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doc["window"] = control_enabled() ? window(last_tick_, prev_tick_).second
                                      : window(r, start_).second;
    last = last_decision_;
    cost_model = cost_model_;
  }
  obs::Json control = obs::Json::object();
  control["schema"] = "sdfmem.controlstats.v1";
  control["enabled"] = control_enabled();
  control["interval_ms"] = options_.control_interval_ms;
  control["ticks"] = metrics_.get(ServerMetric::kControlTicks);
  control["adjustments"] = metrics_.get(ServerMetric::kControlAdjustments);
  control["clamped"] = metrics_.get(ServerMetric::kControlClamped);
  // Knob readbacks come from admission itself — what is actually being
  // enforced, not what the controller last asked for.
  control["capped_x1000"] = admission_->capped_x1000();
  control["degraded_x1000"] = admission_->degraded_x1000();
  obs::Json boosts = obs::Json::object();
  for (const auto& [name, settings] : admission_->registry().tenants()) {
    const std::int64_t boost = admission_->share_boost_x1000(name);
    if (boost != 1000) boosts[name] = boost;
  }
  control["boosts_x1000"] = std::move(boosts);
  obs::Json last_decision = obs::Json::object();
  last_decision["reason"] = last.reason.empty() ? "none" : last.reason;
  last_decision["shed_x1000"] = last.shed_x1000;
  last_decision["degraded_x1000"] = last.degraded_x1000;
  last_decision["utility_x1000"] = last.utility_x1000;
  last_decision["adjustments"] = last.adjustments;
  last_decision["clamped"] = last.clamped;
  control["last_decision"] = std::move(last_decision);
  obs::Json cost = obs::Json::object();
  cost["source"] = control_enabled() ? "ewma" : "static";
  cost["static_cost_ms"] = options_.default_cost_ms;
  obs::Json cost_buckets = obs::Json::array();
  for (int b = 0; b < ctl::kCostBuckets; ++b) {
    const ctl::CostBucket& bucket = cost_model.buckets()[b];
    obs::Json entry = obs::Json::object();
    entry["min_actors"] = ctl::cost_bucket_floor(b);
    entry["samples"] = bucket.samples;
    entry["ewma_ns"] = bucket.ewma_ns;
    entry["estimate_ms"] = cost_model.estimate_ms(ctl::cost_bucket_floor(b),
                                                  options_.default_cost_ms);
    cost_buckets.push_back(std::move(entry));
  }
  cost["buckets"] = std::move(cost_buckets);
  control["cost_model"] = std::move(cost);
  obs::Json recording = obs::Json::object();
  recording["active"] = recorder_ != nullptr;
  if (recorder_ != nullptr) {
    recording["path"] = recorder_->path();
    recording["records"] = recorder_->records();
  }
  recording["errors"] = metrics_.get(ServerMetric::kTraceErrors);
  control["recording"] = std::move(recording);
  doc["control"] = std::move(control);
  return doc.dump(2);
}

}  // namespace sdf::svc
