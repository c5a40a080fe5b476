// Adaptive control plane for sdfmemd (docs/CONTROL.md).
//
// Three pieces, in dependency order:
//
//   * CostModel — per-graph-size-bucket integer EWMA of measured compile
//     wall time. The static `--cost-ms` admission estimate is usually
//     wrong by orders of magnitude (it guesses; the model measures), and
//     an over-estimate makes admission shed work the daemon could easily
//     serve. The model is always recorded so `stats` can show the drift;
//     it replaces the static estimate only while the controller is on.
//
//   * Controller — a pure, deterministic, integer-arithmetic feedback
//     controller ticked once per monitoring interval with that
//     interval's delta metrics. It computes a utility score and nudges
//     the degradation-ladder trip points and per-tenant share boosts
//     within hard clamps, with consecutive-signal hysteresis so it never
//     flaps. Same metrics sequence in, same decisions out — on any
//     machine, at any `--jobs`: all knobs and thresholds live in exact
//     milli-units (x1000 integers), never floats.
//
//   * simulate_trace — a virtual-time replay of a recorded trace
//     (service/trace.h) through a faithful model of the admission path
//     (the real qos::WeightedFairQueue, per-tenant shares, trip tiers,
//     the result cache's full-fidelity-only rule, and measured per-tier
//     compile times). It is how controller policies are evaluated:
//     byte-identical decision logs across runs by construction, because
//     nothing in it reads a clock or a thread schedule.
//
// Control law (the exact rules tests pin, see docs/CONTROL.md):
//
//   relief   — shed rate above shed_hi for `hysteresis` consecutive
//              intervals: step both trip points DOWN (degrade earlier;
//              cheaper tiers drain backlog faster, so less is shed).
//   recover  — shed rate below shed_lo AND degraded fraction above
//              degraded_hi for `hysteresis` intervals: step both trip
//              points UP (serve full fidelity again).
//   boost    — a tenant shedding above shed_hi while the rest of the
//              system sheds below shed_lo earns a share boost step;
//              the boost decays a step once the tenant calms down.
//   quiet    — intervals with fewer than min_requests reset every
//              streak; near-idle noise must not steer the knobs.
//
// Every step is clamped (Clamps below); a step that hits its clamp is
// counted but not applied beyond it. Hysteresis restarts after each
// applied step, so the fastest possible knob movement is one step per
// `hysteresis` intervals.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pipeline/compile.h"
#include "service/qos.h"
#include "service/trace.h"

namespace sdf::svc::ctl {

/// Load shedding (docs/TENANCY.md): caps `options` to a pressure tier's
/// rung of the degradation ladder. kCapped allows at most kDppo;
/// kDegraded forces kFlat and the topological order. True when the
/// options changed. The server sheds with it, and the trace simulator
/// uses it to tell which requests a tier degrades.
bool shed_to_tier(CompileOptions& options,
                  qos::AdmissionController::PressureTier tier) noexcept;

// ---------------------------------------------------------------------------
// Cost model

/// Graphs are bucketed by floor(log2(actors)): 1, 2-3, 4-7, 8-15, 16-31,
/// 32-63, >= 64. Compile cost is superlinear in actor count, so one
/// global EWMA would let a stream of tiny graphs talk admission into
/// under-charging a giant one.
inline constexpr int kCostBuckets = 7;

[[nodiscard]] int cost_bucket(std::int64_t actors) noexcept;

/// Lower bound (inclusive) of actor counts in bucket `b` — for stats.
[[nodiscard]] std::int64_t cost_bucket_floor(int b) noexcept;

struct CostBucket {
  std::int64_t samples = 0;
  std::int64_t ewma_ns = 0;
};

/// Integer EWMA with alpha = 1/8: ewma += (sample - ewma) / 8. The first
/// sample seeds the average exactly. Not thread-safe; the server guards
/// it with its stats mutex.
class CostModel {
 public:
  void record(std::int64_t actors, std::int64_t wall_ns) noexcept;

  /// Admission cost estimate in whole ms (ceil, >= 1) for a graph of
  /// `actors`; falls back to `fallback_ms` while the bucket has no
  /// samples. Clamped to [1, kEstimateCapMs] so a corrupt sample can
  /// never wedge admission shut.
  [[nodiscard]] std::int64_t estimate_ms(std::int64_t actors,
                                         std::int64_t fallback_ms) const
      noexcept;

  [[nodiscard]] const std::array<CostBucket, kCostBuckets>& buckets() const
      noexcept {
    return buckets_;
  }

  static constexpr std::int64_t kEstimateCapMs = 60'000;

 private:
  std::array<CostBucket, kCostBuckets> buckets_{};
};

// ---------------------------------------------------------------------------
// Controller

/// Hard safety clamps, in milli-units. The controller can never push a
/// knob outside these no matter what the metrics say.
struct Clamps {
  std::int64_t capped_min_x1000 = 200;    ///< trip point floor: 0.20
  std::int64_t capped_max_x1000 = 900;    ///< ceiling: 0.90
  std::int64_t degraded_min_x1000 = 300;  ///< 0.30
  std::int64_t degraded_max_x1000 = 950;  ///< 0.95
  std::int64_t boost_min_x1000 = 1000;    ///< boosts only ever relax a share
  std::int64_t boost_max_x1000 = 2000;    ///< at most 2x the weighted share
};

struct ControllerConfig {
  Clamps clamps;
  std::int64_t shed_hi_x1000 = 80;       ///< relief above 8% shed
  std::int64_t shed_lo_x1000 = 20;       ///< healthy below 2% shed
  std::int64_t degraded_hi_x1000 = 250;  ///< recover fidelity above 25%
  int hysteresis = 2;                    ///< consecutive intervals per step
  std::int64_t trip_step_x1000 = 50;     ///< trip points move 0.05 per step
  std::int64_t boost_step_x1000 = 250;   ///< boosts move 0.25 per step
  std::int64_t min_requests = 4;         ///< below this a window is "quiet"
};

/// One monitoring interval's delta metrics (never lifetime totals).
struct IntervalMetrics {
  std::int64_t requests = 0;       ///< compile requests seen (incl. hits)
  std::int64_t overloaded = 0;     ///< typed sheds
  std::int64_t shed_degraded = 0;  ///< served at a load-capped tier
  std::int64_t cache_hits = 0;
  std::int64_t p95_us = 0;  ///< window p95 latency (reporting only)
  /// Per-tenant request/shed deltas; map order is the deterministic
  /// iteration order for boost decisions.
  std::map<std::string, std::int64_t> tenant_requests;
  std::map<std::string, std::int64_t> tenant_overloaded;
};

/// The knobs the controller owns. Trip points are fractions of a
/// tenant's backlog share (x1000); defaults reproduce the historical
/// hard-coded 1/2 and 3/4 ladder exactly.
struct Knobs {
  std::int64_t capped_x1000 = 500;
  std::int64_t degraded_x1000 = 750;
  /// Per-tenant share multipliers (x1000); absent means 1000 (1.0x).
  std::map<std::string, std::int64_t> boost_x1000;
};

struct Decision {
  Knobs knobs;           ///< knob state after this tick
  int adjustments = 0;   ///< knob changes applied this tick
  int clamped = 0;       ///< steps that hit a clamp
  std::string reason;    ///< "relief" | "recover" | "boost" | "hold" | "quiet"
  std::int64_t shed_x1000 = 0;      ///< interval shed rate
  std::int64_t degraded_x1000 = 0;  ///< interval degraded fraction
  std::int64_t utility_x1000 = 0;   ///< interval utility score
};

/// Interval utility, x1000 per request: a full-fidelity response scores
/// 1.0, a degraded one 0.5, a shed request -2.0. The thresholds in the
/// control law are the knobs' approximation of climbing this score; it
/// is emitted every tick so operators and the replay harness can compare
/// controller variants by one number.
[[nodiscard]] std::int64_t utility_x1000(const IntervalMetrics& m) noexcept;

class Controller {
 public:
  explicit Controller(ControllerConfig config = {});

  /// One monitoring interval. Pure: no clocks, no randomness, integer
  /// arithmetic only — identical metric sequences yield identical
  /// decision sequences.
  Decision tick(const IntervalMetrics& metrics);

  [[nodiscard]] const Knobs& knobs() const noexcept { return knobs_; }
  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::int64_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] std::int64_t adjustments() const noexcept {
    return adjustments_;
  }
  [[nodiscard]] std::int64_t clamped() const noexcept { return clamped_; }

  /// Canonical one-line rendering of a decision — the unit the
  /// determinism tests and the replay harness compare byte-for-byte.
  [[nodiscard]] static std::string decision_line(std::int64_t tick_index,
                                                 const IntervalMetrics& m,
                                                 const Decision& d);

 private:
  ControllerConfig config_;
  Knobs knobs_;
  int relief_streak_ = 0;
  int recover_streak_ = 0;
  std::map<std::string, int> starve_streak_;
  std::map<std::string, int> calm_streak_;
  std::int64_t ticks_ = 0;
  std::int64_t adjustments_ = 0;
  std::int64_t clamped_ = 0;
};

// ---------------------------------------------------------------------------
// Virtual-time trace simulation

struct SimOptions {
  int slots = 2;                       ///< concurrent compile slots
  int queue_capacity = 16;             ///< capacity = this * default_cost_ms
  std::int64_t default_cost_ms = 1000;
  /// Arrival-time divisor (1x/2x/4x replay compression). Service times
  /// are real compute and are NOT compressed.
  int compression = 1;
  bool controller_on = false;
  std::int64_t control_interval_ms = 250;
  ControllerConfig controller;
  qos::TenantRegistry tenants;
};

struct SimTenantTotals {
  std::int64_t requests = 0;
  std::int64_t cache_hits = 0;
  std::int64_t overloaded = 0;
  std::int64_t shed_degraded = 0;
  std::int64_t p50_us = 0;  ///< over served responses
  std::int64_t p95_us = 0;
};

struct SimIntervalRow {
  std::int64_t end_ms = 0;  ///< virtual interval end
  std::int64_t requests = 0;
  std::int64_t overloaded = 0;
  std::int64_t shed_degraded = 0;
  std::int64_t cache_hits = 0;
  std::int64_t p95_us = 0;
};

struct SimResult {
  std::int64_t requests = 0;
  std::int64_t cache_hits = 0;
  std::int64_t overloaded = 0;
  std::int64_t shed_degraded = 0;
  std::int64_t served_full = 0;
  std::int64_t p50_us = 0;
  std::int64_t p95_us = 0;
  std::map<std::string, SimTenantTotals> tenants;
  std::vector<SimIntervalRow> intervals;
  /// One Controller::decision_line per tick (empty when controller_off);
  /// byte-identical across runs of the same trace + options.
  std::vector<std::string> decisions;
  Knobs final_knobs;
};

/// Deterministically replays `trace` through the admission/QoS model in
/// virtual time. Uses the real WeightedFairQueue for scheduling order,
/// mirrors AdmissionController's share/trip arithmetic (including the
/// controller's knobs as they move), models the full-fidelity-only cache
/// rule, and advances time only via recorded arrival ticks and measured
/// wall-ns — no clocks, threads, or randomness anywhere.
[[nodiscard]] SimResult simulate_trace(const Trace& trace,
                                       const SimOptions& options);

}  // namespace sdf::svc::ctl
