// The adaptive control plane (src/service/control.h, docs/CONTROL.md):
// the per-bucket cost model's integer EWMA, the feedback controller's
// exact control law (hysteresis, clamps, boost grant/decay, quiet
// resets, ladder ordering), the canonical decision-line rendering the
// determinism gate compares byte-for-byte, trace record round-trips and
// the strict read_trace() rejection rules, the reset-on-snapshot
// telemetry windows, and the virtual-time trace simulator's determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/control.h"
#include "service/protocol.h"
#include "service/qos.h"
#include "service/server.h"
#include "service/trace.h"
#include "util/journal.h"
#include "util/status.h"

namespace sdf::svc::ctl {
namespace {

namespace fs = std::filesystem;

// ----------------------------------------------------------- cost model

TEST(CostModel, BucketsAreFloorLog2OfActorCount) {
  EXPECT_EQ(cost_bucket(0), 0);
  EXPECT_EQ(cost_bucket(1), 0);
  EXPECT_EQ(cost_bucket(2), 1);
  EXPECT_EQ(cost_bucket(3), 1);
  EXPECT_EQ(cost_bucket(4), 2);
  EXPECT_EQ(cost_bucket(7), 2);
  EXPECT_EQ(cost_bucket(8), 3);
  EXPECT_EQ(cost_bucket(15), 3);
  EXPECT_EQ(cost_bucket(16), 4);
  EXPECT_EQ(cost_bucket(31), 4);
  EXPECT_EQ(cost_bucket(32), 5);
  EXPECT_EQ(cost_bucket(63), 5);
  EXPECT_EQ(cost_bucket(64), 6);
  EXPECT_EQ(cost_bucket(1'000'000), 6);  // everything huge shares the top

  EXPECT_EQ(cost_bucket_floor(0), 1);
  EXPECT_EQ(cost_bucket_floor(3), 8);
  EXPECT_EQ(cost_bucket_floor(6), 64);
}

TEST(CostModel, FirstSampleSeedsTheAverageExactly) {
  CostModel model;
  model.record(10, 8'000'000);  // bucket 3 (8-15 actors)
  EXPECT_EQ(model.buckets()[3].samples, 1);
  EXPECT_EQ(model.buckets()[3].ewma_ns, 8'000'000);
  EXPECT_EQ(model.estimate_ms(10, 999), 8);
}

TEST(CostModel, EwmaAlphaIsExactlyOneEighth) {
  CostModel model;
  model.record(10, 8'000'000);
  model.record(12, 16'000'000);  // same bucket: 8e6 + (16e6-8e6)/8
  EXPECT_EQ(model.buckets()[3].ewma_ns, 9'000'000);
  model.record(15, 1'000'000);  // 9e6 + (1e6-9e6)/8 = 8e6
  EXPECT_EQ(model.buckets()[3].ewma_ns, 8'000'000);
  EXPECT_EQ(model.buckets()[3].samples, 3);
}

TEST(CostModel, BucketsAreIndependent) {
  CostModel model;
  model.record(2, 1'000'000);       // bucket 1
  model.record(100, 500'000'000);   // bucket 6
  EXPECT_EQ(model.estimate_ms(3, 999), 1);    // bucket 1: 1ms
  EXPECT_EQ(model.estimate_ms(200, 999), 500);  // bucket 6: 500ms
  EXPECT_EQ(model.estimate_ms(8, 999), 999);  // bucket 3 empty: fallback
}

TEST(CostModel, EstimateCeilsClampsAndFallsBack) {
  CostModel model;
  EXPECT_EQ(model.estimate_ms(4, 123), 123);  // empty bucket -> fallback
  model.record(4, 1'500'001);
  EXPECT_EQ(model.estimate_ms(4, 123), 2);  // ceil(1.500001ms)
  CostModel tiny;
  tiny.record(4, 10);  // 10ns rounds up to the 1ms floor
  EXPECT_EQ(tiny.estimate_ms(4, 123), 1);
  CostModel huge;
  huge.record(4, 900'000'000'000'000);  // corrupt sample: clamped at cap
  EXPECT_EQ(huge.estimate_ms(4, 123), CostModel::kEstimateCapMs);
  CostModel negative;
  negative.record(4, -5);  // negative walls are dropped, not recorded
  EXPECT_EQ(negative.buckets()[2].samples, 0);
}

// ----------------------------------------------------------- controller

/// Interval with `overloaded` sheds and `degraded` capped-tier serves
/// out of `requests` total.
IntervalMetrics interval(std::int64_t requests, std::int64_t overloaded,
                         std::int64_t degraded) {
  IntervalMetrics m;
  m.requests = requests;
  m.overloaded = overloaded;
  m.shed_degraded = degraded;
  return m;
}

TEST(Controller, UtilityScoresFullDegradedAndShed) {
  // 7 full * 1.0 + 2 degraded * 0.5 - 1 shed * 2.0 over 10 requests.
  EXPECT_EQ(utility_x1000(interval(10, 1, 2)), 600);
  EXPECT_EQ(utility_x1000(interval(10, 0, 0)), 1000);  // all full fidelity
  EXPECT_EQ(utility_x1000(interval(0, 0, 0)), 0);      // empty window
  EXPECT_EQ(utility_x1000(interval(10, 10, 0)), -2000);  // everything shed
}

TEST(Controller, ReliefWaitsForHysteresisThenStepsTripsDown) {
  Controller ctl;  // defaults: hysteresis 2, step 50, trips 500/750
  const Decision first = ctl.tick(interval(10, 5, 0));  // shed 50% > 8%
  EXPECT_EQ(first.reason, "hold");  // one hot interval is not a trend
  EXPECT_EQ(first.knobs.capped_x1000, 500);
  EXPECT_EQ(first.shed_x1000, 500);

  const Decision second = ctl.tick(interval(10, 5, 0));
  EXPECT_EQ(second.reason, "relief");
  EXPECT_EQ(second.knobs.capped_x1000, 450);
  EXPECT_EQ(second.knobs.degraded_x1000, 700);
  EXPECT_EQ(second.adjustments, 2);  // both trip points moved
  EXPECT_EQ(second.clamped, 0);

  // The applied step re-arms the hysteresis: the very next hot interval
  // holds again instead of stepping every tick.
  const Decision third = ctl.tick(interval(10, 5, 0));
  EXPECT_EQ(third.reason, "hold");
  EXPECT_EQ(third.knobs.capped_x1000, 450);
}

TEST(Controller, QuietWindowsResetEveryStreak) {
  Controller ctl;
  ctl.tick(interval(10, 5, 0));  // relief streak 1
  const Decision quiet = ctl.tick(interval(2, 2, 0));  // below min_requests
  EXPECT_EQ(quiet.reason, "quiet");
  // The lull wiped the streak: two more hot intervals are needed.
  EXPECT_EQ(ctl.tick(interval(10, 5, 0)).reason, "hold");
  EXPECT_EQ(ctl.tick(interval(10, 5, 0)).reason, "relief");
}

TEST(Controller, ReliefClampsAtTheFloorAndKeepsTheLadderOrdered) {
  Controller ctl;
  // Drive relief to the floor: one step per two hot intervals.
  for (int i = 0; i < 40; ++i) ctl.tick(interval(10, 9, 0));
  EXPECT_EQ(ctl.knobs().capped_x1000, 200);    // capped_min
  EXPECT_EQ(ctl.knobs().degraded_x1000, 300);  // degraded_min
  EXPECT_GT(ctl.clamped(), 0);
  // Pinned floor: further relief changes nothing but still counts clamps.
  const std::int64_t clamped_before = ctl.clamped();
  ctl.tick(interval(10, 9, 0));
  const Decision d = ctl.tick(interval(10, 9, 0));
  EXPECT_EQ(d.adjustments, 0);
  EXPECT_EQ(d.clamped, 2);
  EXPECT_EQ(ctl.clamped(), clamped_before + 2);
}

TEST(Controller, RecoverStepsTripsUpAndClampsAtTheCeiling) {
  Controller ctl;
  // Healthy shed (0%) but 40% of responses degraded: fidelity is being
  // left on the table.
  ctl.tick(interval(10, 0, 4));
  const Decision d = ctl.tick(interval(10, 0, 4));
  EXPECT_EQ(d.reason, "recover");
  EXPECT_EQ(d.knobs.capped_x1000, 550);
  EXPECT_EQ(d.knobs.degraded_x1000, 800);
  for (int i = 0; i < 40; ++i) ctl.tick(interval(10, 0, 4));
  EXPECT_EQ(ctl.knobs().capped_x1000, 900);    // capped_max
  EXPECT_EQ(ctl.knobs().degraded_x1000, 950);  // degraded_max
}

TEST(Controller, BoostGrantsWhenOneTenantStarvesThenDecaysWhenCalm) {
  Controller ctl;
  // "hog" sheds 80% while the other 90 requests all succeed; global shed
  // is exactly 8.0% — not above shed_hi, so relief stays out of the way.
  IntervalMetrics starving = interval(100, 8, 0);
  starving.tenant_requests = {{"hog", 10}, {"light", 90}};
  starving.tenant_overloaded = {{"hog", 8}};

  EXPECT_EQ(ctl.tick(starving).reason, "hold");
  const Decision granted = ctl.tick(starving);
  EXPECT_EQ(granted.reason, "boost");
  ASSERT_EQ(granted.knobs.boost_x1000.count("hog"), 1u);
  EXPECT_EQ(granted.knobs.boost_x1000.at("hog"), 1250);
  EXPECT_EQ(granted.adjustments, 1);

  // Once the tenant calms down the boost decays a step — and a boost
  // back at 1.0x is erased entirely (absent means no multiplier).
  IntervalMetrics calm = interval(100, 0, 0);
  calm.tenant_requests = {{"hog", 10}, {"light", 90}};
  ctl.tick(calm);
  const Decision decayed = ctl.tick(calm);
  EXPECT_EQ(decayed.reason, "boost");
  EXPECT_TRUE(decayed.knobs.boost_x1000.empty());
}

TEST(Controller, BoostClampsAtTwoX) {
  Controller ctl;
  IntervalMetrics starving = interval(100, 8, 0);
  starving.tenant_requests = {{"hog", 10}, {"light", 90}};
  starving.tenant_overloaded = {{"hog", 8}};
  for (int i = 0; i < 20; ++i) ctl.tick(starving);
  EXPECT_EQ(ctl.knobs().boost_x1000.at("hog"), 2000);  // boost_max
  const std::int64_t adjustments = ctl.adjustments();
  ctl.tick(starving);
  const Decision d = ctl.tick(starving);
  EXPECT_EQ(d.clamped, 1);  // wanted 2250, pinned at 2000
  EXPECT_EQ(ctl.adjustments(), adjustments);  // nothing actually moved
}

TEST(Controller, SameMetricsSequenceYieldsIdenticalDecisionLines) {
  // The determinism contract the replay harness relies on: the
  // controller is pure, so two instances fed the same interval sequence
  // render byte-identical decision logs.
  std::vector<IntervalMetrics> sequence;
  for (int i = 0; i < 12; ++i) {
    IntervalMetrics m = interval(10 + i % 3, (i * 7) % 10, i % 4);
    m.tenant_requests = {{"a", 5}, {"b", 5 + i % 3}};
    m.tenant_overloaded = {{"a", (i * 7) % 10}};
    sequence.push_back(m);
  }
  Controller one;
  Controller two;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const std::string line_one = Controller::decision_line(
        static_cast<std::int64_t>(i), sequence[i], one.tick(sequence[i]));
    const std::string line_two = Controller::decision_line(
        static_cast<std::int64_t>(i), sequence[i], two.tick(sequence[i]));
    EXPECT_EQ(line_one, line_two) << "tick " << i;
  }
  EXPECT_EQ(one.ticks(), two.ticks());
  EXPECT_EQ(one.adjustments(), two.adjustments());
  EXPECT_EQ(one.clamped(), two.clamped());
}

TEST(Controller, DecisionLineCarriesEveryField) {
  Controller ctl;
  const IntervalMetrics m = interval(10, 5, 0);
  const Decision d = ctl.tick(m);
  const std::string line = Controller::decision_line(0, m, d);
  EXPECT_EQ(line,
            "tick=0 req=10 shed_x1000=500 deg_x1000=0 util_x1000=-500 "
            "capped_x1000=500 degraded_x1000=750 boosts=- adj=0 clamped=0 "
            "reason=hold");
}

// ------------------------------------------------------- trace records

TraceRecord sample_record() {
  TraceRecord rec;
  rec.tick_us = 12'345;
  rec.lane = 3;
  rec.tenant = "batch";
  rec.key_hex = "00deadbeef00cafe";
  rec.outcome = "ok";
  rec.shed = true;
  rec.full_fidelity = false;
  rec.deadline_ms = 250;
  rec.cost_ms = 40;
  rec.actors = 17;
  rec.wall_ns = 5'000'000;
  rec.wall_ns_capped = 2'000'000;
  rec.wall_ns_degraded = 1'000'000;
  rec.response_hash = "0123456789abcdef";
  rec.request = "raw request bytes \x01\x02";
  return rec;
}

TEST(TraceFormat, RecordRoundTripsEveryField) {
  const TraceRecord rec = sample_record();
  const Result<TraceRecord> back = parse_trace_record(encode_trace_record(rec));
  ASSERT_TRUE(back.ok()) << back.error().message;
  const TraceRecord& r = back.value();
  EXPECT_EQ(r.tick_us, rec.tick_us);
  EXPECT_EQ(r.lane, rec.lane);
  EXPECT_EQ(r.tenant, rec.tenant);
  EXPECT_EQ(r.key_hex, rec.key_hex);
  EXPECT_EQ(r.outcome, rec.outcome);
  EXPECT_EQ(r.shed, rec.shed);
  EXPECT_EQ(r.full_fidelity, rec.full_fidelity);
  EXPECT_EQ(r.deadline_ms, rec.deadline_ms);
  EXPECT_EQ(r.cost_ms, rec.cost_ms);
  EXPECT_EQ(r.actors, rec.actors);
  EXPECT_EQ(r.wall_ns, rec.wall_ns);
  EXPECT_EQ(r.wall_ns_capped, rec.wall_ns_capped);
  EXPECT_EQ(r.wall_ns_degraded, rec.wall_ns_degraded);
  EXPECT_EQ(r.response_hash, rec.response_hash);
  EXPECT_EQ(r.request, rec.request);
}

TEST(TraceFormat, ParseRejectsGarbageAndMissingFields) {
  EXPECT_FALSE(parse_trace_record("not json").ok());
  EXPECT_FALSE(parse_trace_record("{}").ok());
  // An outcome-free record is unreplayable, not defaultable.
  EXPECT_FALSE(
      parse_trace_record(
          R"({"tick_us": 1, "lane": 0, "tenant": "", "key": "k"})")
          .ok());
}

/// Scratch path under /tmp, removed on destruction.
struct TracePath {
  std::string path;
  TracePath() {
    static int counter = 0;
    path = "/tmp/sdfctl_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".trace";
    fs::remove(path);
  }
  ~TracePath() {
    std::error_code ec;
    fs::remove(path, ec);
  }
};

TEST(TraceFile, WriteReadRoundTripSortsByTickThenLane) {
  TracePath scratch;
  {
    auto writer = TraceWriter::create(scratch.path);
    TraceRecord late = sample_record();
    late.tick_us = 900;
    late.lane = 0;
    TraceRecord early = sample_record();
    early.tick_us = 100;
    early.lane = 2;
    TraceRecord mid = sample_record();
    mid.tick_us = 900;
    mid.lane = 0;
    mid.tenant = "second-on-lane";  // same (tick, lane): append order wins
    writer->append(late);
    writer->append(early);
    writer->append(mid);
    EXPECT_EQ(writer->records(), 3);
  }
  const Trace trace = read_trace(scratch.path);
  ASSERT_EQ(trace.records.size(), 3u);
  EXPECT_EQ(trace.records[0].tick_us, 100);
  EXPECT_EQ(trace.records[1].tenant, "batch");
  EXPECT_EQ(trace.records[2].tenant, "second-on-lane");
}

TEST(TraceFile, CreateRefusesToOverwriteAnExistingTrace) {
  TracePath scratch;
  { auto writer = TraceWriter::create(scratch.path); }
  EXPECT_THROW(TraceWriter::create(scratch.path), BadArgumentError);
}

TEST(TraceFile, MissingFileIsAnIoError) {
  EXPECT_THROW(read_trace("/tmp/sdfctl_definitely_absent.trace"), IoError);
}

TEST(TraceFile, TornTailIsRejectedNotSilentlyTruncated) {
  TracePath scratch;
  {
    auto writer = TraceWriter::create(scratch.path);
    writer->append(sample_record());
    writer->append(sample_record());
  }
  // Chop mid-record: the batch journal would shrug this off as crash
  // debris; a trace consumer must refuse to replay a partial workload.
  const auto size = fs::file_size(scratch.path);
  fs::resize_file(scratch.path, size - 5);
  EXPECT_THROW(read_trace(scratch.path), CorruptJournalError);
}

TEST(TraceFile, WrongSchemaHeaderIsRejected) {
  TracePath scratch;
  {
    util::JournalWriter journal = util::JournalWriter::create(
        scratch.path, R"({"schema": "sdfmem.batch.v1"})");
    journal.append(encode_trace_record(sample_record()));
  }
  EXPECT_THROW(read_trace(scratch.path), CorruptJournalError);
}

TEST(TraceFile, UnparseableRecordIsAParseError) {
  TracePath scratch;
  {
    util::JournalWriter journal = util::JournalWriter::create(
        scratch.path, R"({"schema": "sdfmem.trace.v1"})");
    journal.append("this is not a trace record");
  }
  EXPECT_THROW(read_trace(scratch.path), ParseError);
}

// -------------------------------------------------- telemetry windows

TEST(LatencyWindow, DeltaSinceSubtractsAnEarlierSnapshot) {
  obs::LogHistogram h;
  h.record(50);
  h.record(5'000);
  const obs::HistogramSnapshot baseline = h.snapshot();
  h.record(50);
  h.record(200'000);
  const obs::HistogramSnapshot delta = h.snapshot().delta_since(baseline);
  EXPECT_EQ(delta.count, 2);
  EXPECT_EQ(delta.sum, 200'050);
  EXPECT_EQ(h.snapshot().count, 4);  // the source histogram is untouched
}

// ------------------------------------------------- trace simulation

/// A small adversarial trace: a hog streaming unique graphs on two lanes
/// interleaved with a light tenant repeating one cacheable graph.
Trace synthetic_trace() {
  CompileRequest req;
  req.graph_text = "graph tiny\nactor A\nactor B\nedge A B 2 3\n";
  req.options.optimizer = LoopOptimizer::kChainExact;  // fully degradable

  Trace trace;
  for (int i = 0; i < 40; ++i) {
    TraceRecord rec;
    rec.tick_us = i * 500;
    rec.lane = 1 + i % 2;
    rec.tenant = "hog";
    rec.key_hex = "h0g" + std::to_string(i % 8);
    rec.outcome = "ok";
    rec.actors = 2;
    rec.wall_ns = 2'000'000;
    rec.wall_ns_capped = 800'000;
    rec.wall_ns_degraded = 300'000;
    req.tenant = "hog";
    rec.request = encode_compile_request(req);
    trace.records.push_back(rec);
  }
  for (int i = 0; i < 10; ++i) {
    TraceRecord rec;
    rec.tick_us = i * 2'000;
    rec.lane = 0;
    rec.tenant = "light";
    rec.key_hex = "light-shared-key";
    rec.outcome = "ok";
    rec.actors = 2;
    rec.wall_ns = 2'000'000;
    rec.wall_ns_capped = 800'000;
    rec.wall_ns_degraded = 300'000;
    req.tenant = "light";
    rec.request = encode_compile_request(req);
    trace.records.push_back(rec);
  }
  return trace;
}

SimOptions sim_options(bool controller_on, int compression) {
  SimOptions options;
  options.slots = 2;
  options.queue_capacity = 4;
  options.default_cost_ms = 50;  // gross overestimate of the 2ms truth
  options.compression = compression;
  options.controller_on = controller_on;
  options.control_interval_ms = 5;
  qos::TenantSettings light;
  light.weight = 8.0;
  options.tenants.add("light", light);
  options.tenants.add("hog", qos::TenantSettings{});
  return options;
}

TEST(SimulateTrace, ConservesRequestsAcrossOutcomes) {
  const Trace trace = synthetic_trace();
  const SimResult r = simulate_trace(trace, sim_options(false, 1));
  EXPECT_EQ(r.requests, 50);
  EXPECT_EQ(r.requests,
            r.cache_hits + r.overloaded + r.shed_degraded + r.served_full);
  EXPECT_TRUE(r.decisions.empty());  // controller off: no decision log
  std::int64_t tenant_total = 0;
  for (const auto& [name, totals] : r.tenants) tenant_total += totals.requests;
  EXPECT_EQ(tenant_total, r.requests);
}

TEST(SimulateTrace, IsByteDeterministicAcrossRuns) {
  const Trace trace = synthetic_trace();
  for (const bool on : {false, true}) {
    for (const int compression : {1, 2, 4}) {
      const SimOptions options = sim_options(on, compression);
      const SimResult a = simulate_trace(trace, options);
      const SimResult b = simulate_trace(trace, options);
      // The decision log is the determinism gate: byte-identical lines.
      EXPECT_EQ(a.decisions, b.decisions)
          << "on=" << on << " compression=" << compression;
      EXPECT_EQ(a.requests, b.requests);
      EXPECT_EQ(a.overloaded, b.overloaded);
      EXPECT_EQ(a.shed_degraded, b.shed_degraded);
      EXPECT_EQ(a.cache_hits, b.cache_hits);
      EXPECT_EQ(a.served_full, b.served_full);
      EXPECT_EQ(a.p95_us, b.p95_us);
      EXPECT_EQ(a.final_knobs.capped_x1000, b.final_knobs.capped_x1000);
      EXPECT_EQ(a.final_knobs.degraded_x1000, b.final_knobs.degraded_x1000);
      ASSERT_EQ(a.intervals.size(), b.intervals.size());
      for (std::size_t i = 0; i < a.intervals.size(); ++i) {
        EXPECT_EQ(a.intervals[i].requests, b.intervals[i].requests);
        EXPECT_EQ(a.intervals[i].overloaded, b.intervals[i].overloaded);
        EXPECT_EQ(a.intervals[i].p95_us, b.intervals[i].p95_us);
      }
      if (on) {
        EXPECT_FALSE(a.decisions.empty());
      }
    }
  }
}

TEST(SimulateTrace, ControllerOnTicksOncePerInterval) {
  const Trace trace = synthetic_trace();  // spans ~20ms of virtual time
  const SimResult r = simulate_trace(trace, sim_options(true, 1));
  // One decision per elapsed 5ms interval plus the trailing partial
  // window; the exact count is pinned by the virtual clock, not wall time.
  EXPECT_EQ(r.decisions.size(), r.intervals.size());
  EXPECT_GE(r.decisions.size(), 4u);
}

TEST(SimulateTrace, CompressionSqueezesArrivalsNotServiceTimes) {
  const Trace trace = synthetic_trace();
  const SimResult relaxed = simulate_trace(trace, sim_options(false, 1));
  const SimResult squeezed = simulate_trace(trace, sim_options(false, 4));
  // 4x compression quadruples the offered load; with service times
  // unchanged the same trace must shed at least as much, and the virtual
  // span must shrink.
  EXPECT_GE(squeezed.overloaded + squeezed.shed_degraded,
            relaxed.overloaded + relaxed.shed_degraded);
  ASSERT_FALSE(relaxed.intervals.empty());
  ASSERT_FALSE(squeezed.intervals.empty());
  EXPECT_LT(squeezed.intervals.back().end_ms, relaxed.intervals.back().end_ms);
}

}  // namespace
}  // namespace sdf::svc::ctl
