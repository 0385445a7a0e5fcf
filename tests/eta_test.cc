// Wall-clock ETA tests (DESIGN.md §13): band sanitization (the
// 0 <= eta_lo <= eta <= eta_hi invariant, including on cancellation and
// deadline partial reports), EWMA rate math, trace schema v4 round trips
// (bit-identical through ReplayTrace, byte-identical across worker pool
// sizes with a deterministic clock), the table-driven version gate, the
// calibration scorer, and the Prometheus metrics exposition.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "obs/eta_model.h"
#include "obs/explain_analyze.h"
#include "obs/metrics_registry.h"
#include "obs/replay.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::I;

constexpr double kInf = std::numeric_limits<double>::infinity();

Table Numbers(int64_t n) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back({I(i)});
  return testutil::MakeTable("t", {"v"}, std::move(rows));
}

/// scan(n) -> filter(v < n/2) -> COUNT(*).
PhysicalPlan SmallPlan(const Table* t, int64_t n) {
  auto scan = std::make_unique<SeqScan>(t);
  auto filter = std::make_unique<Filter>(
      std::move(scan), eb::Lt(eb::Col(0), eb::Int(n / 2)));
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  auto agg = std::make_unique<HashAggregate>(
      std::move(filter), std::vector<ExprPtr>{}, std::vector<std::string>{},
      std::move(aggs));
  return PhysicalPlan(std::move(agg));
}

Table Keyed(int64_t n, int64_t buckets) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = n - 1; i >= 0; --i) rows.push_back({I(i % buckets), I(i)});
  return testutil::MakeTable("k", {"k", "v"}, std::move(rows));
}

PhysicalPlan SortPlan(const Table* t) {
  std::vector<SortKey> keys;
  keys.emplace_back(eb::Col(0));
  return PhysicalPlan(
      std::make_unique<Sort>(std::make_unique<SeqScan>(t), std::move(keys)));
}

std::string MakeSpillDir(const std::string& tag) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("qprog_eta_test_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Deterministic clock: each call advances exactly 1ms, so every band is a
/// pure function of the checkpoint sequence (which is pool-invariant).
EtaModelOptions DeterministicOptions(bool trace = false) {
  EtaModelOptions o;
  o.trace = trace;
  auto t = std::make_shared<uint64_t>(0);
  o.now_fn = [t]() { return *t += 1000000; };
  return o;
}

void ExpectBandInvariant(double eta, double lo, double hi) {
  if (std::isinf(eta)) {
    // All-infinite "unknowable" band, never a mix.
    EXPECT_TRUE(std::isinf(lo) && std::isinf(hi))
        << "mixed band: " << eta << " [" << lo << ", " << hi << "]";
    return;
  }
  EXPECT_TRUE(std::isfinite(lo) && std::isfinite(hi));
  EXPECT_GE(lo, 0.0);
  EXPECT_LE(lo, eta);
  EXPECT_LE(eta, hi);
}

// ---------------------------------------------------------------------------
// Sanitization
// ---------------------------------------------------------------------------

TEST(SanitizeEtaBandTest, NanAnywhereCollapsesToInfinite) {
  for (int which = 0; which < 3; ++which) {
    EtaBand b;
    b.eta_s = 1.0;
    b.eta_lo_s = 0.5;
    b.eta_hi_s = 2.0;
    (which == 0 ? b.eta_s : which == 1 ? b.eta_lo_s : b.eta_hi_s) =
        std::nan("");
    EtaBand s = SanitizeEtaBand(b);
    EXPECT_FALSE(s.finite());
    EXPECT_TRUE(std::isinf(s.eta_s) && std::isinf(s.eta_lo_s) &&
                std::isinf(s.eta_hi_s));
  }
}

TEST(SanitizeEtaBandTest, InfinitePointEstimateCollapses) {
  EtaBand b;
  b.eta_s = kInf;
  b.eta_lo_s = 1.0;
  b.eta_hi_s = 2.0;
  EXPECT_FALSE(SanitizeEtaBand(b).finite());
}

TEST(SanitizeEtaBandTest, ClampsNegativeAndReorders) {
  EtaBand b;
  b.eta_s = -3.0;  // clamps to 0
  b.eta_lo_s = -1.0;
  b.eta_hi_s = -0.5;
  EtaBand s = SanitizeEtaBand(b);
  EXPECT_TRUE(s.finite());
  ExpectBandInvariant(s.eta_s, s.eta_lo_s, s.eta_hi_s);
  EXPECT_EQ(s.eta_s, 0.0);

  EtaBand crossed;
  crossed.eta_s = 5.0;
  crossed.eta_lo_s = 9.0;  // above the point estimate
  crossed.eta_hi_s = 1.0;  // below it
  s = SanitizeEtaBand(crossed);
  ExpectBandInvariant(s.eta_s, s.eta_lo_s, s.eta_hi_s);
  EXPECT_EQ(s.eta_lo_s, 5.0);
  EXPECT_EQ(s.eta_hi_s, 5.0);
}

// ---------------------------------------------------------------------------
// EWMA rate math
// ---------------------------------------------------------------------------

TEST(RateEstimateTest, MatchesWestRecurrenceAndConstantHasZeroVariance) {
  RateEstimate r;
  EXPECT_FALSE(r.warm());
  const double alpha = 0.3;
  const double samples[] = {10.0, 14.0, 9.0, 11.5, 30.0};
  double mean = 0.0, var = 0.0;
  for (size_t i = 0; i < 5; ++i) {
    r.Observe(samples[i], alpha);
    if (i == 0) {
      mean = samples[i];
      var = 0.0;
    } else {
      double delta = samples[i] - mean;
      double incr = alpha * delta;
      mean += incr;
      var = (1.0 - alpha) * (var + delta * incr);
    }
    EXPECT_DOUBLE_EQ(r.mean, mean);
    EXPECT_DOUBLE_EQ(r.var, var);
  }
  EXPECT_TRUE(r.warm());
  EXPECT_EQ(r.samples, 5u);
  EXPECT_DOUBLE_EQ(r.stddev(), std::sqrt(var));

  RateEstimate flat;
  for (int i = 0; i < 50; ++i) flat.Observe(7.0, alpha);
  EXPECT_DOUBLE_EQ(flat.mean, 7.0);
  EXPECT_DOUBLE_EQ(flat.var, 0.0);
}

TEST(RateTrackerTest, ZeroWorkDeltaIsIgnored) {
  RateTracker tracker(0.5);
  tracker.Reset();
  tracker.ObserveWork(0, 12345);  // no work bought: not a rate sample
  EXPECT_FALSE(tracker.work_rate().warm());
  tracker.ObserveWork(100, 200);  // 2 ns per unit
  EXPECT_TRUE(tracker.work_rate().warm());
  EXPECT_DOUBLE_EQ(tracker.work_rate().mean, 2.0);
}

// ---------------------------------------------------------------------------
// EtaModel band production
// ---------------------------------------------------------------------------

TEST(EtaModelTest, InfiniteBeforeFirstCheckpointFiniteAfter) {
  EtaModel model(DeterministicOptions());
  model.OnRunStart();
  EXPECT_FALSE(model.latest().finite());

  // First checkpoint: 500 of [1000, 2000] work units, 1ms elapsed.
  EtaBand band = model.OnCheckpoint(500, 1000, 2000);
  EXPECT_TRUE(band.finite());
  ExpectBandInvariant(band.eta_s, band.eta_lo_s, band.eta_hi_s);
  // 1ms bought 500 units -> 2000 ns/unit; remaining mid =
  // sqrt(1000*2000) - 500 ~ 914.2 units -> ~1.83ms.
  EXPECT_NEAR(band.eta_s, (std::sqrt(1000.0 * 2000.0) - 500.0) * 2000.0 / 1e9,
              1e-12);
  // Structural interval + calibration floor keep the band around the point.
  EXPECT_GE(band.eta_hi_s, band.eta_s * 1.25 - 1e-12);

  // Work complete: remaining collapses to zero everywhere.
  band = model.OnCheckpoint(2000, 2000, 2000);
  EXPECT_EQ(band.eta_s, 0.0);
  EXPECT_EQ(band.eta_lo_s, 0.0);
  EXPECT_EQ(band.eta_hi_s, 0.0);
}

// ---------------------------------------------------------------------------
// Monitored runs: checkpoints, reports, partial reports
// ---------------------------------------------------------------------------

TEST(EtaMonitorTest, EveryCheckpointAndReportSatisfyTheInvariant) {
  Table t = Numbers(500);
  PhysicalPlan plan = SmallPlan(&t, 500);
  EtaModel model(DeterministicOptions());
  MonitorOptions mo;
  mo.eta_model = &model;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "safe"}, std::move(mo));
  ProgressReport r = m.Run(50);
  ASSERT_TRUE(r.completed()) << r.status.ToString();
  ASSERT_FALSE(r.checkpoints.empty());
  for (const Checkpoint& cp : r.checkpoints) {
    ExpectBandInvariant(cp.eta_seconds, cp.eta_lo_seconds, cp.eta_hi_seconds);
    // A model was attached, so every checkpoint has a finite band.
    EXPECT_TRUE(std::isfinite(cp.eta_seconds)) << "at work=" << cp.work;
  }
  const Checkpoint& last = r.checkpoints.back();
  EXPECT_EQ(r.eta_seconds, last.eta_seconds);
  EXPECT_EQ(r.eta_lo_seconds, last.eta_lo_seconds);
  EXPECT_EQ(r.eta_hi_seconds, last.eta_hi_seconds);
}

TEST(EtaMonitorTest, WithoutModelBandsStayInfinite) {
  Table t = Numbers(200);
  PhysicalPlan plan = SmallPlan(&t, 200);
  ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, {"dne"});
  ProgressReport r = m.Run(50);
  ASSERT_TRUE(r.completed());
  EXPECT_TRUE(std::isinf(r.eta_seconds));
  for (const Checkpoint& cp : r.checkpoints) {
    EXPECT_TRUE(std::isinf(cp.eta_seconds) && std::isinf(cp.eta_lo_seconds) &&
                std::isinf(cp.eta_hi_seconds));
  }
}

TEST(EtaMonitorTest, CancellationPartialReportCarriesSanitizedBand) {
  Table t = Numbers(2000);
  PhysicalPlan plan = SmallPlan(&t, 2000);
  QueryGuard guard;
  EtaModel model(DeterministicOptions());
  MonitorOptions mo;
  mo.guard = &guard;
  mo.eta_model = &model;
  int seen = 0;
  mo.checkpoint_listener = [&](const Checkpoint&) {
    if (++seen == 2) guard.RequestCancel();
  };
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "safe"}, std::move(mo));
  ProgressReport r = m.Run(100);
  ASSERT_FALSE(r.completed());
  EXPECT_EQ(r.termination, TerminationReason::kCancelled);
  ASSERT_FALSE(r.checkpoints.empty());
  // The partial report still carries the last claimed band, sanitized.
  ExpectBandInvariant(r.eta_seconds, r.eta_lo_seconds, r.eta_hi_seconds);
  EXPECT_TRUE(std::isfinite(r.eta_seconds));
  EXPECT_EQ(r.eta_seconds, r.checkpoints.back().eta_seconds);
}

TEST(EtaMonitorTest, DeadlinePartialReportKeepsTheInvariant) {
  Table t = Numbers(2000);
  PhysicalPlan plan = SmallPlan(&t, 2000);
  QueryGuard guard;
  guard.set_deadline(QueryGuard::Clock::now() - std::chrono::seconds(1));
  EtaModel model(DeterministicOptions());
  MonitorOptions mo;
  mo.guard = &guard;
  mo.eta_model = &model;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne"}, std::move(mo));
  ProgressReport r = m.Run(100);
  ASSERT_FALSE(r.completed());
  EXPECT_EQ(r.termination, TerminationReason::kDeadlineExceeded);
  // Whatever was sampled before the stop, the report's band is sanitized:
  // either the last checkpoint's finite band, or all-infinite.
  ExpectBandInvariant(r.eta_seconds, r.eta_lo_seconds, r.eta_hi_seconds);
  if (r.checkpoints.empty()) {
    EXPECT_TRUE(std::isinf(r.eta_seconds));
  } else {
    EXPECT_EQ(r.eta_seconds, r.checkpoints.back().eta_seconds);
  }
}

TEST(EtaMonitorTest, AbortBeforeFirstCheckpointLeavesInfiniteBand) {
  Table t = Numbers(2000);
  PhysicalPlan plan = SmallPlan(&t, 2000);
  QueryGuard guard;
  guard.set_max_work(10);  // exhausts before the first checkpoint at 1000
  EtaModel model(DeterministicOptions());
  MonitorOptions mo;
  mo.guard = &guard;
  mo.eta_model = &model;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne"}, std::move(mo));
  ProgressReport r = m.Run(1000);
  ASSERT_FALSE(r.completed());
  EXPECT_EQ(r.termination, TerminationReason::kBudgetExhausted);
  EXPECT_TRUE(r.checkpoints.empty());
  // No checkpoint landed, so the band is the all-infinite "unknowable" one —
  // never a partially-populated mix.
  ExpectBandInvariant(r.eta_seconds, r.eta_lo_seconds, r.eta_hi_seconds);
  EXPECT_TRUE(std::isinf(r.eta_seconds));
}

// ---------------------------------------------------------------------------
// Trace schema v4
// ---------------------------------------------------------------------------

TEST(EtaTraceSchemaTest, TableDrivenVersionGateAcceptsOneThroughCurrent) {
  EXPECT_EQ(kTraceSchemaVersion, 5);
  EXPECT_FALSE(TraceSchemaAccepted(0));
  for (int v = 1; v <= kTraceSchemaVersion; ++v) {
    EXPECT_TRUE(TraceSchemaAccepted(v)) << "v" << v;
  }
  EXPECT_FALSE(TraceSchemaAccepted(kTraceSchemaVersion + 1));
  EXPECT_FALSE(TraceSchemaAccepted(-1));

  // The reader enforces the same gate: older versions parse, future ones
  // are refused.
  EXPECT_TRUE(
      ParseTraceEvent("{\"v\":1,\"event\":\"checkpoint\",\"seq\":0,"
                      "\"work\":5,\"work_lb\":1,\"work_ub\":2}")
          .ok());
  EXPECT_FALSE(
      ParseTraceEvent("{\"v\":6,\"event\":\"checkpoint\",\"seq\":0,"
                      "\"work\":5}")
          .ok());
}

TEST(EtaTraceSchemaTest, EtaEventRoundTripsBitExactly) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kEtaSample;
  ev.seq = 11;
  ev.work = 4242;
  ev.a = 1.0 / 3.0;          // eta: needs all 17 digits
  ev.b = 0.1 + 0.2;          // eta_lo: != 0.3 exactly
  ev.c = 12345.678901234567;  // eta_hi
  std::string json = TraceEventToJson(ev);
  EXPECT_NE(json.find("\"event\":\"eta\""), std::string::npos) << json;
  auto parsed = ParseTraceEvent(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), ev);
  EXPECT_EQ(TraceEventToJson(parsed.value()), json);
}

TEST(EtaTraceTest, ReplayReconstructsBandsBitIdentically) {
  Table t = Numbers(600);
  PhysicalPlan plan = SmallPlan(&t, 600);
  JsonlStringSink sink;
  TelemetryCollector collector(&sink);
  EtaModel model(DeterministicOptions(/*trace=*/true));
  MonitorOptions mo;
  mo.telemetry = &collector;
  mo.eta_model = &model;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "safe"}, std::move(mo));
  ProgressReport live = m.Run(60);
  ASSERT_TRUE(live.completed()) << live.status.ToString();
  ASSERT_FALSE(live.checkpoints.empty());
  EXPECT_NE(sink.data().find("\"event\":\"eta\""), std::string::npos);

  auto events = ParseTraceJsonl(sink.data());
  ASSERT_TRUE(events.ok()) << events.status();
  auto replay = ReplayTrace(events.value());
  ASSERT_TRUE(replay.ok()) << replay.status();
  const ProgressReport& rr = replay.value().report;
  ASSERT_EQ(rr.checkpoints.size(), live.checkpoints.size());
  for (size_t i = 0; i < live.checkpoints.size(); ++i) {
    // Bitwise equality: %.17g serialization is lossless for doubles.
    EXPECT_EQ(rr.checkpoints[i].eta_seconds, live.checkpoints[i].eta_seconds);
    EXPECT_EQ(rr.checkpoints[i].eta_lo_seconds,
              live.checkpoints[i].eta_lo_seconds);
    EXPECT_EQ(rr.checkpoints[i].eta_hi_seconds,
              live.checkpoints[i].eta_hi_seconds);
  }
  EXPECT_EQ(rr.eta_seconds, live.eta_seconds);
  EXPECT_EQ(rr.eta_lo_seconds, live.eta_lo_seconds);
  EXPECT_EQ(rr.eta_hi_seconds, live.eta_hi_seconds);
}

TEST(EtaTraceTest, TracesByteIdenticalAcrossPoolSizes) {
  // With a deterministic clock the band is a pure function of the checkpoint
  // sequence, and the checkpoint sequence is pool-invariant — so the full
  // v4 trace, ETA samples included, must not move by a byte across pools.
  Table t = Keyed(800, 97);
  std::string reference;
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string dir = MakeSpillDir("pool" + std::to_string(threads));
    SpillManager spill(dir);
    QueryGuard guard;
    guard.set_max_buffered_rows(64);
    WorkerPool pool(threads);
    PhysicalPlan plan = SortPlan(&t);
    JsonlStringSink sink;
    TelemetryCollector collector(&sink);
    EtaModel model(DeterministicOptions(/*trace=*/true));
    MonitorOptions mo;
    mo.guard = &guard;
    mo.spill_manager = &spill;
    mo.worker_pool = &pool;
    mo.telemetry = &collector;
    mo.eta_model = &model;
    ProgressMonitor m = ProgressMonitor::WithEstimators(
        &plan, {"dne", "pmax", "safe"}, std::move(mo));
    ProgressReport r = m.Run(100);
    ASSERT_TRUE(r.completed()) << r.status.ToString();
    EXPECT_GT(spill.stats().runs_created, 0u);
    if (reference.empty()) {
      reference = sink.data();
      EXPECT_NE(reference.find("\"event\":\"eta\""), std::string::npos);
    } else {
      EXPECT_EQ(sink.data(), reference) << "trace diverged";
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(EtaTraceTest, TraceOffByDefaultKeepsV3StreamShape) {
  // Merely attaching a model must not perturb existing byte-identical trace
  // contracts: without opting in, no eta event reaches the sink.
  Table t = Numbers(300);
  PhysicalPlan plan = SmallPlan(&t, 300);
  JsonlStringSink sink;
  TelemetryCollector collector(&sink);
  EtaModel model(DeterministicOptions(/*trace=*/false));
  MonitorOptions mo;
  mo.telemetry = &collector;
  mo.eta_model = &model;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne"}, std::move(mo));
  ProgressReport r = m.Run(60);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(sink.data().find("\"event\":\"eta\""), std::string::npos);
  // The report still gets its band — tracing and reporting are independent.
  EXPECT_TRUE(std::isfinite(r.eta_seconds));
}

// ---------------------------------------------------------------------------
// Calibration scorer
// ---------------------------------------------------------------------------

TEST(EtaCalibrationTest, CoverageBucketsAndJson) {
  EtaCalibration cal;
  auto sample = [](double progress, double lo, double mid, double hi,
                   double actual) {
    EtaCalibrationSample s;
    s.progress = progress;
    s.band.eta_s = mid;
    s.band.eta_lo_s = lo;
    s.band.eta_hi_s = hi;
    s.actual_remaining_s = actual;
    return s;
  };
  cal.Add(sample(0.05, 1.0, 2.0, 3.0, 2.5));   // decile 0, covered
  cal.Add(sample(0.08, 1.0, 2.0, 3.0, 5.0));   // decile 0, missed
  cal.Add(sample(0.95, 0.1, 0.2, 0.4, 0.15));  // decile 9, covered
  cal.Add(sample(1.0, 0.0, 0.0, 0.1, 0.0));    // progress 1.0 clamps to 9
  EtaCalibrationSample inf_band;
  inf_band.progress = 0.5;
  cal.Add(inf_band);  // unknowable: counted, never covered

  EXPECT_EQ(cal.decile(0).samples, 2u);
  EXPECT_DOUBLE_EQ(cal.decile(0).coverage(), 0.5);
  EXPECT_EQ(cal.decile(9).samples, 2u);
  EXPECT_DOUBLE_EQ(cal.decile(9).coverage(), 1.0);
  EXPECT_EQ(cal.infinite_bands(), 1u);
  EXPECT_EQ(cal.Overall().samples, 4u);
  EXPECT_DOUBLE_EQ(cal.Overall().coverage(), 0.75);
  EXPECT_NEAR(cal.decile(0).mean_abs_err_s(), (0.5 + 3.0) / 2.0, 1e-12);

  std::string json = cal.ToJson();
  EXPECT_NE(json.find("\"claimed\":0.9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"overall\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"deciles\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"infinite_bands\":1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Rendering + Prometheus exposition
// ---------------------------------------------------------------------------

TEST(EtaRenderingTest, InfiniteBandRendersDashesLikeRemaining) {
  EXPECT_EQ(FormatRemainingSeconds(kInf), "--");
  EXPECT_EQ(FormatRemainingSeconds(-kInf), "--");
  EXPECT_EQ(FormatRemainingSeconds(std::nan("")), "--");
  EXPECT_EQ(FormatRemainingSeconds(1.5), "1.5s");
  EXPECT_EQ(FormatRemainingSeconds(0.25), "250ms");

  Table t = Numbers(10);
  PhysicalPlan plan = SmallPlan(&t, 10);
  ExecContext ctx;
  ctx.Reset(plan.num_nodes());
  ExplainAnalyzeOptions opts;
  opts.show_eta = true;  // bands default to +inf: pre-first-checkpoint state
  std::string out = ExplainAnalyze(plan, ctx, opts);
  EXPECT_NE(out.find("eta=-- band=[--,--]"), std::string::npos) << out;
  EXPECT_EQ(out.find("inf"), std::string::npos) << out;

  opts.eta_seconds = 2.0;
  opts.eta_lo_seconds = 1.5;
  opts.eta_hi_seconds = 3.5;
  out = ExplainAnalyze(plan, ctx, opts);
  EXPECT_NE(out.find("eta=2.0s band=[1.5s,3.5s]"), std::string::npos) << out;
}

TEST(MetricsRegistryTest, DumpPrometheusSanitizesAndOrdersDeterministically) {
  MetricsRegistry reg;
  reg.IncrementCounter("queries.done", 3);  // '.' must sanitize to '_'
  reg.IncrementCounter("aborted", 1);
  reg.histogram("query_wall_ns")->Record(1000.0);
  reg.histogram("query_wall_ns")->Record(3000.0);
  std::string text = reg.DumpPrometheus();
  // Counters first (sorted), then histograms as summaries.
  EXPECT_NE(text.find("# TYPE qprog_aborted counter\nqprog_aborted 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("# TYPE qprog_queries_done counter\nqprog_queries_done 3\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE qprog_query_wall_ns summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("qprog_query_wall_ns_count 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("qprog_query_wall_ns_sum 4000"), std::string::npos)
      << text;
  EXPECT_LT(text.find("qprog_aborted"), text.find("qprog_queries_done"));
  // Deterministic: a second dump is byte-identical.
  EXPECT_EQ(reg.DumpPrometheus(), text);
}

}  // namespace
}  // namespace qprog
