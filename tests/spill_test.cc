// Memory-adaptive execution (spill) tests: result equivalence of the spilling
// operator paths against their in-memory counterparts, the dynamic-total work
// model (total(Q) revised upward by spill passes, bounds staying valid while
// it grows), transient-vs-permanent I/O fault handling with bounded retries,
// zero-leak cleanup on every exit path, and the fault-class taxonomy itself.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/explain.h"
#include "core/monitor.h"
#include "exec/aggregate.h"
#include "exec/fault_injector.h"
#include "exec/join.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/spill.h"
#include "obs/explain_analyze.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "storage/spill_file.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::I;
using testutil::N;
using testutil::S;
using testutil::Sorted;

/// Every plan execution in this file goes through the unified driver;
/// this adapter keeps the StatusOr shape the assertions expect.
StatusOr<std::vector<Row>> DriveRows(PhysicalPlan* plan, ExecContext* ctx) {
  exec::DriveResult r = exec::Drive(plan, {.ctx = ctx, .collect_rows = true});
  if (!r.ok()) return r.status;
  return std::move(r.rows);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Fresh per-test directory for spill files so leak audits see only this
/// test's files.
std::string MakeSpillDir(const char* tag) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("qprog_spill_test_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Number of qprog-spill-* files currently present in `dir`.
int CountSpillFiles(const std::string& dir) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(SpillFile::kFilePrefix, 0) ==
        0) {
      ++n;
    }
  }
  return n;
}

Table Numbers(int64_t n) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows.push_back({I(i)});
  return testutil::MakeTable("t", {"v"}, std::move(rows));
}

/// n rows of (i mod buckets, i) — repeating keys for joins and group-bys.
Table Keyed(int64_t n, int64_t buckets) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows.push_back({I(i % buckets), I(i)});
  return testutil::MakeTable("k", {"k", "v"}, std::move(rows));
}

PhysicalPlan SortPlan(const Table* t) {
  std::vector<SortKey> keys;
  keys.emplace_back(eb::Col(0));
  return PhysicalPlan(
      std::make_unique<Sort>(std::make_unique<SeqScan>(t), std::move(keys)));
}

PhysicalPlan JoinPlan(const Table* probe, const Table* build) {
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(0));
  bk.push_back(eb::Col(0));
  return PhysicalPlan(std::make_unique<HashJoin>(
      std::make_unique<SeqScan>(probe), std::make_unique<SeqScan>(build),
      std::move(pk), std::move(bk)));
}

PhysicalPlan GroupCountPlan(const Table* t) {
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0));
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, eb::Col(1), "total");
  return PhysicalPlan(std::make_unique<HashAggregate>(
      std::make_unique<SeqScan>(t), std::move(groups),
      std::vector<std::string>{"g"}, std::move(aggs)));
}

/// Runs `plan` twice — unconstrained in memory, then under a soft budget of
/// `soft_budget` buffered rows with a SpillManager attached — and asserts the
/// spilled run produces the same multiset of rows with nothing leaked.
/// Returns the (in-memory, spilled) work counters.
std::pair<uint64_t, uint64_t> ExpectSpillEquivalent(
    const std::function<PhysicalPlan()>& make_plan, uint64_t soft_budget,
    const char* tag, bool expect_same_order) {
  PhysicalPlan mem_plan = make_plan();
  ExecContext mem_ctx;
  StatusOr<std::vector<Row>> expected = DriveRows(&mem_plan, &mem_ctx);
  EXPECT_TRUE(expected.ok()) << expected.status();

  std::string dir = MakeSpillDir(tag);
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(soft_budget);
  PhysicalPlan plan = make_plan();
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
  EXPECT_TRUE(got.ok()) << "spilling run failed: " << got.status();
  if (expected.ok() && got.ok()) {
    if (expect_same_order) {
      EXPECT_EQ(testutil::RowsToString(got.value()),
                testutil::RowsToString(expected.value()));
    } else {
      EXPECT_EQ(testutil::RowsToString(Sorted(got.value())),
                testutil::RowsToString(Sorted(expected.value())));
    }
  }
  EXPECT_GT(spill.stats().runs_created, 0u) << "budget never forced a spill";
  EXPECT_EQ(spill.live_runs(), 0u);
  EXPECT_EQ(ctx.buffered_rows(), 0u);
  EXPECT_EQ(CountSpillFiles(dir), 0);
  EXPECT_GT(ctx.total_spill_work(), 0u);
  std::filesystem::remove_all(dir);
  return {mem_ctx.work(), ctx.work()};
}

// ---------------------------------------------------------------------------
// Result equivalence: spilled == in-memory
// ---------------------------------------------------------------------------

TEST(SpillTest, ExternalSortMatchesInMemorySort) {
  // Anti-sorted input so the merge actually has to interleave runs.
  std::vector<Row> rows;
  for (int64_t i = 799; i >= 0; --i) rows.push_back({I(i % 97), I(i)});
  Table t = testutil::MakeTable("t", {"a", "b"}, std::move(rows));
  auto [mem_work, spill_work] = ExpectSpillEquivalent(
      [&] {
        std::vector<SortKey> keys;
        keys.emplace_back(eb::Col(0));
        return PhysicalPlan(std::make_unique<Sort>(
            std::make_unique<SeqScan>(&t), std::move(keys)));
      },
      /*soft_budget=*/100, "sort", /*expect_same_order=*/true);
  // Every materialized row was written once and re-read once.
  EXPECT_GT(spill_work, mem_work);
}

TEST(SpillTest, GraceHashJoinMatchesInMemoryJoin) {
  Table probe = Keyed(300, 50);
  Table build = Keyed(400, 50);
  ExpectSpillEquivalent([&] { return JoinPlan(&probe, &build); },
                        /*soft_budget=*/64, "join",
                        /*expect_same_order=*/false);
}

TEST(SpillTest, HashAggregatePartitionSpillMatchesInMemory) {
  Table t = Keyed(900, 300);  // 300 groups against a 60-group budget
  ExpectSpillEquivalent([&] { return GroupCountPlan(&t); },
                        /*soft_budget=*/60, "agg",
                        /*expect_same_order=*/false);
}

TEST(SpillTest, SpilledSortIsStable) {
  // Duplicate keys in a known arrival order: (key, arrival). A stable
  // external merge must preserve arrival order within each key.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 600; ++i) rows.push_back({I(i % 7), I(i)});
  Table t = testutil::MakeTable("t", {"k", "arrival"}, std::move(rows));
  std::vector<SortKey> keys;
  keys.emplace_back(eb::Col(0));
  PhysicalPlan plan(std::make_unique<Sort>(std::make_unique<SeqScan>(&t),
                                           std::move(keys)));
  std::string dir = MakeSpillDir("stable");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(50);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got.value().size(), 600u);
  int64_t prev_key = -1, prev_arrival = -1;
  for (const Row& r : got.value()) {
    int64_t key = r[0].int64_value(), arrival = r[1].int64_value();
    if (key == prev_key) {
      EXPECT_LT(prev_arrival, arrival) << "merge not stable at key " << key;
    } else {
      EXPECT_LT(prev_key, key);
    }
    prev_key = key;
    prev_arrival = arrival;
  }
  EXPECT_GT(spill.stats().runs_created, 1u);  // a real multi-run merge
  std::filesystem::remove_all(dir);
}

TEST(SpillTest, NullKeysSurviveGracePartitioning) {
  // NULL join keys never match but outer-join semantics elsewhere depend on
  // probe rows being preserved through partitioning; here they must simply
  // not crash or pollute the output.
  std::vector<Row> prows, brows;
  for (int64_t i = 0; i < 200; ++i) {
    prows.push_back({i % 5 == 0 ? N() : I(i % 20), I(i)});
    brows.push_back({I(i % 20), I(i)});
  }
  Table probe = testutil::MakeTable("p", {"k", "v"}, std::move(prows));
  Table build = testutil::MakeTable("b", {"k", "v"}, std::move(brows));
  ExpectSpillEquivalent([&] { return JoinPlan(&probe, &build); },
                        /*soft_budget=*/48, "nulls",
                        /*expect_same_order=*/false);
}

TEST(SpillTest, GraceHashJoinSurvivesEmptyProbeInput) {
  // The build side spills into kSpillFanout runs before the probe child is
  // ever pulled; a zero-row probe input must still populate probe_parts_ so
  // the partition replay loop has something to index (regression: OOB read
  // on an empty probe_parts_ vector).
  Table probe = Keyed(0, 5);
  Table build = Keyed(400, 50);
  ExpectSpillEquivalent([&] { return JoinPlan(&probe, &build); },
                        /*soft_budget=*/64, "emptyprobe",
                        /*expect_same_order=*/false);
}

TEST(SpillTest, ScalarAggregateNeverSpills) {
  // A grouping-free aggregate holds O(1) state; there is nothing to spill
  // and the memory-adaptive path must leave it alone.
  Table t = Numbers(500);
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  PhysicalPlan plan(std::make_unique<HashAggregate>(
      std::make_unique<SeqScan>(&t), std::vector<ExprPtr>{},
      std::vector<std::string>{}, std::move(aggs)));
  std::string dir = MakeSpillDir("scalar");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(1000);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got.value().size(), 1u);
  EXPECT_EQ(got.value()[0][0].int64_value(), 500);
  EXPECT_EQ(spill.stats().runs_created, 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Degradation contract: spill where the guard alone would abort
// ---------------------------------------------------------------------------

TEST(SpillTest, BudgetThatKillsWithoutSpillManagerCompletesWithOne) {
  Table t = Numbers(1000);
  {
    PhysicalPlan plan = SortPlan(&t);
    QueryGuard guard;
    guard.set_max_buffered_rows(100);
    ExecContext ctx;
    ctx.set_guard(&guard);
    EXPECT_EQ(exec::Drive(&plan, {.ctx = &ctx}).status.code(),
              StatusCode::kResourceExhausted);
  }
  {
    std::string dir = MakeSpillDir("degrade");
    SpillManager spill(dir);
    PhysicalPlan plan = SortPlan(&t);
    QueryGuard guard;
    guard.set_max_buffered_rows(100);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    Status s = exec::Drive(&plan, {.ctx = &ctx}).status;
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_GT(spill.stats().runs_created, 0u);
    EXPECT_EQ(spill.live_runs(), 0u);
    std::filesystem::remove_all(dir);
  }
}

TEST(SpillTest, KillThresholdStillAbortsASpillingQuery) {
  // Every build row carries the same key, so Grace partitioning cannot split
  // the data: the single partition's reload blows through the kill threshold
  // and the hard abort fires even though a spill manager is attached.
  std::vector<Row> brows;
  for (int64_t i = 0; i < 500; ++i) brows.push_back({I(7), I(i)});
  Table build = testutil::MakeTable("b", {"k", "v"}, std::move(brows));
  Table probe = Keyed(20, 10);
  std::string dir = MakeSpillDir("kill");
  SpillManager spill(dir);
  PhysicalPlan plan = JoinPlan(&probe, &build);
  QueryGuard guard;
  guard.set_max_buffered_rows(50);
  guard.set_max_buffered_rows_kill(200);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  // Even the hard abort cleans up: no runs, no files, no buffered charge.
  EXPECT_EQ(spill.live_runs(), 0u);
  EXPECT_EQ(ctx.buffered_rows(), 0u);
  EXPECT_EQ(CountSpillFiles(dir), 0);
  std::filesystem::remove_all(dir);
}

TEST(SpillTest, ConcurrentBudgetRevocationSpillsAndNeverFails) {
  // A governor thread flips the query's soft budget between unlimited and
  // zero while the query thread charges. Each charge must be decided
  // against a single reading of the budget: a revocation that lands between
  // the check and the charge means a spill, never a budget abort.
  std::string dir = MakeSpillDir("revocation_race");
  SpillManager spill(dir);
  QueryGuard guard;
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  std::atomic<bool> flipping{false};
  std::atomic<bool> stop{false};
  std::thread governor([&] {
    for (bool open = true; !stop.load(std::memory_order_relaxed);
         open = !open) {
      guard.set_max_buffered_rows(open ? QueryGuard::kNoLimit : 0);
      flipping.store(true, std::memory_order_relaxed);
    }
  });
  while (!flipping.load(std::memory_order_relaxed)) std::this_thread::yield();
  uint64_t charged = 0, spilled = 0;
  ChargeVerdict verdict = ChargeVerdict::kCharged;
  for (int i = 0; i < 4000000 && verdict != ChargeVerdict::kFailed; ++i) {
    verdict = ctx.ChargeBufferedRowsOrSpill(1);
    if (verdict == ChargeVerdict::kCharged) {
      ++charged;
      ctx.ReleaseBufferedRows(1);
    } else if (verdict == ChargeVerdict::kSpill) {
      ++spilled;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  governor.join();
  EXPECT_NE(verdict, ChargeVerdict::kFailed)
      << ctx.status() << " after " << charged << " charges and " << spilled
      << " spills";
  EXPECT_EQ(ctx.buffered_rows(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(SpillTest, LeafRowsCountAgainstTheKillThresholdButNotTheSoftBudget) {
  // A rebuilt Grace leaf's rows count in the account, in its peak and
  // against the kill threshold, but every soft-budget comparison leaves them
  // out, so the operators around a replaying leaf spill where they would
  // with the leaf on disk.
  std::string dir = MakeSpillDir("leaf_rows");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(10);
  guard.set_max_buffered_rows_kill(100);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  ASSERT_EQ(ctx.ChargeBufferedRowsOrSpill(5), ChargeVerdict::kCharged);
  ASSERT_TRUE(ctx.ChargeLeafRows(60));
  EXPECT_EQ(ctx.buffered_rows(), 65u);
  EXPECT_EQ(ctx.peak_buffered_rows(), 65u);
  EXPECT_EQ(ctx.KillHeadroom(), 35u);
  // Five more rows fill the 10-row soft budget; the sixth spills.
  EXPECT_EQ(ctx.ChargeBufferedRowsOrSpill(5), ChargeVerdict::kCharged);
  EXPECT_EQ(ctx.ChargeBufferedRowsOrSpill(1), ChargeVerdict::kSpill);
  ASSERT_TRUE(ctx.ChargeLeafRows(25));
  EXPECT_EQ(ctx.buffered_rows(), 95u);
  EXPECT_EQ(ctx.peak_buffered_rows(), 95u);
  // Six more leaf rows cross the kill threshold; the account is untouched.
  EXPECT_FALSE(ctx.ChargeLeafRows(6));
  EXPECT_EQ(ctx.status().code(), StatusCode::kResourceExhausted)
      << ctx.status();
  EXPECT_EQ(ctx.buffered_rows(), 95u);
  ctx.ReleaseBufferedRows(10);
  EXPECT_EQ(ctx.buffered_rows(), 85u);
  ctx.ReleaseLeafRows(85);
  EXPECT_EQ(ctx.buffered_rows(), 0u);
  EXPECT_EQ(ctx.peak_buffered_rows(), 95u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Dynamic work model: total(Q) grows, bounds stay valid, estimators sane
// ---------------------------------------------------------------------------

TEST(SpillTest, TotalWorkStrictlyIncreasesUnderForcedSpill) {
  Table t = Numbers(800);
  PhysicalPlan base_plan = SortPlan(&t);
  ProgressMonitor base = ProgressMonitor::WithEstimators(&base_plan, {"dne"});
  ProgressReport base_report = base.Run(100);
  ASSERT_TRUE(base_report.completed());

  std::string dir = MakeSpillDir("dynamic");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(100);
  PhysicalPlan plan = SortPlan(&t);
  MonitorOptions mo;
  mo.guard = &guard;
  mo.spill_manager = &spill;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "pmax", "safe"}, mo);
  ProgressReport r = m.Run(100);
  ASSERT_TRUE(r.completed()) << r.status.ToString();
  EXPECT_EQ(r.root_rows, base_report.root_rows);
  EXPECT_GT(r.total_work, base_report.total_work)
      << "spill passes must revise total(Q) upward";
  // 800 rows spilled once and re-read once on top of the base scan work.
  EXPECT_EQ(r.total_work, base_report.total_work + 2 * 800);
  std::filesystem::remove_all(dir);
}

TEST(SpillTest, BoundsStayValidWhileTotalGrows) {
  Table t = Keyed(600, 200);
  std::string dir = MakeSpillDir("bounds");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(50);
  PhysicalPlan plan = GroupCountPlan(&t);
  MonitorOptions mo;
  mo.guard = &guard;
  mo.spill_manager = &spill;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "pmax", "safe"}, mo);
  ProgressReport r = m.Run(64);
  ASSERT_TRUE(r.completed()) << r.status.ToString();
  ASSERT_FALSE(r.checkpoints.empty());
  EXPECT_GT(spill.stats().runs_created, 0u);
  for (const Checkpoint& cp : r.checkpoints) {
    // The paper's invariant Curr <= LB <= UB must hold at every checkpoint
    // even while spill passes move the goalposts between checkpoints.
    EXPECT_LE(static_cast<double>(cp.work), cp.work_lb + 1e-9)
        << "at work=" << cp.work;
    EXPECT_LE(cp.work_lb, cp.work_ub + 1e-9) << "at work=" << cp.work;
    // LB can never promise more than the revised final total.
    EXPECT_LE(cp.work_lb,
              static_cast<double>(r.total_work) + 1e-9)
        << "at work=" << cp.work;
    for (double e : cp.estimates) {
      EXPECT_FALSE(std::isnan(e));
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, 1.0);
    }
  }
  // pmax = Curr/LB stays a (sanitized) overestimate of true progress at
  // every checkpoint — the bound it inherits from LB <= total.
  int pmax_idx = r.FindEstimator("pmax");
  ASSERT_GE(pmax_idx, 0);
  for (const Checkpoint& cp : r.checkpoints) {
    EXPECT_GE(cp.estimates[static_cast<size_t>(pmax_idx)],
              cp.true_progress - 1e-9)
        << "at work=" << cp.work;
  }
  std::filesystem::remove_all(dir);
}

TEST(SpillTest, SpillWorkIsAttributedPerNode) {
  Table t = Numbers(400);
  std::string dir = MakeSpillDir("attrib");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(64);
  PhysicalPlan plan = SortPlan(&t);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  ASSERT_TRUE(exec::Drive(&plan, {.ctx = &ctx}).ok());
  int sort_node = plan.root()->node_id();
  EXPECT_EQ(ctx.spill_work(sort_node), ctx.total_spill_work());
  EXPECT_EQ(ctx.total_spill_work(),
            spill.stats().rows_written + spill.stats().rows_read);
  EXPECT_EQ(spill.stats().rows_written, spill.stats().rows_read);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Observability: trace events and ExplainAnalyze
// ---------------------------------------------------------------------------

TEST(SpillTest, SpillTraceEventsAppearInOrder) {
  Table t = Numbers(500);
  std::string dir = MakeSpillDir("trace");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(100);
  PhysicalPlan plan = SortPlan(&t);
  JsonlStringSink sink;
  TelemetryCollector collector(&sink);
  MonitorOptions mo;
  mo.guard = &guard;
  mo.spill_manager = &spill;
  mo.telemetry = &collector;
  ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, {"safe"}, mo);
  ProgressReport r = m.Run(100);
  ASSERT_TRUE(r.completed()) << r.status.ToString();

  StatusOr<std::vector<TraceEvent>> events = ParseTraceJsonl(sink.data());
  ASSERT_TRUE(events.ok()) << events.status();
  int begins = 0, ends = 0;
  uint64_t spilled_rows = 0;
  for (const TraceEvent& ev : events.value()) {
    if (ev.kind == TraceEventKind::kSpillBegin) {
      ++begins;
      EXPECT_EQ(ev.name, "sort.run");
    }
    if (ev.kind == TraceEventKind::kSpillEnd) {
      ++ends;
      EXPECT_GE(begins, ends);  // every end follows its begin
      spilled_rows += static_cast<uint64_t>(ev.a);
      EXPECT_GT(ev.b, 0.0);  // bytes written
    }
  }
  EXPECT_GT(begins, 0);
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(spilled_rows, 500u);  // every materialized row hit disk
  // Round trip: the v2 events survive serialization.
  for (const TraceEvent& ev : events.value()) {
    StatusOr<TraceEvent> back = ParseTraceEvent(TraceEventToJson(ev));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back.value(), ev);
  }
  std::filesystem::remove_all(dir);
}

TEST(SpillTest, ExplainAnalyzeRendersSpillStats) {
  Table t = Numbers(300);
  std::string dir = MakeSpillDir("explain");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(64);
  PhysicalPlan plan = SortPlan(&t);
  TelemetryCollector collector;
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  ctx.set_telemetry(&collector);
  ASSERT_TRUE(exec::Drive(&plan, {.ctx = &ctx}).ok());
  ExplainAnalyzeOptions opts;
  opts.telemetry = &collector;
  std::string rendered = ExplainAnalyze(plan, ctx, opts);
  EXPECT_NE(rendered.find("spills="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("spilled_rows=300"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("reread_rows=300"), std::string::npos) << rendered;
  // A clean run has no retries, and the token is suppressed entirely.
  EXPECT_EQ(rendered.find("io_retries="), std::string::npos) << rendered;
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Retryable I/O: transient faults ride out, permanent faults fail cleanly
// ---------------------------------------------------------------------------

// The exact retry counts below need every spill write consulted on the
// query thread's injector: a spilling Grace join writes its partitions there
// at every pool size. (A Sort writes each run in a task whose injector is
// forked from the run index; parallel_test covers that schedule.)

TEST(SpillTest, TransientWriteFaultIsRetriedToCompletion) {
  Table t = Numbers(600);
  std::string dir = MakeSpillDir("transient");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(100);
  FaultInjector fi(11);
  FaultSpec spec;
  spec.site = faults::kSpillWrite;
  spec.fail_on_hit = 37;
  spec.fault_class = FaultClass::kTransient;
  spec.transient_failures = 2;  // fails twice, recovers on the third try
  fi.Arm(std::move(spec));
  PhysicalPlan plan = JoinPlan(&t, &t);
  JsonlStringSink sink;
  TelemetryCollector collector(&sink);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  ctx.set_fault_injector(&fi);
  ctx.set_telemetry(&collector);
  StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
  ASSERT_TRUE(got.ok()) << "transient fault not ridden out: " << got.status();
  EXPECT_EQ(got.value().size(), 600u);
  EXPECT_EQ(spill.stats().io_retries, 2u);
  EXPECT_NE(sink.data().find("\"io_retry\""), std::string::npos);
  EXPECT_NE(sink.data().find("spill.write"), std::string::npos);
  EXPECT_EQ(spill.live_runs(), 0u);
  EXPECT_EQ(CountSpillFiles(dir), 0);
  std::filesystem::remove_all(dir);
}

TEST(SpillTest, TransientReadAndOpenFaultsAreRetriedToo) {
  for (const char* site : {faults::kSpillRead, faults::kSpillOpen}) {
    SCOPED_TRACE(site);
    Table t = Numbers(400);
    std::string dir = MakeSpillDir("transient2");
    SpillManager spill(dir);
    QueryGuard guard;
    guard.set_max_buffered_rows(64);
    FaultInjector fi;
    FaultSpec spec;
    spec.site = site;
    spec.fail_on_hit = 2;
    spec.fault_class = FaultClass::kTransient;
    fi.Arm(std::move(spec));
    PhysicalPlan plan = SortPlan(&t);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    ctx.set_fault_injector(&fi);
    StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value().size(), 400u);
    EXPECT_EQ(spill.stats().io_retries, 1u);
    EXPECT_EQ(CountSpillFiles(dir), 0);
    std::filesystem::remove_all(dir);
  }
}

TEST(SpillTest, ExhaustedRetryBudgetSurfacesTheTransientStatus) {
  Table t = Numbers(600);
  std::string dir = MakeSpillDir("exhausted");
  SpillRetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_spins = 8;
  SpillManager spill(dir, policy);
  QueryGuard guard;
  guard.set_max_buffered_rows(100);
  FaultInjector fi;
  FaultSpec spec;
  spec.site = faults::kSpillWrite;
  spec.fail_on_hit = 10;
  spec.fault_class = FaultClass::kTransient;
  spec.transient_failures = 50;  // outlasts any sane retry budget
  fi.Arm(std::move(spec));
  PhysicalPlan plan = JoinPlan(&t, &t);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  ctx.set_fault_injector(&fi);
  StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(spill.stats().io_retries, 2u);  // max_attempts - 1
  EXPECT_EQ(spill.live_runs(), 0u);
  EXPECT_EQ(ctx.buffered_rows(), 0u);
  EXPECT_EQ(CountSpillFiles(dir), 0);
  std::filesystem::remove_all(dir);
}

TEST(SpillTest, PermanentFaultFailsCleanlyAtEverySpillSite) {
  for (const char* site :
       {faults::kSpillOpen, faults::kSpillWrite, faults::kSpillRead}) {
    SCOPED_TRACE(site);
    Table t = Numbers(500);
    std::string dir = MakeSpillDir("permanent");
    SpillManager spill(dir);
    QueryGuard guard;
    guard.set_max_buffered_rows(100);
    FaultInjector fi;
    FaultSpec spec;
    spec.site = site;
    spec.fail_on_hit = 3;  // permanent by default
    fi.Arm(std::move(spec));
    PhysicalPlan plan = SortPlan(&t);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    ctx.set_fault_injector(&fi);
    StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
    ASSERT_FALSE(got.ok()) << "permanent fault at " << site << " ignored";
    EXPECT_EQ(got.status().code(), StatusCode::kInternal);
    EXPECT_NE(got.status().message().find(site), std::string::npos)
        << got.status();
    EXPECT_EQ(spill.stats().io_retries, 0u) << "permanent faults never retry";
    EXPECT_EQ(spill.live_runs(), 0u);
    EXPECT_EQ(ctx.buffered_rows(), 0u);
    EXPECT_EQ(CountSpillFiles(dir), 0);
    std::filesystem::remove_all(dir);
  }
}

TEST(SpillTest, CorruptRecordFramingIsCleanPermanentError) {
  // Each case damages one "hello" record ([u32 size][u32 checksum][5 bytes],
  // 13 bytes on disk) behind the file's back. Every kind of damage must come
  // back as kInternal corruption; a garbage length in particular must be
  // rejected before resize() attempts a multi-GiB allocation (regression:
  // bad_alloc on an untrusted header length).
  struct Case {
    const char* name;
    std::function<void(const std::string& path)> damage;
    const char* error;
  };
  auto overwrite = [](const std::string& path, long offset, const void* bytes,
                      size_t size) {
    std::FILE* raw = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(raw, nullptr);
    std::fseek(raw, offset, SEEK_SET);
    std::fwrite(bytes, 1, size, raw);
    std::fflush(raw);
    std::fclose(raw);
  };
  const uint32_t huge = 0xFFFFFFF0u;
  const Case cases[] = {
      {"flipped payload byte",
       [&](const std::string& path) { overwrite(path, 8, "X", 1); },
       "checksum"},
      {"huge length",
       [&](const std::string& path) {
         overwrite(path, 0, &huge, sizeof(huge));
       },
       "length corrupt"},
      {"truncated header",
       [](const std::string& path) {
         std::filesystem::resize_file(path, 4);
       },
       "header torn"},
      {"truncated payload",
       [](const std::string& path) {
         std::filesystem::resize_file(path, 10);
       },
       "payload torn"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string dir = MakeSpillDir("corrupt");
    auto file = SpillFile::Create(dir);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE(file.value()->AppendRecord("hello", 5).ok());
    // SeekToStart flushes the stdio buffer, so the record is on disk before
    // it is damaged.
    ASSERT_TRUE(file.value()->SeekToStart().ok());
    ASSERT_EQ(std::filesystem::file_size(file.value()->path()), 13u);
    c.damage(file.value()->path());
    ASSERT_TRUE(file.value()->SeekToStart().ok());
    std::string payload;
    StatusOr<bool> read = file.value()->ReadRecord(&payload);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kInternal);
    EXPECT_NE(read.status().message().find(c.error), std::string::npos)
        << read.status();
    file.value()->CloseAndDelete();
    EXPECT_EQ(CountSpillFiles(dir), 0);
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Fault taxonomy unit tests
// ---------------------------------------------------------------------------

TEST(FaultClassTest, TransientWindowFailsThenRecovers) {
  FaultInjector fi;
  FaultSpec spec;
  spec.site = "taxonomy.site";
  spec.fail_on_hit = 2;
  spec.fault_class = FaultClass::kTransient;
  spec.transient_failures = 3;
  fi.Arm(std::move(spec));
  EXPECT_TRUE(fi.OnHit("taxonomy.site").ok());  // hit 1
  // Hits 2..4: the trigger plus the rest of the failing window.
  for (int i = 0; i < 3; ++i) {
    Status s = fi.OnHit("taxonomy.site");
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << "failing hit " << i;
  }
  // Recovered: the site stays healthy from here on.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(fi.OnHit("taxonomy.site").ok()) << "post-recovery hit " << i;
  }
}

TEST(FaultClassTest, TransientCodeDefaultsToUnavailable) {
  FaultInjector fi;
  FaultSpec spec;
  spec.site = "coerce.site";
  spec.fail_on_hit = 1;
  spec.fault_class = FaultClass::kTransient;
  // spec.code left at the kInternal default: Arm must coerce it so retry
  // loops recognize the failure as retryable.
  fi.Arm(std::move(spec));
  EXPECT_EQ(fi.OnHit("coerce.site").code(), StatusCode::kUnavailable);

  // An explicit non-default code is preserved.
  FaultSpec custom;
  custom.site = "custom.site";
  custom.fail_on_hit = 1;
  custom.fault_class = FaultClass::kTransient;
  custom.code = StatusCode::kOutOfRange;
  fi.Arm(std::move(custom));
  EXPECT_EQ(fi.OnHit("custom.site").code(), StatusCode::kOutOfRange);
}

TEST(FaultClassTest, PermanentFaultLatchesUntilDisarm) {
  FaultInjector fi;
  FaultSpec spec;
  spec.site = "latch.site";
  spec.fail_on_hit = 2;
  fi.Arm(std::move(spec));
  EXPECT_TRUE(fi.OnHit("latch.site").ok());
  EXPECT_FALSE(fi.OnHit("latch.site").ok());  // fires
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(fi.OnHit("latch.site").ok()) << "latched hit " << i;
  }
  fi.Disarm("latch.site");
  EXPECT_TRUE(fi.OnHit("latch.site").ok());
}

TEST(FaultClassTest, ResetClosesTheTransientWindowAndUnlatches) {
  FaultInjector fi;
  FaultSpec transient;
  transient.site = "t.site";
  transient.fail_on_hit = 1;
  transient.fault_class = FaultClass::kTransient;
  transient.transient_failures = 100;
  fi.Arm(std::move(transient));
  EXPECT_FALSE(fi.OnHit("t.site").ok());
  EXPECT_FALSE(fi.OnHit("t.site").ok());
  fi.Reset();
  // The schedule replays from scratch: hit 1 triggers again.
  EXPECT_FALSE(fi.OnHit("t.site").ok());

  FaultSpec perm;
  perm.site = "p.site";
  perm.fail_on_hit = 1;
  fi.Arm(std::move(perm));
  EXPECT_FALSE(fi.OnHit("p.site").ok());
  fi.Reset();
  EXPECT_EQ(fi.hit_count("p.site"), 0u);
  EXPECT_FALSE(fi.OnHit("p.site").ok());  // fires fresh, not via the latch
}

// ---------------------------------------------------------------------------
// SpillFile record format
// ---------------------------------------------------------------------------

TEST(SpillFileTest, RowSerializationRoundTripsEveryType) {
  Row row = {I(42),  testutil::D(3.25), S("spill \"me\"\n"),
             testutil::B(true), N(),    testutil::Dt("1995-03-15")};
  std::string bytes;
  AppendRowBytes(row, &bytes);
  Row back;
  StringArena strings;
  Status s = ParseRowBytes(bytes, &strings, &back);
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_EQ(back.size(), row.size());
  EXPECT_EQ(RowToString(back), RowToString(row));
}

TEST(SpillFileTest, WriteReadRewindReadAgain) {
  std::string dir = MakeSpillDir("file");
  auto file = SpillFile::Create(dir);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(CountSpillFiles(dir), 1);
  for (int i = 0; i < 3; ++i) {
    std::string rec = "record-" + std::to_string(i);
    ASSERT_TRUE(file.value()->AppendRecord(rec.data(), rec.size()).ok());
  }
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(file.value()->SeekToStart().ok());
    std::string payload;
    for (int i = 0; i < 3; ++i) {
      StatusOr<bool> more = file.value()->ReadRecord(&payload);
      ASSERT_TRUE(more.ok()) << more.status();
      ASSERT_TRUE(more.value());
      EXPECT_EQ(payload, "record-" + std::to_string(i)) << "pass " << pass;
    }
    StatusOr<bool> eof = file.value()->ReadRecord(&payload);
    ASSERT_TRUE(eof.ok()) << eof.status();
    EXPECT_FALSE(eof.value());
  }
  file.value()->CloseAndDelete();
  EXPECT_EQ(CountSpillFiles(dir), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace qprog
