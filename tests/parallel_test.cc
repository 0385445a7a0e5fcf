// Intra-query parallelism tests (DESIGN.md §10): worker-pool primitives
// (the inline null-pool group included), bit-identical results and
// byte-identical traces at every pool size (transient write-fault retries
// included), consistent and monotone (Curr, LB, UB) under concurrency,
// clean cancellation mid-merge, and the one-level sort merge.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/monitor.h"
#include "exec/aggregate.h"
#include "exec/fault_injector.h"
#include "exec/join.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "storage/spill_file.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace qprog {
namespace {

using testutil::Fnv1a64;
using testutil::I;
using testutil::S;
using testutil::Sorted;

/// Every plan execution in this file goes through the unified driver;
/// this adapter keeps the StatusOr shape the assertions expect.
StatusOr<std::vector<Row>> DriveRows(PhysicalPlan* plan, ExecContext* ctx) {
  exec::DriveResult r = exec::Drive(plan, {.ctx = ctx, .collect_rows = true});
  if (!r.ok()) return r.status;
  return std::move(r.rows);
}

const int kPoolSizes[] = {1, 2, 4, 8};
/// kPoolSizes plus 0, no pool at all: for the operators that take one path
/// at every pool size.
const int kPoolSizesAndNone[] = {0, 1, 2, 4, 8};

std::string MakeSpillDir(const std::string& tag) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("qprog_parallel_test_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

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

/// n rows of (i mod buckets, i), anti-sorted so merges must interleave.
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

PhysicalPlan JoinPlan(const Table* probe, const Table* build,
                      JoinType type = JoinType::kInner) {
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(0));
  bk.push_back(eb::Col(0));
  return PhysicalPlan(std::make_unique<HashJoin>(
      std::make_unique<SeqScan>(probe), std::make_unique<SeqScan>(build),
      std::move(pk), std::move(bk), type));
}

/// Collects `make_plan`'s rows under a spilling budget, optionally on a pool
/// and optionally under a finite kill threshold.
StatusOr<std::vector<Row>> RunSpilling(
    const std::function<PhysicalPlan()>& make_plan, uint64_t soft_budget,
    const std::string& tag, int pool_threads, uint64_t* spill_runs = nullptr,
    uint64_t kill_budget = QueryGuard::kNoLimit) {
  std::string dir = MakeSpillDir(tag);
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(soft_budget);
  guard.set_max_buffered_rows_kill(kill_budget);
  PhysicalPlan plan = make_plan();
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  std::unique_ptr<WorkerPool> pool;
  if (pool_threads > 0) {
    pool = std::make_unique<WorkerPool>(pool_threads);
    ctx.set_worker_pool(pool.get());
  }
  StatusOr<std::vector<Row>> rows = DriveRows(&plan, &ctx);
  EXPECT_GT(spill.stats().runs_created, 0u) << tag << ": nothing spilled";
  EXPECT_EQ(spill.live_runs(), 0u) << tag;
  EXPECT_EQ(ctx.buffered_rows(), 0u) << tag;
  EXPECT_EQ(CountSpillFiles(dir), 0) << tag;
  if (spill_runs != nullptr) *spill_runs = spill.stats().runs_created;
  std::filesystem::remove_all(dir);
  return rows;
}

// ---------------------------------------------------------------------------
// Pool primitives
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryTaskOnceAndWaitsIdempotently) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  TaskGroup group(&pool);
  std::atomic<int> hits{0};
  for (int i = 0; i < 64; ++i) {
    group.Submit([&hits] { hits.fetch_add(1); });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(hits.load(), 64);
  EXPECT_TRUE(group.Wait().ok());  // idempotent, nothing pending
}

TEST(WorkerPoolTest, ThreadCountClampsToAtLeastOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  TaskGroup group(&pool);
  std::atomic<int> hits{0};
  group.Submit([&hits] { hits.fetch_add(1); });
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(hits.load(), 1);
}

TEST(WorkerPoolTest, NullPoolRunsTasksInlineInSubmissionOrder) {
  TaskGroup group(nullptr);
  std::vector<int> order;
  const std::thread::id caller = std::this_thread::get_id();
  for (int i = 0; i < 5; ++i) {
    group.Submit([&order, i, caller] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    // Inline: the task has finished before Submit returns.
    EXPECT_EQ(order.size(), static_cast<size_t>(i) + 1);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_TRUE(group.Wait().ok());  // idempotent, nothing pending

  // An escaped exception is contained, later tasks still run, and every
  // Wait reports the first escape as kInternal.
  group.Submit([] { throw std::runtime_error("inline task blew up"); });
  group.Submit([&order] { order.push_back(5); });
  Status s = group.Wait();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("inline task blew up"), std::string::npos) << s;
  EXPECT_EQ(group.Wait().code(), StatusCode::kInternal);
  EXPECT_EQ(order.size(), 6u);
}

TEST(WorkerPoolTest, EscapedExceptionSurfacesAsInternal) {
  WorkerPool pool(2);
  TaskGroup group(&pool);
  group.Submit([] { throw std::runtime_error("task blew up"); });
  Status s = group.Wait();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("task blew up"), std::string::npos) << s;
}

// ---------------------------------------------------------------------------
// Determinism: identical rows, totals, and traces at every pool size
// ---------------------------------------------------------------------------

TEST(ParallelDeterminismTest, SortRowsMatchSerialAtEveryPoolSize) {
  Table t = Keyed(900, 101);
  auto make = [&] { return SortPlan(&t); };
  // The reference is the in-memory stable sort: nothing spilled.
  PhysicalPlan mem_plan = make();
  ExecContext mem_ctx;
  StatusOr<std::vector<Row>> mem = DriveRows(&mem_plan, &mem_ctx);
  ASSERT_TRUE(mem.ok()) << mem.status();
  std::string expected = testutil::RowsToString(mem.value());
  for (int threads : kPoolSizesAndNone) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StatusOr<std::vector<Row>> got =
        RunSpilling(make, 60, "sort_p" + std::to_string(threads), threads);
    ASSERT_TRUE(got.ok()) << got.status();
    // Byte-identical, order included: run formation and the one-level merge
    // must preserve the stable in-memory order exactly.
    EXPECT_EQ(testutil::RowsToString(got.value()), expected);
  }
}

TEST(ParallelDeterminismTest, GraceJoinRowsMatchSerialForEveryJoinType) {
  Table probe = Keyed(400, 60);
  Table build = Keyed(500, 60);
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                        JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    SCOPED_TRACE(JoinTypeToString(type));
    auto make = [&] { return JoinPlan(&probe, &build, type); };
    // In-memory reference: the multiset of rows must survive Grace mode.
    PhysicalPlan mem_plan = make();
    ExecContext mem_ctx;
    StatusOr<std::vector<Row>> mem = DriveRows(&mem_plan, &mem_ctx);
    ASSERT_TRUE(mem.ok()) << mem.status();
    // Serial Grace replay: the row-for-row reference for the parallel join.
    StatusOr<std::vector<Row>> serial =
        RunSpilling(make, 64, "join_serial", 0);
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_EQ(testutil::RowsToString(Sorted(serial.value())),
              testutil::RowsToString(Sorted(mem.value())));
    std::string expected = testutil::RowsToString(serial.value());
    for (int threads : kPoolSizes) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      StatusOr<std::vector<Row>> got =
          RunSpilling(make, 64, "join_p" + std::to_string(threads), threads);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(testutil::RowsToString(got.value()), expected);
    }
  }
}

TEST(ParallelDeterminismTest, TransientWriteFaultRetriesAlikeAtEveryPoolSize) {
  // Transient spill.write faults at pools {0, 1, 4}: the status, the
  // io_retry events (node, site, attempt, work stamp) and the rows must not
  // depend on the pool size.
  //  * A spilling Grace join writes every partition row on the query thread
  //    at every pool size, so the site is consulted on the query thread's
  //    injector alone: exactly one retry.
  //  * A spilling Sort writes each run in a task against an injector forked
  //    from the run index, with or without a pool: every run of 37 rows or
  //    more retries at its own hit 37. With a 3-attempt budget and a fault
  //    that outlasts it, every pool size fails with the same status.
  Table probe = Keyed(400, 60);
  Table sort_input = Keyed(900, 101);
  Table build = Keyed(500, 60);
  struct Case {
    const char* name;
    std::function<PhysicalPlan()> make;
    uint64_t transient_failures;
    int max_attempts;
    StatusCode code;
    int64_t exact_retries;  // -1: any positive count, the same at every size
  };
  const Case kCases[] = {
      {"join", [&] { return JoinPlan(&probe, &build); }, 1, 4, StatusCode::kOk,
       1},
      {"sort", [&] { return SortPlan(&sort_input); }, 1, 4, StatusCode::kOk,
       -1},
      {"sort_exhausted", [&] { return SortPlan(&sort_input); }, 50, 3,
       StatusCode::kUnavailable, -1},
  };
  for (const Case& c : kCases) {
    std::string reference;
    for (int threads : {0, 1, 4}) {
      SCOPED_TRACE(std::string(c.name) + " threads=" + std::to_string(threads));
      std::string dir = MakeSpillDir(std::string("wretry_") + c.name +
                                     std::to_string(threads));
      SpillRetryPolicy policy;
      policy.max_attempts = c.max_attempts;
      SpillManager spill(dir, policy);
      QueryGuard guard;
      guard.set_max_buffered_rows(64);
      FaultInjector fi(5);
      FaultSpec spec;
      spec.site = faults::kSpillWrite;
      spec.fail_on_hit = 37;
      spec.fault_class = FaultClass::kTransient;
      spec.transient_failures = c.transient_failures;
      fi.Arm(std::move(spec));
      JsonlStringSink sink;
      TelemetryCollector collector(&sink);
      PhysicalPlan plan = c.make();
      ExecContext ctx;
      ctx.set_guard(&guard);
      ctx.set_spill_manager(&spill);
      ctx.set_fault_injector(&fi);
      ctx.set_telemetry(&collector);
      std::unique_ptr<WorkerPool> pool;
      if (threads > 0) {
        pool = std::make_unique<WorkerPool>(threads);
        ctx.set_worker_pool(pool.get());
      }
      StatusOr<std::vector<Row>> rows = DriveRows(&plan, &ctx);
      EXPECT_EQ(rows.status().code(), c.code) << rows.status();
      if (c.exact_retries >= 0) {
        EXPECT_EQ(spill.stats().io_retries,
                  static_cast<uint64_t>(c.exact_retries));
      }
      EXPECT_GT(spill.stats().io_retries, 0u) << "the fault never fired";
      EXPECT_EQ(spill.live_runs(), 0u);
      EXPECT_EQ(ctx.buffered_rows(), 0u);
      EXPECT_EQ(CountSpillFiles(dir), 0);
      StatusOr<std::vector<TraceEvent>> events = ParseTraceJsonl(sink.data());
      ASSERT_TRUE(events.ok()) << events.status();
      std::string got = rows.status().ToString() + "\n" +
                        std::to_string(spill.stats().io_retries) + "\n";
      for (const TraceEvent& ev : events.value()) {
        if (ev.kind != TraceEventKind::kIoRetry) continue;
        got += std::to_string(ev.node) + " " + ev.name + " " +
               std::to_string(static_cast<uint64_t>(ev.a)) + " " +
               std::to_string(ev.work) + "\n";
      }
      if (rows.ok()) got += testutil::RowsToString(rows.value());
      if (threads == 0) {
        reference = got;
      } else {
        EXPECT_EQ(got, reference) << "status, retries or rows diverged";
      }
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(ParallelDeterminismTest, TracesAndScoresAreByteIdenticalAcrossPoolSizes) {
  // The strongest statement of the fold design: the full typed trace — every
  // checkpoint, spill event, bound refinement and estimator evaluation — is
  // byte-identical at every pool size, no pool included, so estimator scores
  // replayed from a parallel run's trace are the scores of the serial run.
  Table t = Keyed(800, 97);
  std::string reference_trace;
  std::string reference_tsv;
  uint64_t reference_total = 0;
  for (int threads : kPoolSizesAndNone) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string dir = MakeSpillDir("trace_p" + std::to_string(threads));
    SpillManager spill(dir);
    QueryGuard guard;
    guard.set_max_buffered_rows(64);
    std::unique_ptr<WorkerPool> pool;
    if (threads > 0) pool = std::make_unique<WorkerPool>(threads);
    PhysicalPlan plan = SortPlan(&t);
    JsonlStringSink sink;
    TelemetryCollector collector(&sink);
    MonitorOptions mo;
    mo.guard = &guard;
    mo.spill_manager = &spill;
    mo.worker_pool = pool.get();
    mo.telemetry = &collector;
    ProgressMonitor m =
        ProgressMonitor::WithEstimators(&plan, {"dne", "pmax", "safe"}, mo);
    ProgressReport r = m.Run(100);
    ASSERT_TRUE(r.completed()) << r.status.ToString();
    EXPECT_GT(spill.stats().runs_created, 0u);
    if (reference_trace.empty()) {
      reference_trace = sink.data();
      reference_tsv = r.ToTsv();
      reference_total = r.total_work;
      EXPECT_FALSE(reference_trace.empty());
    } else {
      EXPECT_EQ(sink.data(), reference_trace) << "trace diverged";
      EXPECT_EQ(r.ToTsv(), reference_tsv) << "estimator scores diverged";
      EXPECT_EQ(r.total_work, reference_total) << "total(Q) diverged";
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(ParallelDeterminismTest, TpchMatchesAtEveryPoolSizeWithAndWithoutKill) {
  // TPC-H Q1-Q22 from the in-repo dbgen under a soft budget that spills, with
  // a finite kill threshold and with none, at pools {0, 1, 3}. The Grace
  // operators replay their leaves through one loop on the query thread at
  // every pool size, charging a rebuilt leaf outside the soft budget, and
  // Sort takes its one task path, so the status, the rows, total(Q) and the
  // monitored trace must not depend on the pool.
  constexpr uint64_t kSoftBudget = 64;
  Database db;
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(tpch::GenerateTpch(config, &db).ok());
  for (uint64_t kill : {uint64_t{1500}, QueryGuard::kNoLimit}) {
    const std::string kill_tag =
        kill == QueryGuard::kNoLimit ? "nokill" : "kill" + std::to_string(kill);
    int grace_spills = 0;
    for (int q : tpch::AvailableQueries()) {
      std::string ref_status, ref_rows, ref_trace;
      uint64_t ref_total = 0;
      for (int threads : {0, 1, 3}) {
        SCOPED_TRACE(kill_tag + " Q" + std::to_string(q) + " threads=" +
                     std::to_string(threads));
        std::string dir = MakeSpillDir("tpch_" + kill_tag + "_q" +
                                       std::to_string(q) + "_p" +
                                       std::to_string(threads));
        SpillManager spill(dir);
        QueryGuard guard;
        guard.set_max_buffered_rows(kSoftBudget);
        guard.set_max_buffered_rows_kill(kill);
        std::unique_ptr<WorkerPool> pool;
        if (threads > 0) pool = std::make_unique<WorkerPool>(threads);

        StatusOr<PhysicalPlan> plan = tpch::BuildQuery(q, db);
        ASSERT_TRUE(plan.ok()) << plan.status();
        ExecContext ctx;
        ctx.set_guard(&guard);
        ctx.set_spill_manager(&spill);
        ctx.set_worker_pool(pool.get());
        exec::DriveResult run =
            exec::Drive(&plan.value(), {.ctx = &ctx, .collect_rows = true});
        std::string status = run.status.ToString();
        std::string rows = testutil::RowsToString(run.rows);
        uint64_t total = run.work;
        EXPECT_EQ(ctx.buffered_rows(), 0u);

        StatusOr<PhysicalPlan> monitored = tpch::BuildQuery(q, db);
        ASSERT_TRUE(monitored.ok()) << monitored.status();
        JsonlStringSink sink;
        TelemetryCollector collector(&sink);
        MonitorOptions mo;
        mo.guard = &guard;
        mo.spill_manager = &spill;
        mo.worker_pool = pool.get();
        mo.telemetry = &collector;
        ProgressMonitor m = ProgressMonitor::WithEstimators(
            &monitored.value(), {"dne", "pmax", "safe"}, mo);
        ProgressReport r = m.Run(500);
        EXPECT_EQ(r.status.ToString(), status) << "monitored run diverged";
        EXPECT_EQ(r.total_work, total) << "monitored total(Q) diverged";
        EXPECT_EQ(spill.live_runs(), 0u);
        EXPECT_EQ(CountSpillFiles(dir), 0);
        std::filesystem::remove_all(dir);

        if (threads == 0) {
          ref_status = status;
          ref_rows = std::move(rows);
          ref_total = total;
          ref_trace = sink.data();
          if (ref_trace.find("\"hashjoin.build\"") != std::string::npos ||
              ref_trace.find("\"hashagg.build\"") != std::string::npos) {
            ++grace_spills;
          }
          continue;
        }
        EXPECT_EQ(status, ref_status);
        EXPECT_EQ(total, ref_total) << "total(Q) diverged";
        EXPECT_TRUE(rows == ref_rows) << "rows diverged";
        EXPECT_TRUE(sink.data() == ref_trace) << "trace diverged";
      }
    }
    // The tripwire must reach the Grace leaf replay, not only Sort.
    EXPECT_GT(grace_spills, 0)
        << kill_tag << ": no TPC-H plan spilled a Grace operator";
  }
}

TEST(ParallelDeterminismTest, BoundsStayConsistentAndMonotoneUnderPool) {
  Table t = Keyed(1000, 131);
  std::string dir = MakeSpillDir("bounds");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(50);
  WorkerPool pool(4);
  PhysicalPlan plan = SortPlan(&t);
  MonitorOptions mo;
  mo.guard = &guard;
  mo.spill_manager = &spill;
  mo.worker_pool = &pool;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "pmax", "safe"}, mo);
  ProgressReport r = m.Run(64);
  ASSERT_TRUE(r.completed()) << r.status.ToString();
  ASSERT_FALSE(r.checkpoints.empty());
  EXPECT_GT(spill.stats().runs_created, 0u);
  uint64_t prev_work = 0;
  double prev_lb = 0, prev_ub = 0;
  for (const Checkpoint& cp : r.checkpoints) {
    // Consistency: the paper's invariant at the instant of the checkpoint.
    EXPECT_LE(static_cast<double>(cp.work), cp.work_lb + 1e-9)
        << "at work=" << cp.work;
    EXPECT_LE(cp.work_lb, cp.work_ub + 1e-9) << "at work=" << cp.work;
    EXPECT_LE(cp.work_lb, static_cast<double>(r.total_work) + 1e-9)
        << "LB exceeded the final total at work=" << cp.work;
    // Monotonicity: folding task shards must never move a bound backwards —
    // the operator-side pending counters advance only after each fold.
    EXPECT_GE(cp.work, prev_work);
    EXPECT_GE(cp.work_lb, prev_lb - 1e-9) << "LB regressed at " << cp.work;
    EXPECT_GE(cp.work_ub, prev_ub - 1e-9) << "UB regressed at " << cp.work;
    prev_work = cp.work;
    prev_lb = cp.work_lb;
    prev_ub = cp.work_ub;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// One-level merge and cancellation
// ---------------------------------------------------------------------------

TEST(ParallelSortTest, OneLevelMergeStaysStableAboveEightRuns) {
  // 1200 rows against a 50-row budget: ~24 runs, more than the 8 run tasks
  // in flight between folds, all read by the one query-thread merge — which
  // must still preserve stable (key, arrival) order, with and without a pool.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 1200; ++i) rows.push_back({I(i % 7), I(i)});
  Table t = testutil::MakeTable("t", {"k", "arrival"}, std::move(rows));
  for (int threads : {0, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    uint64_t runs = 0;
    StatusOr<std::vector<Row>> got =
        RunSpilling([&] { return SortPlan(&t); }, 50,
                    "onelevel_p" + std::to_string(threads), threads, &runs);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_GT(runs, 8u);
    ASSERT_EQ(got.value().size(), 1200u);
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
  }
}

TEST(ParallelSortTest, CancellationMidMergeLeavesNoResidue) {
  Table t = Keyed(1500, 113);
  for (int threads : {0, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string dir = MakeSpillDir("cancel_p" + std::to_string(threads));
    SpillManager spill(dir);
    QueryGuard guard;
    guard.set_max_buffered_rows(50);
    guard.set_check_interval(64);
    std::unique_ptr<WorkerPool> pool;
    PhysicalPlan plan = SortPlan(&t);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    if (threads > 0) {
      pool = std::make_unique<WorkerPool>(threads);
      ctx.set_worker_pool(pool.get());
    }
    // 1500 scan rows land first; cancelling past that puts the stop inside
    // the spill work that run tasks fold back and the merge reads.
    ctx.SetWorkObserver(64, [&](uint64_t work) {
      if (work >= 2048) guard.RequestCancel();
    });
    StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
    ASSERT_FALSE(got.ok()) << "cancellation ignored";
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();
    EXPECT_GT(spill.stats().runs_created, 0u);
    EXPECT_EQ(spill.live_runs(), 0u) << "cancelled run leaked spill runs";
    EXPECT_EQ(ctx.buffered_rows(), 0u) << "cancelled run leaked charges";
    EXPECT_EQ(CountSpillFiles(dir), 0) << "cancelled run leaked temp files";
    std::filesystem::remove_all(dir);
  }
}

TEST(ParallelSortTest, InputFaultWithRunTasksInFlightLeavesNoResidue) {
  // A sort.build fault at input row 400, after seven runs were handed off
  // and before the first fold (every 8 runs). The device model makes every
  // run write take milliseconds, so with a pool the run tasks are still
  // writing when the query thread stops: they must drain before their task
  // contexts are destroyed, and nothing may leak.
  Table t = Keyed(1500, 113);
  for (int threads : {0, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string dir = MakeSpillDir("infault_p" + std::to_string(threads));
    SpillManager spill(dir);
    spill.set_device_model({2000, 2000});
    QueryGuard guard;
    guard.set_max_buffered_rows(50);
    FaultInjector fi(3);
    FaultSpec spec;
    spec.site = faults::kSortBuild;
    spec.fail_on_hit = 400;
    fi.Arm(std::move(spec));
    std::unique_ptr<WorkerPool> pool;
    PhysicalPlan plan = SortPlan(&t);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    ctx.set_fault_injector(&fi);
    if (threads > 0) {
      pool = std::make_unique<WorkerPool>(threads);
      ctx.set_worker_pool(pool.get());
    }
    StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
    ASSERT_FALSE(got.ok()) << "injected sort.build fault ignored";
    EXPECT_EQ(got.status().code(), StatusCode::kInternal) << got.status();
    EXPECT_EQ(spill.stats().runs_created, 7u);
    EXPECT_EQ(spill.live_runs(), 0u) << "failed run leaked spill runs";
    EXPECT_EQ(ctx.buffered_rows(), 0u) << "failed run leaked charges";
    EXPECT_EQ(CountSpillFiles(dir), 0) << "failed run leaked temp files";
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Bounded memory under a finite kill threshold (DESIGN.md §10)
// ---------------------------------------------------------------------------

TEST(ParallelMemoryBoundTest, OversizedPartitionTripsKillLikeSerial) {
  // Every build row shares one key, so a single partition holds all 400
  // rows — more than the whole 120-row kill budget. The leaf loop runs on
  // the query thread at every pool size, so the kill must fire exactly
  // like the run without a pool, leaking nothing.
  Table probe = Keyed(50, 1);
  Table build = Keyed(400, 1);
  auto make = [&] { return JoinPlan(&probe, &build, JoinType::kInner); };
  StatusOr<std::vector<Row>> serial =
      RunSpilling(make, 64, "skew_serial", 0, nullptr, 120);
  ASSERT_FALSE(serial.ok()) << "serial run should trip the kill threshold";
  EXPECT_EQ(serial.status().code(), StatusCode::kResourceExhausted);
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StatusOr<std::vector<Row>> got = RunSpilling(
        make, 64, "skew_p" + std::to_string(threads), threads, nullptr, 120);
    ASSERT_FALSE(got.ok()) << "parallel run must honor the same kill contract";
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
        << got.status();
  }
}

TEST(ParallelMemoryBoundTest, SortKillThresholdBoundsHandedOffBuffers) {
  // Kill just above the soft budget: the sort's handed-off run buffers
  // (uncharged by design) would stack up to kInflightRunTasks x soft without
  // the early-fold bound. With it, flush_buffer folds before the uncharged
  // aggregate can pass the kill threshold — and the output must stay
  // byte-identical to the run without a pool at every pool size.
  Table t = Keyed(900, 101);
  auto make = [&] { return SortPlan(&t); };
  StatusOr<std::vector<Row>> serial =
      RunSpilling(make, 60, "sortkill_serial", 0, nullptr, 100);
  ASSERT_TRUE(serial.ok()) << serial.status();
  std::string expected = testutil::RowsToString(serial.value());
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StatusOr<std::vector<Row>> got =
        RunSpilling(make, 60, "sortkill_p" + std::to_string(threads), threads,
                    nullptr, 100);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(testutil::RowsToString(got.value()), expected);
  }
}

TEST(ParallelMemoryBoundTest, PermanentWriteFaultFailsFastAndCleans) {
  // A permanent spill.write fault (the disk-full model) fires at the first
  // Grace partition write, which runs on the query thread at every pool size:
  // the join must stop consuming input at once, surface the injected error,
  // and leave no charges, runs or temp files behind.
  Table probe = Keyed(400, 60);
  Table build = Keyed(500, 60);
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string dir = MakeSpillDir("wfault_p" + std::to_string(threads));
    SpillManager spill(dir);
    QueryGuard guard;
    guard.set_max_buffered_rows(64);
    FaultInjector fi(7);
    FaultSpec spec;
    spec.site = faults::kSpillWrite;
    spec.fail_on_hit = 1;
    fi.Arm(spec);
    WorkerPool pool(threads);
    PhysicalPlan plan = JoinPlan(&probe, &build, JoinType::kInner);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    ctx.set_worker_pool(&pool);
    ctx.set_fault_injector(&fi);
    StatusOr<std::vector<Row>> got = DriveRows(&plan, &ctx);
    ASSERT_FALSE(got.ok()) << "injected write fault ignored";
    EXPECT_EQ(got.status().code(), StatusCode::kInternal) << got.status();
    EXPECT_EQ(spill.live_runs(), 0u) << "failed run leaked spill runs";
    EXPECT_EQ(ctx.buffered_rows(), 0u) << "failed run leaked charges";
    EXPECT_EQ(CountSpillFiles(dir), 0) << "failed run leaked temp files";
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Recursive Grace partitioning (DESIGN.md §9)
// ---------------------------------------------------------------------------

/// Distinct int64 keys whose single-column key row hashes into depth-0 Grace
/// partition 0, so every build row collides into one oversized partition that
/// only the depth-salted re-split can spread.
std::vector<int64_t> PartitionZeroKeys(size_t want) {
  std::vector<int64_t> keys;
  for (int64_t k = 0; keys.size() < want; ++k) {
    if (RowHash()(Row{I(k)}) %
            static_cast<size_t>(kSpillFanout) ==
        0) {
      keys.push_back(k);
    }
  }
  return keys;
}

/// Build/probe pair engineered for depth-2 recursion under a 150-row kill
/// threshold: 200 distinct partition-0 keys x 8 build copies = 1600 rows in
/// one depth-0 partition. A single salted re-split leaves ~200-row children,
/// and by pigeonhole (8 x 150 < 1600) at least one child must still exceed
/// the headroom — the run can only complete through depth >= 2 leaves.
std::pair<Table, Table> DepthTwoTables() {
  std::vector<int64_t> keys = PartitionZeroKeys(200);
  std::vector<Row> brows, prows;
  for (int64_t k : keys) {
    for (int64_t i = 0; i < 8; ++i) brows.push_back({I(k), I(i)});
    for (int64_t i = 0; i < 2; ++i) prows.push_back({I(k), I(100 + i)});
  }
  return {testutil::MakeTable("b", {"k", "v"}, std::move(brows)),
          testutil::MakeTable("p", {"k", "v"}, std::move(prows))};
}

TEST(RecursiveGraceTest, DepthTwoResplitMatchesSerialAtEveryPoolSize) {
  auto [build, probe] = DepthTwoTables();
  auto make = [&] { return JoinPlan(&probe, &build, JoinType::kInner); };
  StatusOr<std::vector<Row>> serial =
      RunSpilling(make, 64, "grace2_serial", 0, nullptr, 150);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_EQ(serial.value().size(), 200u * 2 * 8);
  std::string expected = testutil::RowsToString(serial.value());
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StatusOr<std::vector<Row>> got = RunSpilling(
        make, 64, "grace2_p" + std::to_string(threads), threads, nullptr, 150);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(testutil::RowsToString(got.value()), expected);
  }
}

TEST(RecursiveGraceTest, DepthTwoTracesCarryDepthAndMatchAcrossPoolSizes) {
  // The refinement happens on the query thread, so the full trace — including
  // the spill_begin events that carry each child run's recursion depth — must
  // be byte-identical at every pool size, and the v3 depth field must show
  // the re-splits actually reaching depth 2.
  auto [build, probe] = DepthTwoTables();
  std::string reference;
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string dir = MakeSpillDir("grace2_trace_p" + std::to_string(threads));
    SpillManager spill(dir);
    QueryGuard guard;
    guard.set_max_buffered_rows(64);
    guard.set_max_buffered_rows_kill(150);
    WorkerPool pool(threads);
    PhysicalPlan plan = JoinPlan(&probe, &build, JoinType::kInner);
    JsonlStringSink sink;
    TelemetryCollector collector(&sink);
    MonitorOptions options;
    options.guard = &guard;
    options.spill_manager = &spill;
    options.worker_pool = &pool;
    options.telemetry = &collector;
    ProgressMonitor m = ProgressMonitor::WithEstimators(
        &plan, {"dne", "pmax", "safe"}, std::move(options));
    ProgressReport r = m.Run(200);
    ASSERT_TRUE(r.completed()) << r.status.ToString();
    if (reference.empty()) {
      reference = sink.data();
      EXPECT_NE(reference.find("\"depth\":1"), std::string::npos)
          << "no depth-1 re-split in the trace";
      EXPECT_NE(reference.find("\"depth\":2"), std::string::npos)
          << "no depth-2 re-split in the trace";
    } else {
      EXPECT_EQ(sink.data(), reference) << "trace diverged";
    }
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Recursive Grace partitioning in HashAggregate (DESIGN.md §9)
// ---------------------------------------------------------------------------

PhysicalPlan AggPlan(const Table* t) {
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0));
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, eb::Col(1), "total");
  return PhysicalPlan(std::make_unique<HashAggregate>(
      std::make_unique<SeqScan>(t), std::move(groups),
      std::vector<std::string>{"g"}, std::move(aggs)));
}

/// Aggregate input engineered for depth-2 recursion under a 150-row kill
/// threshold: 200 distinct partition-0 group keys x 8 rows each, key-major.
/// The first keys fill the 64-group soft budget in memory; every later key's
/// rows spill into depth-0 partition 0 (~1090 rows). Beside the ~64 resident
/// groups only ~86 rows of kill headroom remain, so one salted re-split
/// (~136-row children) is not enough and the run completes only through
/// depth-2 leaves.
Table AggRecursionTable() {
  std::vector<Row> rows;
  for (int64_t k : PartitionZeroKeys(200)) {
    for (int64_t i = 0; i < 8; ++i) rows.push_back({I(k), I(i)});
  }
  return testutil::MakeTable("a", {"k", "v"}, std::move(rows));
}

/// 64 one-row filler groups fill the 64-row soft budget, then 400 rows of
/// one further key spill into a single depth-0 partition that no salted
/// re-split can spread.
Table SingleKeySkewTable() {
  std::vector<Row> rows;
  for (int64_t k = 0; k < 64; ++k) rows.push_back({I(k), I(k)});
  for (int64_t i = 0; i < 400; ++i) rows.push_back({I(1000), I(i)});
  return testutil::MakeTable("s", {"k", "v"}, std::move(rows));
}

/// The plan's rows with nothing spilled: no guard, no spill manager.
std::vector<Row> InMemoryRows(PhysicalPlan plan) {
  ExecContext ctx;
  StatusOr<std::vector<Row>> rows = DriveRows(&plan, &ctx);
  EXPECT_TRUE(rows.ok()) << rows.status();
  return rows.ok() ? std::move(rows).value() : std::vector<Row>{};
}

/// Drives `plan` under a spilling budget with telemetry only (no monitor, so
/// no estimator doubles in the output) and returns the JSONL trace followed
/// by the ordered result rows. Asserts the run completes and leaks nothing.
std::string TraceAndRows(PhysicalPlan plan, uint64_t soft_budget,
                         uint64_t kill_budget, int pool_threads,
                         const std::string& tag) {
  std::string dir = MakeSpillDir(tag);
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(soft_budget);
  guard.set_max_buffered_rows_kill(kill_budget);
  JsonlStringSink sink;
  TelemetryCollector collector(&sink);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  ctx.set_telemetry(&collector);
  std::unique_ptr<WorkerPool> pool;
  if (pool_threads > 0) {
    pool = std::make_unique<WorkerPool>(pool_threads);
    ctx.set_worker_pool(pool.get());
  }
  StatusOr<std::vector<Row>> rows = DriveRows(&plan, &ctx);
  EXPECT_TRUE(rows.ok()) << tag << ": " << rows.status();
  EXPECT_EQ(spill.live_runs(), 0u) << tag;
  EXPECT_EQ(ctx.buffered_rows(), 0u) << tag;
  EXPECT_EQ(CountSpillFiles(dir), 0) << tag;
  std::filesystem::remove_all(dir);
  return sink.data() + (rows.ok() ? testutil::RowsToString(rows.value()) : "");
}

TEST(RecursiveGraceTest, AggregateResplitMatchesInMemoryAndSerial) {
  Table t = AggRecursionTable();
  auto make = [&] { return AggPlan(&t); };
  std::vector<Row> in_memory = InMemoryRows(make());
  ASSERT_EQ(in_memory.size(), 200u);
  StatusOr<std::vector<Row>> serial =
      RunSpilling(make, 64, "aggrec_serial", 0, nullptr, 150);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(testutil::RowsToString(Sorted(serial.value())),
            testutil::RowsToString(Sorted(in_memory)));
  std::string expected = testutil::RowsToString(serial.value());
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StatusOr<std::vector<Row>> got = RunSpilling(
        make, 64, "aggrec_p" + std::to_string(threads), threads, nullptr, 150);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(testutil::RowsToString(got.value()), expected);
  }
}

TEST(RecursiveGraceTest, AggregateTracesCarryDepthAndMatchAcrossPoolSizes) {
  Table t = AggRecursionTable();
  std::string serial = TraceAndRows(AggPlan(&t), 64, 150, 0, "aggrec_trace");
  EXPECT_NE(serial.find("\"depth\":1"), std::string::npos)
      << "no depth-1 re-split in the serial trace";
  EXPECT_NE(serial.find("\"depth\":2"), std::string::npos)
      << "no depth-2 re-split in the serial trace";
  std::string reference;
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string got = TraceAndRows(AggPlan(&t), 64, 150, threads,
                                   "aggrec_trace_p" + std::to_string(threads));
    if (reference.empty()) {
      reference = got;
      EXPECT_NE(reference.find("\"depth\":2"), std::string::npos);
    } else {
      EXPECT_EQ(got, reference) << "trace or rows diverged";
    }
  }
}

TEST(RecursiveGraceTest, AggregateAdmitsSingleKeySkewThatAbortsTheJoin) {
  // The join holds rows, so a 400-row single-key partition over a 120-row
  // kill threshold can never be processed: it aborts at refinement. The
  // aggregate holds groups — that partition is one group — so the same skew
  // is admitted alone and completes, at every pool size.
  Table t = SingleKeySkewTable();
  auto join = [&] { return JoinPlan(&t, &t, JoinType::kInner); };
  for (int threads : {0, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StatusOr<std::vector<Row>> aborted = RunSpilling(
        join, 64, "skewjoin_p" + std::to_string(threads), threads, nullptr,
        120);
    ASSERT_FALSE(aborted.ok()) << "the join must refuse single-key skew";
    EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted)
        << aborted.status();
  }
  auto make = [&] { return AggPlan(&t); };
  std::vector<Row> in_memory = InMemoryRows(make());
  ASSERT_EQ(in_memory.size(), 65u);
  StatusOr<std::vector<Row>> serial =
      RunSpilling(make, 64, "skewagg_serial", 0, nullptr, 120);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(testutil::RowsToString(Sorted(serial.value())),
            testutil::RowsToString(Sorted(in_memory)));
  std::string expected = testutil::RowsToString(serial.value());
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StatusOr<std::vector<Row>> got = RunSpilling(
        make, 64, "skewagg_p" + std::to_string(threads), threads, nullptr,
        120);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(testutil::RowsToString(got.value()), expected);
  }
}

TEST(RecursiveGraceTest, AggregateAdmitsLeavesAloneAtTheDepthCap) {
  // 300 partition-0 group keys x 3 rows, key-major. The first 64 keys fill
  // the soft budget, so a 68-row kill threshold leaves 4 rows of headroom.
  // Two spilled keys that share their partition at every level down to
  // kMaxGraceDepth form a 6-row leaf no further pass may split: the
  // aggregate admits it alone (its 2 groups fit) where the join would abort.
  std::vector<int64_t> keys = PartitionZeroKeys(300);
  std::vector<Row> rows;
  std::map<std::vector<size_t>, int> capped_leaves;
  bool shared_leaf = false;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (int64_t r = 0; r < 3; ++r) rows.push_back({I(keys[i]), I(r)});
    std::vector<size_t> path;
    for (int level = 1; level <= kMaxGraceDepth; ++level) {
      path.push_back(GracePartitionOf(Row{I(keys[i])}, level));
    }
    if (i >= 64 && ++capped_leaves[path] > 1) shared_leaf = true;
  }
  ASSERT_TRUE(shared_leaf) << "no two spilled keys share a depth-cap leaf";
  Table t = testutil::MakeTable("c", {"k", "v"}, std::move(rows));
  auto make = [&] { return AggPlan(&t); };
  std::vector<Row> in_memory = InMemoryRows(make());
  ASSERT_EQ(in_memory.size(), 300u);
  StatusOr<std::vector<Row>> serial =
      RunSpilling(make, 64, "aggcap", 0, nullptr, 68);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(testutil::RowsToString(Sorted(serial.value())),
            testutil::RowsToString(Sorted(in_memory)));
  std::string trace = TraceAndRows(make(), 64, 68, 0, "aggcap_trace");
  EXPECT_NE(trace.find("\"depth\":" + std::to_string(kMaxGraceDepth)),
            std::string::npos)
      << "no leaf reached the depth cap";
  std::string expected = testutil::RowsToString(serial.value());
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StatusOr<std::vector<Row>> got = RunSpilling(
        make, 64, "aggcap_p" + std::to_string(threads), threads, nullptr, 68);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(testutil::RowsToString(got.value()), expected);
  }
}

TEST(RecursiveGraceTest, GoldenDigestsPinSerialAndPooledGraceRuns) {
  // FNV-1a 64 over the telemetry trace plus the ordered rows of the depth-2
  // Grace join and the depth-2 aggregate re-split, serial and on four
  // workers. The digests were recorded before the join and the aggregate
  // shared one Grace module; any change to routing, leaf order, task keys or
  // spill accounting shows up here. The leaf loop runs on the query thread
  // at both pool sizes, so the digests coincide.
  auto [build, probe] = DepthTwoTables();
  Table agg_input = AggRecursionTable();
  auto join = [&] { return JoinPlan(&probe, &build); };
  auto agg = [&] { return AggPlan(&agg_input); };
  struct Golden {
    const char* name;
    std::function<PhysicalPlan()> make;
    int threads;
    uint64_t digest;
  };
  const Golden kGolden[] = {
      {"join_p0", join, 0, 0xe3506d1016d37a7cULL},
      {"join_p4", join, 4, 0xe3506d1016d37a7cULL},
      {"agg_p0", agg, 0, 0xde016025c16c7e54ULL},
      {"agg_p4", agg, 4, 0xde016025c16c7e54ULL},
  };
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.name);
    uint64_t digest = Fnv1a64(TraceAndRows(g.make(), 64, 150, g.threads,
                                           std::string("golden_") + g.name));
    EXPECT_EQ(digest, g.digest)
        << g.name << " digest 0x" << std::hex << digest;
  }
}

// ---------------------------------------------------------------------------
// VARCHAR rows read back from spill runs (DESIGN.md §2, "String ownership")
// ---------------------------------------------------------------------------

/// Distinct VARCHAR keys whose key row hashes into depth-0 Grace partition 0,
/// the string twin of PartitionZeroKeys.
std::vector<std::string> PartitionZeroStringKeys(size_t want) {
  std::vector<std::string> keys;
  for (int64_t k = 0; keys.size() < want; ++k) {
    std::string key = "key-" + std::to_string(k);
    if (RowHash()(Row{Value::String(key)}) %
            static_cast<size_t>(kSpillFanout) ==
        0) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(SpilledStringTest, SortJoinAndAggregateRowsOutliveTheirRuns) {
  // VARCHAR keys and payloads through a spilling Sort, a depth-2 Grace join
  // and a HashAggregate replay, serial and on four workers. When Drive
  // returns every run is discarded; the rows still view the strings the
  // runs decoded, now held by the manager, and must equal the in-memory
  // reference.
  std::vector<std::string> keys = PartitionZeroStringKeys(200);
  std::vector<Row> sort_rows, build_rows, probe_rows;
  for (int64_t i = 1999; i >= 0; --i) {
    sort_rows.push_back({S(keys[i % 200]), S("pay-" + std::to_string(i))});
  }
  for (const std::string& k : keys) {
    for (int i = 0; i < 8; ++i) build_rows.push_back({S(k), S("b" + k)});
    for (int i = 0; i < 2; ++i) probe_rows.push_back({S(k), S("p" + k)});
  }
  Table sort_t = testutil::MakeTable("s", {"k", "v"}, std::move(sort_rows));
  Table build = testutil::MakeTable("b", {"k", "v"}, std::move(build_rows));
  Table probe = testutil::MakeTable("p", {"k", "v"}, std::move(probe_rows));
  auto agg_plan = [&] {
    std::vector<ExprPtr> groups;
    groups.push_back(eb::Col(0));
    std::vector<AggregateDesc> aggs;
    aggs.emplace_back(AggFunc::kMin, eb::Col(1), "lo");
    aggs.emplace_back(AggFunc::kMax, eb::Col(1), "hi");
    return PhysicalPlan(std::make_unique<HashAggregate>(
        std::make_unique<SeqScan>(&sort_t), std::move(groups),
        std::vector<std::string>{"g"}, std::move(aggs)));
  };
  struct Case {
    const char* name;
    std::function<PhysicalPlan()> make;
    uint64_t kill;
    bool ordered;  // compare in output order, not sorted
  };
  const Case kCases[] = {
      {"sort", [&] { return SortPlan(&sort_t); }, QueryGuard::kNoLimit, true},
      {"join", [&] { return JoinPlan(&probe, &build); }, 150, false},
      {"agg", agg_plan, QueryGuard::kNoLimit, false},
  };
  for (const Case& c : kCases) {
    std::vector<Row> reference = InMemoryRows(c.make());
    ASSERT_FALSE(reference.empty()) << c.name;
    for (int threads : {0, 4}) {
      SCOPED_TRACE(std::string(c.name) + " threads=" + std::to_string(threads));
      std::string dir = MakeSpillDir(std::string("strings_") + c.name +
                                     std::to_string(threads));
      SpillManager spill(dir);
      QueryGuard guard;
      guard.set_max_buffered_rows(64);
      guard.set_max_buffered_rows_kill(c.kill);
      PhysicalPlan plan = c.make();
      ExecContext ctx;
      ctx.set_guard(&guard);
      ctx.set_spill_manager(&spill);
      std::unique_ptr<WorkerPool> pool;
      if (threads > 0) {
        pool = std::make_unique<WorkerPool>(threads);
        ctx.set_worker_pool(pool.get());
      }
      StatusOr<std::vector<Row>> rows = DriveRows(&plan, &ctx);
      ASSERT_TRUE(rows.ok()) << rows.status();
      EXPECT_GT(spill.stats().runs_created, 0u) << "nothing spilled";
      ASSERT_EQ(spill.live_runs(), 0u);
      EXPECT_EQ(testutil::RowsToString(c.ordered ? rows.value()
                                                 : Sorted(rows.value())),
                testutil::RowsToString(c.ordered ? reference
                                                 : Sorted(reference)));
      std::filesystem::remove_all(dir);
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel HashAggregate spilled-partition replay (DESIGN.md §9)
// ---------------------------------------------------------------------------

TEST(ParallelAggregateTest, ReplayRowsMatchSerialAtEveryPoolSize) {
  // 300 groups against a 60-group budget: most groups land in spilled
  // partitions and come back through the leaf loop. Output must be
  // byte-identical to the run without a pool, both unconstrained and under
  // a kill threshold.
  Table t = Keyed(900, 300);
  auto make = [&] { return AggPlan(&t); };
  for (uint64_t kill : {QueryGuard::kNoLimit, uint64_t{200}}) {
    SCOPED_TRACE(kill == QueryGuard::kNoLimit ? "no-kill" : "kill=200");
    std::string tag = kill == QueryGuard::kNoLimit ? "agg" : "aggk";
    StatusOr<std::vector<Row>> serial =
        RunSpilling(make, 60, tag + "_serial", 0, nullptr, kill);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_EQ(serial.value().size(), 300u);
    std::string expected = testutil::RowsToString(serial.value());
    for (int threads : kPoolSizes) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      StatusOr<std::vector<Row>> got = RunSpilling(
          make, 60, tag + "_p" + std::to_string(threads), threads, nullptr,
          kill);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(testutil::RowsToString(got.value()), expected);
    }
  }
}

TEST(ParallelAggregateTest, PooledReplayReleasesResidentGroupsFirst) {
  // 2000 distinct keys, one row each, all routed to depth-0 partition 0.
  // The first 64 groups fill the soft budget and stay resident; the rest
  // spill. A 66-row kill threshold leaves room for the replay only once the
  // resident groups are released, as the leaf loop does before loading
  // its first leaf. With a pool attached the same leaf loop runs, and it
  // must finish with the rows of the run without a pool instead of aborting
  // on kResourceExhausted.
  std::vector<Row> rows;
  for (int64_t k : PartitionZeroKeys(2000)) rows.push_back({I(k), I(1)});
  Table t = testutil::MakeTable("z", {"k", "v"}, std::move(rows));
  auto make = [&] { return AggPlan(&t); };
  StatusOr<std::vector<Row>> serial =
      RunSpilling(make, 64, "aggrelease_serial", 0, nullptr, 66);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_EQ(serial.value().size(), 2000u);
  std::string expected = testutil::RowsToString(serial.value());
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StatusOr<std::vector<Row>> got = RunSpilling(
        make, 64, "aggrelease_p" + std::to_string(threads), threads, nullptr,
        66);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(testutil::RowsToString(got.value()), expected);
  }
}

TEST(ParallelAggregateTest, TracesAndScoresMatchAcrossPoolSizes) {
  Table t = Keyed(900, 300);
  std::string reference_trace;
  std::string reference_tsv;
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string dir = MakeSpillDir("aggtrace_p" + std::to_string(threads));
    SpillManager spill(dir);
    QueryGuard guard;
    guard.set_max_buffered_rows(60);
    WorkerPool pool(threads);
    PhysicalPlan plan = AggPlan(&t);
    JsonlStringSink sink;
    TelemetryCollector collector(&sink);
    MonitorOptions options;
    options.guard = &guard;
    options.spill_manager = &spill;
    options.worker_pool = &pool;
    options.telemetry = &collector;
    ProgressMonitor m = ProgressMonitor::WithEstimators(
        &plan, {"dne", "dne_pessimistic", "safe"}, std::move(options));
    ProgressReport r = m.Run(100);
    ASSERT_TRUE(r.completed()) << r.status.ToString();
    EXPECT_GT(spill.stats().runs_created, 0u);
    if (reference_trace.empty()) {
      reference_trace = sink.data();
      reference_tsv = r.ToTsv();
      EXPECT_FALSE(reference_trace.empty());
    } else {
      EXPECT_EQ(sink.data(), reference_trace) << "trace diverged";
      EXPECT_EQ(r.ToTsv(), reference_tsv) << "estimator scores diverged";
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace qprog
