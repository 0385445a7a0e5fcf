// Exchange-operator tests (DESIGN.md §16): byte-identical rows, counters and
// traces for partitioned pipelines across pool sizes {1,2,4,8} and partition
// counts {1,2,8}; skewed-key repartitioning; deterministic cancellation and
// fault splits mid-exchange; `Curr <= LB <= UB` through repartition
// buffering including spill; governor revocation mid-materialize; and SQL
// equivalence of planner-built partitioned aggregations against serial.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/monitor.h"
#include "exec/aggregate.h"
#include "exec/exchange.h"
#include "exec/fault_injector.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "obs/telemetry.h"
#include "sql/session.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::I;
using testutil::Sorted;

const int kPoolSizes[] = {1, 2, 4, 8};
const size_t kPartitionCounts[] = {1, 2, 8};

std::string MakeSpillDir(const std::string& tag) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("qprog_exchange_test_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// n rows of (i mod buckets, i) — integer values only, so partitioned SUMs
/// are exact and association-order-free.
Table Keyed(int64_t n, int64_t buckets) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = n - 1; i >= 0; --i) rows.push_back({I(i % buckets), I(i)});
  return testutil::MakeTable("k", {"k", "v"}, std::move(rows));
}

/// 90% of rows share key 0; the rest spread over [1, buckets).
Table Skewed(int64_t n, int64_t buckets) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int64_t key = (i % 10 != 0) ? 0 : 1 + (i / 10) % (buckets - 1);
    rows.push_back({I(key), I(i)});
  }
  return testutil::MakeTable("s", {"k", "v"}, std::move(rows));
}

std::vector<AggregateDesc> CountSumAggs() {
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, eb::Col(1), "sv");
  aggs.emplace_back(AggFunc::kMin, eb::Col(1), "mn");
  aggs.emplace_back(AggFunc::kMax, eb::Col(1), "mx");
  return aggs;
}

/// Partitioned pipeline: `partitions` range scans -> partial aggregates ->
/// Exchange(hash on group key, `consumers` buckets) -> FinalAggregate.
PhysicalPlan PartitionedAggPlan(const Table* t, size_t partitions,
                                size_t consumers) {
  const uint64_t n = t->num_rows();
  std::vector<OperatorPtr> producers;
  for (size_t p = 0; p < partitions; ++p) {
    auto scan = std::make_unique<SeqScan>(t, nullptr, n * p / partitions,
                                          n * (p + 1) / partitions);
    std::vector<ExprPtr> groups;
    groups.push_back(eb::Col(0));
    producers.push_back(std::make_unique<PartialAggregate>(
        std::move(scan), std::move(groups), std::vector<std::string>{"k"},
        CountSumAggs()));
  }
  auto exchange = std::make_unique<Exchange>(
      std::move(producers), std::vector<size_t>{0}, consumers);
  return PhysicalPlan(std::make_unique<FinalAggregate>(
      std::move(exchange), 1, std::vector<std::string>{"k"}, CountSumAggs()));
}

/// Serial reference: one HashAggregate over a full scan. Its first-seen
/// output order differs from FinalAggregate's canonical sorted order, so
/// comparisons sort both sides.
PhysicalPlan SerialAggPlan(const Table* t) {
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0));
  return PhysicalPlan(std::make_unique<HashAggregate>(
      std::make_unique<SeqScan>(t), std::move(groups),
      std::vector<std::string>{"k"}, CountSumAggs()));
}

// ---------------------------------------------------------------------------
// Byte-identity matrix
// ---------------------------------------------------------------------------

// Rows are identical across the FULL pool x partition matrix: the canonical
// sorted output of FinalAggregate does not depend on how the input was
// split, and the fold order does not depend on how tasks were scheduled.
TEST(ExchangeDeterminismTest, RowsIdenticalAcrossPoolAndPartitionMatrix) {
  Table t = Keyed(1200, 97);
  ExecContext ref_ctx;
  PhysicalPlan ref_plan = SerialAggPlan(&t);
  exec::DriveResult ref =
      exec::Drive(&ref_plan, {.ctx = &ref_ctx, .collect_rows = true});
  ASSERT_TRUE(ref.ok()) << ref.status.ToString();
  const std::string want = testutil::RowsToString(Sorted(ref.rows));
  ASSERT_EQ(ref.rows.size(), 97u);

  for (size_t partitions : kPartitionCounts) {
    for (int threads : kPoolSizes) {
      SCOPED_TRACE("partitions=" + std::to_string(partitions) +
                   " threads=" + std::to_string(threads));
      WorkerPool pool(threads);
      ExecContext ctx;
      ctx.set_worker_pool(&pool);
      PhysicalPlan plan = PartitionedAggPlan(&t, partitions, partitions);
      exec::DriveResult got =
          exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      EXPECT_EQ(testutil::RowsToString(Sorted(got.rows)), want);
    }
  }
}

// At a fixed partition count the whole observable run — typed trace,
// estimator scores, total(Q) — is byte-identical at every pool size.
TEST(ExchangeDeterminismTest, TracesAndCountersByteIdenticalAcrossPoolSizes) {
  Table t = Keyed(1500, 113);
  for (size_t partitions : kPartitionCounts) {
    std::string reference_trace;
    std::string reference_tsv;
    uint64_t reference_total = 0;
    for (int threads : kPoolSizes) {
      SCOPED_TRACE("partitions=" + std::to_string(partitions) +
                   " threads=" + std::to_string(threads));
      WorkerPool pool(threads);
      PhysicalPlan plan = PartitionedAggPlan(&t, partitions, partitions);
      JsonlStringSink sink;
      TelemetryCollector collector(&sink);
      MonitorOptions mo;
      mo.worker_pool = &pool;
      mo.telemetry = &collector;
      ProgressMonitor m =
          ProgressMonitor::WithEstimators(&plan, {"dne", "safe"}, mo);
      ProgressReport r = m.Run(100);
      ASSERT_TRUE(r.completed()) << r.status.ToString();
      if (reference_trace.empty()) {
        reference_trace = sink.data();
        reference_tsv = r.ToTsv();
        reference_total = r.total_work;
        EXPECT_FALSE(reference_trace.empty());
        EXPECT_NE(reference_trace.find("exchange_begin"), std::string::npos);
        EXPECT_NE(reference_trace.find("partition_close"), std::string::npos);
      } else {
        EXPECT_EQ(sink.data(), reference_trace) << "trace diverged";
        EXPECT_EQ(r.ToTsv(), reference_tsv) << "estimator scores diverged";
        EXPECT_EQ(r.total_work, reference_total) << "total(Q) diverged";
      }
    }
  }
}

// Per-partition getnext sums at the exchange boundary: a partitioned scan's
// counters add up to exactly the serial scan's totals, so total(Q) does not
// depend on the partition count (the only extra work is the exchange's own
// replumbing, which scales with routed rows, not with partitions).
TEST(ExchangeDeterminismTest, PartitionedScanWorkSumsToSerialTotals) {
  Table t = Keyed(900, 30);
  for (size_t partitions : kPartitionCounts) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    ExecContext ctx;
    PhysicalPlan plan = PartitionedAggPlan(&t, partitions, partitions);
    exec::DriveResult r = exec::Drive(&plan, {.ctx = &ctx});
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    // Every base row is examined exactly once across all partitions.
    uint64_t scan_rows = 0;
    for (const PhysicalOperator* op : plan.nodes()) {
      if (op->kind() == OpKind::kSeqScan) {
        scan_rows += ctx.rows_produced(op->node_id());
      }
    }
    EXPECT_EQ(scan_rows, t.num_rows());
  }
}

// ---------------------------------------------------------------------------
// Skewed keys
// ---------------------------------------------------------------------------

TEST(ExchangeRepartitionTest, SkewedKeysRouteCorrectlyAtEveryPoolSize) {
  Table t = Skewed(2000, 16);
  ExecContext ref_ctx;
  PhysicalPlan ref_plan = SerialAggPlan(&t);
  exec::DriveResult ref =
      exec::Drive(&ref_plan, {.ctx = &ref_ctx, .collect_rows = true});
  ASSERT_TRUE(ref.ok());
  const std::string want = testutil::RowsToString(Sorted(ref.rows));

  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WorkerPool pool(threads);
    ExecContext ctx;
    ctx.set_worker_pool(&pool);
    PhysicalPlan plan = PartitionedAggPlan(&t, 8, 8);
    exec::DriveResult got =
        exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    EXPECT_EQ(testutil::RowsToString(Sorted(got.rows)), want)
        << "skewed repartition diverged";
  }
}

// ---------------------------------------------------------------------------
// Cancellation and faults mid-exchange
// ---------------------------------------------------------------------------

// A work-indexed cancel lands at the same counted getnext at every pool
// size: the fold replays producer counters at scheduled crossings, so the
// guard sees the cancel at one deterministic point regardless of threads.
TEST(ExchangeFaultTest, WorkIndexedCancelSplitsAtTheSameWorkEverywhere) {
  Table t = Keyed(2000, 59);
  uint64_t reference_work = 0;
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WorkerPool pool(threads);
    QueryGuard guard;
    guard.set_check_interval(1);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_worker_pool(&pool);
    ctx.SetWorkObserver(64, [&](uint64_t work) {
      if (work >= 1024) guard.RequestCancel();
    });
    PhysicalPlan plan = PartitionedAggPlan(&t, 4, 4);
    exec::DriveResult r = exec::Drive(&plan, {.ctx = &ctx});
    ASSERT_FALSE(r.ok()) << "cancellation ignored";
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status.ToString();
    if (reference_work == 0) {
      reference_work = ctx.work();
      EXPECT_GE(reference_work, 1024u);
    } else {
      EXPECT_EQ(ctx.work(), reference_work)
          << "cancel point diverged across pool sizes";
    }
  }
}

// An exchange.send fault stops the producer at the exact armed hit; the
// partial row prefix is never delivered past the failure.
TEST(ExchangeFaultTest, SendFaultStopsAtTheExactRow) {
  Table t = Keyed(600, 20);
  // Each of the 2 producers emits 20 partial-group rows, so the send
  // site is consulted 40 times per run.
  for (uint64_t fail_on_hit : {uint64_t{1}, uint64_t{25}}) {
    SCOPED_TRACE("fail_on_hit=" + std::to_string(fail_on_hit));
    FaultInjector fi;
    FaultSpec spec;
    spec.site = faults::kExchangeSend;
    spec.fail_on_hit = fail_on_hit;
    fi.Arm(std::move(spec));
    ExecContext ctx;
    ctx.set_fault_injector(&fi);
    PhysicalPlan plan = PartitionedAggPlan(&t, 2, 2);
    exec::DriveResult r =
        exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
    ASSERT_FALSE(r.ok()) << "exchange.send fault ignored";
    EXPECT_EQ(r.status.code(), StatusCode::kInternal);
    EXPECT_NE(r.status.message().find(faults::kExchangeSend),
              std::string::npos)
        << r.status.ToString();
    EXPECT_TRUE(r.rows.empty()) << "rows delivered past a failed exchange";
    EXPECT_EQ(fi.hit_count(faults::kExchangeSend), fail_on_hit);

    // Disarmed, the same plan and context run clean.
    fi.Disarm(faults::kExchangeSend);
    exec::DriveResult retry =
        exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
    EXPECT_TRUE(retry.ok()) << retry.status.ToString();
    EXPECT_EQ(retry.rows.size(), 20u);
  }
}

TEST(ExchangeFaultTest, RecvFaultStopsTheDrain) {
  Table t = Keyed(400, 10);
  FaultInjector fi;
  FaultSpec spec;
  spec.site = faults::kExchangeRecv;
  spec.fail_on_hit = 3;
  fi.Arm(std::move(spec));
  ExecContext ctx;
  ctx.set_fault_injector(&fi);
  PhysicalPlan plan = PartitionedAggPlan(&t, 2, 2);
  exec::DriveResult r = exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  EXPECT_NE(r.status.message().find(faults::kExchangeRecv), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bounds through repartition buffering
// ---------------------------------------------------------------------------

// The paper's invariant holds at every checkpoint of a partitioned run whose
// exchange is forced to spill: Curr <= LB <= UB, all three monotone.
TEST(ExchangeBoundsTest, BoundsMonotoneThroughSpillingRepartition) {
  Table t = Keyed(1500, 101);
  std::string dir = MakeSpillDir("bounds");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(40);  // 101 routed groups must overflow
  WorkerPool pool(4);
  PhysicalPlan plan = PartitionedAggPlan(&t, 8, 8);
  MonitorOptions mo;
  mo.guard = &guard;
  mo.spill_manager = &spill;
  mo.worker_pool = &pool;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "pmax", "safe"}, mo);
  ProgressReport r = m.Run(64);
  ASSERT_TRUE(r.completed()) << r.status.ToString();
  ASSERT_FALSE(r.checkpoints.empty());
  EXPECT_GT(spill.stats().runs_created, 0u) << "exchange never spilled";
  EXPECT_EQ(spill.live_runs(), 0u);
  uint64_t prev_work = 0;
  double prev_lb = 0, prev_ub = 0;
  for (const Checkpoint& cp : r.checkpoints) {
    EXPECT_LE(static_cast<double>(cp.work), cp.work_lb + 1e-9)
        << "Curr > LB at work=" << cp.work;
    EXPECT_LE(cp.work_lb, cp.work_ub + 1e-9) << "LB > UB at work=" << cp.work;
    EXPECT_GE(cp.work, prev_work);
    EXPECT_GE(cp.work_lb, prev_lb - 1e-9) << "LB regressed at " << cp.work;
    EXPECT_GE(cp.work_ub, prev_ub - 1e-9) << "UB regressed at " << cp.work;
    prev_work = cp.work;
    prev_lb = cp.work_lb;
    prev_ub = cp.work_ub;
  }
  std::filesystem::remove_all(dir);
}

// Spilled and in-memory exchanges produce identical rows; the spill only
// adds write/re-read work (the same dynamic-total(Q) revision as every
// other spilling operator).
TEST(ExchangeBoundsTest, SpilledExchangeMatchesInMemoryRows) {
  Table t = Keyed(1000, 73);
  ExecContext mem_ctx;
  PhysicalPlan mem_plan = PartitionedAggPlan(&t, 4, 4);
  exec::DriveResult mem =
      exec::Drive(&mem_plan, {.ctx = &mem_ctx, .collect_rows = true});
  ASSERT_TRUE(mem.ok());

  std::string dir = MakeSpillDir("rows");
  SpillManager spill(dir);
  QueryGuard guard;
  guard.set_max_buffered_rows(20);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  PhysicalPlan plan = PartitionedAggPlan(&t, 4, 4);
  exec::DriveResult got =
      exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_GT(spill.stats().runs_created, 0u) << "budget never forced a spill";
  EXPECT_EQ(spill.live_runs(), 0u);
  EXPECT_EQ(testutil::RowsToString(got.rows),
            testutil::RowsToString(mem.rows));
  EXPECT_GT(ctx.work(), mem_ctx.work()) << "spill work not counted";
  EXPECT_EQ(ctx.buffered_rows(), 0u);
  std::filesystem::remove_all(dir);
}

// A governor revocation mid-materialize (soft budget shrunk underneath the
// exchange) flushes the buckets and completes with identical rows.
TEST(ExchangeBoundsTest, MidRunRevocationFlushesAndCompletes) {
  Table t = Keyed(1200, 89);
  ExecContext ref_ctx;
  PhysicalPlan ref_plan = PartitionedAggPlan(&t, 4, 4);
  exec::DriveResult ref =
      exec::Drive(&ref_plan, {.ctx = &ref_ctx, .collect_rows = true});
  ASSERT_TRUE(ref.ok());

  std::string dir = MakeSpillDir("revoke");
  SpillManager spill(dir);
  QueryGuard guard;  // starts unconstrained
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  bool revoked = false;
  ctx.SetWorkObserver(32, [&](uint64_t work) {
    if (!revoked && work >= 600) {
      guard.set_max_buffered_rows(10);  // revocation: spill headroom gone
      revoked = true;
    }
  });
  PhysicalPlan plan = PartitionedAggPlan(&t, 4, 4);
  exec::DriveResult got =
      exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_TRUE(revoked);
  EXPECT_GT(spill.stats().runs_created, 0u) << "revocation never spilled";
  EXPECT_EQ(spill.live_runs(), 0u);
  EXPECT_EQ(testutil::RowsToString(got.rows),
            testutil::RowsToString(ref.rows));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// SQL equivalence (planner-built partitioned pipelines)
// ---------------------------------------------------------------------------

class ExchangeSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table t = Keyed(1000, 37);
    QPROG_CHECK(db_.AddTable(std::move(t)).ok());
    HistogramStatisticsGenerator gen(8);
    for (const std::string& name : db_.TableNames()) {
      db_.SetStats(name, gen.Generate(*db_.GetTable(name)));
    }
  }
  Database db_;
};

TEST_F(ExchangeSqlTest, PartitionedSessionMatchesSerialOnGroupBy) {
  const std::string query =
      "SELECT k, COUNT(*) AS c, SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx "
      "FROM k GROUP BY k";
  sql::SqlSession serial(&db_);
  StatusOr<sql::QueryRows> want = serial.Execute(query);
  ASSERT_TRUE(want.ok()) << want.status();

  WorkerPool pool(4);
  sql::SessionOptions opts;
  opts.partitions = 4;
  opts.worker_pool = &pool;
  sql::SqlSession partitioned(&db_, opts);
  StatusOr<sql::QueryRows> got = partitioned.Execute(query);
  ASSERT_TRUE(got.ok()) << got.status();
  // Serial HashAggregate emits first-seen order; FinalAggregate emits
  // key-sorted order — compare as sets.
  EXPECT_EQ(testutil::RowsToString(Sorted(got->rows)),
            testutil::RowsToString(Sorted(want->rows)));
}

TEST_F(ExchangeSqlTest, PartitionedPlanActuallyContainsAnExchange) {
  sql::PlanOptions popts;
  popts.partitions = 4;
  StatusOr<PhysicalPlan> plan =
      sql::PlanSql("SELECT k, COUNT(*) AS c FROM k GROUP BY k", db_, popts);
  ASSERT_TRUE(plan.ok()) << plan.status();
  bool has_exchange = false;
  size_t scans = 0;
  for (const PhysicalOperator* op : plan.value().nodes()) {
    if (op->kind() == OpKind::kExchange) has_exchange = true;
    if (op->kind() == OpKind::kSeqScan) ++scans;
  }
  EXPECT_TRUE(has_exchange) << plan.value().ToString();
  EXPECT_EQ(scans, 4u) << plan.value().ToString();
}

TEST_F(ExchangeSqlTest, NonDecomposableQueriesFallBackToSerialPlans) {
  sql::PlanOptions popts;
  popts.partitions = 4;
  // COUNT(DISTINCT) cannot split across an exchange.
  StatusOr<PhysicalPlan> plan = sql::PlanSql(
      "SELECT k, COUNT(DISTINCT v) AS c FROM k GROUP BY k", db_, popts);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const PhysicalOperator* op : plan.value().nodes()) {
    EXPECT_NE(op->kind(), OpKind::kExchange) << plan.value().ToString();
  }
  sql::SqlSession serial(&db_);
  sql::SessionOptions popts2;
  popts2.partitions = 4;
  sql::SqlSession partitioned(&db_, popts2);
  const std::string q = "SELECT k, COUNT(DISTINCT v) AS c FROM k GROUP BY k";
  StatusOr<sql::QueryRows> want = serial.Execute(q);
  StatusOr<sql::QueryRows> got = partitioned.Execute(q);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(testutil::RowsToString(Sorted(got->rows)),
            testutil::RowsToString(Sorted(want->rows)));
}

}  // namespace
}  // namespace qprog
