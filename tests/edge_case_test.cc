// Failure-injection / degenerate-input sweeps: every TPC-H plan over a
// completely empty database, zero-work monitoring, and single-row tables —
// the inputs where division guards and empty-phase handling break first.

#include <gtest/gtest.h>

#include "core/explain.h"
#include "core/monitor.h"
#include "sql/planner.h"
#include "tpch/queries.h"
#include "tpch/schema.h"
#include "workload/zipf_join.h"

namespace qprog {
namespace {

// A TPC-H catalog whose tables all have zero rows.
class EmptyTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    QPROG_CHECK(db_->AddTable(Table("region", tpch::RegionSchema())).ok());
    QPROG_CHECK(db_->AddTable(Table("nation", tpch::NationSchema())).ok());
    QPROG_CHECK(db_->AddTable(Table("supplier", tpch::SupplierSchema())).ok());
    QPROG_CHECK(db_->AddTable(Table("part", tpch::PartSchema())).ok());
    QPROG_CHECK(db_->AddTable(Table("partsupp", tpch::PartsuppSchema())).ok());
    QPROG_CHECK(db_->AddTable(Table("customer", tpch::CustomerSchema())).ok());
    QPROG_CHECK(db_->AddTable(Table("orders", tpch::OrdersSchema())).ok());
    QPROG_CHECK(db_->AddTable(Table("lineitem", tpch::LineitemSchema())).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* EmptyTpchTest::db_ = nullptr;

class EmptyTpchQueryTest : public EmptyTpchTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(EmptyTpchQueryTest, RunsToCompletionOverEmptyTables) {
  auto plan = tpch::BuildQuery(GetParam(), *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ExecContext ctx;
  uint64_t rows = exec::Drive(&plan.value(), {.ctx = &ctx}).root_rows;
  // Scalar-aggregate queries still yield one row; the rest yield none.
  EXPECT_LE(rows, 1u);
  // No base rows means (almost) no getnexts — except a non-root scalar
  // aggregate, which emits its single empty-input row.
  EXPECT_LE(ctx.work(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllQueriesEmpty, EmptyTpchQueryTest,
                         ::testing::Range(1, 23));

TEST_F(EmptyTpchTest, MonitorHandlesZeroWorkQueries) {
  auto plan = tpch::BuildQuery(1, *db_);
  ASSERT_TRUE(plan.ok());
  ProgressMonitor monitor =
      ProgressMonitor::WithEstimators(&plan.value(), AllEstimatorNames());
  ProgressReport report = monitor.Run(10);
  EXPECT_EQ(report.total_work, 0u);
  EXPECT_TRUE(report.checkpoints.empty());  // no work, no checkpoints
  // Metrics over an empty trace must not divide by zero.
  EstimatorMetrics m = report.Metrics(0);
  EXPECT_EQ(m.max_abs_err, 0.0);
}

TEST_F(EmptyTpchTest, ExplainOnUnstartedPlan) {
  auto plan = tpch::BuildQuery(21, *db_);
  ASSERT_TRUE(plan.ok());
  ExecContext ctx;
  ctx.Reset(plan.value().num_nodes());
  std::string s = ExplainWithBounds(plan.value(), ctx);
  EXPECT_NE(s.find("work=0"), std::string::npos);
}

TEST_F(EmptyTpchTest, SqlOverEmptyTables) {
  auto rows = sql::ExecuteSql(
      "SELECT count(*), sum(l_quantity) FROM lineitem", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].int64_value(), 0);
  EXPECT_TRUE(rows->rows[0][1].is_null());

  auto grouped = sql::ExecuteSql(
      "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag",
      *db_);
  ASSERT_TRUE(grouped.ok());
  EXPECT_TRUE(grouped->rows.empty());
}

TEST(EdgeCaseTest, SingleRowJoinWorkloads) {
  ZipfJoinConfig config;
  config.r1_rows = 1;
  config.r2_rows = 1;
  config.z = 0.0;
  ZipfJoinData data(config);
  PhysicalPlan inl = data.BuildInlPlan();
  PhysicalPlan hash = data.BuildHashPlan();
  auto r1 = CollectRows(&inl);
  auto r2 = CollectRows(&hash);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0][0].int64_value(), 1);
  EXPECT_EQ(r2[0][0].int64_value(), 1);
}

TEST(EdgeCaseTest, MonitorIntervalLargerThanTotalWork) {
  ZipfJoinConfig config;
  config.r1_rows = 50;
  config.r2_rows = 50;
  ZipfJoinData data(config);
  PhysicalPlan plan = data.BuildInlPlan();
  ProgressMonitor monitor = ProgressMonitor::WithEstimators(&plan, {"safe"});
  ProgressReport report = monitor.Run(1000000);
  EXPECT_TRUE(report.checkpoints.empty());
  EXPECT_GT(report.total_work, 0u);
  EXPECT_GE(report.mu, 1.0);
}

TEST(EdgeCaseTest, EstimatorsOnFirstWorkUnit) {
  // Checkpoint at the very first getnext: no division blowups, sane values.
  ZipfJoinConfig config;
  config.r1_rows = 100;
  config.r2_rows = 100;
  ZipfJoinData data(config);
  PhysicalPlan plan = data.BuildInlPlan();
  ProgressMonitor monitor =
      ProgressMonitor::WithEstimators(&plan, AllEstimatorNames());
  ProgressReport report = monitor.Run(1);
  ASSERT_FALSE(report.checkpoints.empty());
  const Checkpoint& first = report.checkpoints.front();
  EXPECT_EQ(first.work, 1u);
  for (double e : first.estimates) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
}

}  // namespace
}  // namespace qprog
