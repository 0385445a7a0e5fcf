// Cross-module integration tests: SQL over TPC-H under the full progress
// stack, consistency between SQL plans and hand-built plans, and end-to-end
// invariants over every estimator.

#include <gtest/gtest.h>

#include <cmath>

#include "core/monitor.h"
#include "sql/planner.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace qprog {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    config.z = 2.0;
    Status s = tpch::GenerateTpch(config, db_);
    QPROG_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  }
  static Database* db_;
};

Database* IntegrationTest::db_ = nullptr;

TEST_F(IntegrationTest, SqlAggregateMatchesHandPlanOnQ6) {
  // Q6 expressed in SQL must agree with the hand-built plan.
  auto sql_rows = sql::ExecuteSql(
      "SELECT sum(l_extendedprice * l_discount) FROM lineitem "
      "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE "
      "'1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
      *db_);
  ASSERT_TRUE(sql_rows.ok()) << sql_rows.status();
  auto hand = tpch::BuildQuery(6, *db_);
  ASSERT_TRUE(hand.ok());
  auto hand_rows = CollectRows(&hand.value());
  ASSERT_EQ(sql_rows->rows.size(), 1u);
  ASSERT_EQ(hand_rows.size(), 1u);
  if (sql_rows->rows[0][0].is_null()) {
    EXPECT_TRUE(hand_rows[0][0].is_null());
  } else {
    EXPECT_NEAR(sql_rows->rows[0][0].double_value(),
                hand_rows[0][0].double_value(), 1e-6);
  }
}

TEST_F(IntegrationTest, SqlAggregateMatchesHandPlanOnQ1) {
  auto sql_rows = sql::ExecuteSql(
      "SELECT l_returnflag, l_linestatus, sum(l_quantity), count(*) "
      "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
      "GROUP BY l_returnflag, l_linestatus "
      "ORDER BY l_returnflag, l_linestatus",
      *db_);
  ASSERT_TRUE(sql_rows.ok()) << sql_rows.status();
  auto hand = tpch::BuildQuery(1, *db_);
  ASSERT_TRUE(hand.ok());
  auto hand_rows = CollectRows(&hand.value());
  ASSERT_EQ(sql_rows->rows.size(), hand_rows.size());
  for (size_t i = 0; i < hand_rows.size(); ++i) {
    EXPECT_TRUE(sql_rows->rows[i][0].EqualsForGrouping(hand_rows[i][0]));
    EXPECT_TRUE(sql_rows->rows[i][1].EqualsForGrouping(hand_rows[i][1]));
    EXPECT_NEAR(sql_rows->rows[i][2].double_value(),
                hand_rows[i][2].double_value(), 1e-6);
    EXPECT_EQ(sql_rows->rows[i][3].int64_value(),
              hand_rows[i][9].int64_value());  // count_order is col 9 in Q1
  }
}

TEST_F(IntegrationTest, SqlJoinCountMatchesCatalog) {
  // Every lineitem joins exactly one order (FK integrity end-to-end).
  auto rows = sql::ExecuteSql(
      "SELECT count(*) FROM lineitem l JOIN orders o ON l.l_orderkey = "
      "o.o_orderkey",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].int64_value(),
            static_cast<int64_t>(db_->GetTable("lineitem")->num_rows()));
}

TEST_F(IntegrationTest, SqlPlanUnderProgressMonitor) {
  auto plan = sql::PlanSql(
      "SELECT o_orderpriority, count(*) FROM orders "
      "WHERE o_orderdate >= DATE '1994-01-01' GROUP BY o_orderpriority "
      "ORDER BY o_orderpriority",
      *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ProgressMonitor monitor =
      ProgressMonitor::WithEstimators(&plan.value(), AllEstimatorNames());
  ProgressReport report = monitor.RunWithApproxCheckpoints(50);
  ASSERT_FALSE(report.checkpoints.empty());
  int pmax = report.FindEstimator("pmax");
  int safe = report.FindEstimator("safe");
  for (const Checkpoint& c : report.checkpoints) {
    // pmax soundness and safe's ratio bound hold on SQL-planned trees too.
    ASSERT_GE(c.estimates[pmax], c.true_progress - 1e-9);
    if (c.true_progress > 0 && c.estimates[safe] > 0) {
      double ratio = std::max(c.estimates[safe] / c.true_progress,
                              c.true_progress / c.estimates[safe]);
      ASSERT_LE(ratio, std::sqrt(c.work_ub / std::max(1.0, c.work_lb)) *
                           (1 + 1e-9));
    }
  }
  EXPECT_EQ(report.root_rows, 5u);
}

TEST_F(IntegrationTest, HandPlansAndMonitorAgreeOnTotals) {
  // Running the same query under the monitor or standalone gives the same
  // total work (checkpointing must not perturb execution).
  for (int q : {1, 4, 12}) {
    auto plan1 = tpch::BuildQuery(q, *db_);
    ASSERT_TRUE(plan1.ok());
    uint64_t plain_total = MeasureTotalWork(&plan1.value());
    auto plan2 = tpch::BuildQuery(q, *db_);
    ProgressMonitor monitor =
        ProgressMonitor::WithEstimators(&plan2.value(), {"dne"});
    ProgressReport report = monitor.Run(97);
    EXPECT_EQ(report.total_work, plain_total) << "Q" << q;
  }
}

TEST_F(IntegrationTest, EstimatesMonotoneOnSimplePipeline) {
  // On a single filter pipeline, every estimator should be non-decreasing
  // over time (work only accumulates and bounds only tighten).
  auto plan = sql::PlanSql(
      "SELECT count(*) FROM lineitem WHERE l_quantity < 10", *db_);
  ASSERT_TRUE(plan.ok());
  ProgressMonitor monitor =
      ProgressMonitor::WithEstimators(&plan.value(), AllEstimatorNames());
  ProgressReport report = monitor.RunWithApproxCheckpoints(60);
  for (size_t e = 0; e < report.names.size(); ++e) {
    double prev = -1;
    for (const Checkpoint& c : report.checkpoints) {
      ASSERT_GE(c.estimates[e], prev - 1e-9) << report.names[e];
      prev = c.estimates[e];
    }
  }
}

TEST_F(IntegrationTest, EveryTpchQueryDeterministicAcrossRuns) {
  for (int q : {3, 13, 21}) {
    auto p1 = tpch::BuildQuery(q, *db_);
    auto p2 = tpch::BuildQuery(q, *db_);
    ASSERT_TRUE(p1.ok() && p2.ok());
    auto r1 = CollectRows(&p1.value());
    auto r2 = CollectRows(&p2.value());
    ASSERT_EQ(r1.size(), r2.size()) << "Q" << q;
    for (size_t i = 0; i < r1.size(); ++i) {
      EXPECT_TRUE(RowEq()(r1[i], r2[i])) << "Q" << q << " row " << i;
    }
  }
}

}  // namespace
}  // namespace qprog
