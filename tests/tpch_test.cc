// TPC-H generator integrity and query-plan smoke/sanity tests.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "core/monitor.h"
#include "index/ordered_index.h"
#include "stats/table_stats.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/schema.h"
#include "tests/test_util.h"

namespace qprog {
namespace tpch {
namespace {

// One small database shared by all tests in this binary.
class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    TpchConfig config;
    config.scale_factor = 0.002;  // ~3000 orders, ~12000 lineitems
    config.z = 2.0;
    Status s = GenerateTpch(config, db_);
    QPROG_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* TpchTest::db_ = nullptr;

TEST_F(TpchTest, AllTablesPresentWithExpectedCounts) {
  EXPECT_EQ(db_->GetTable("region")->num_rows(), 5u);
  EXPECT_EQ(db_->GetTable("nation")->num_rows(), 25u);
  EXPECT_EQ(db_->GetTable("supplier")->num_rows(), ExpectedSuppliers(0.002));
  EXPECT_EQ(db_->GetTable("part")->num_rows(), ExpectedParts(0.002));
  EXPECT_EQ(db_->GetTable("customer")->num_rows(), ExpectedCustomers(0.002));
  EXPECT_EQ(db_->GetTable("orders")->num_rows(), ExpectedOrders(0.002));
  EXPECT_EQ(db_->GetTable("partsupp")->num_rows(),
            ExpectedParts(0.002) * 4);
  uint64_t lines = db_->GetTable("lineitem")->num_rows();
  EXPECT_GE(lines, ExpectedOrders(0.002));      // >= 1 per order
  EXPECT_LE(lines, ExpectedOrders(0.002) * 7);  // <= 7 per order
}

TEST_F(TpchTest, ForeignKeysAreValid) {
  const Table* lineitem = db_->GetTable("lineitem");
  const uint64_t orders = db_->GetTable("orders")->num_rows();
  const uint64_t parts = db_->GetTable("part")->num_rows();
  const uint64_t supps = db_->GetTable("supplier")->num_rows();
  for (uint64_t i = 0; i < lineitem->num_rows(); i += 7) {
    int64_t ok = lineitem->at(i, l::kOrderkey).int64_value();
    int64_t pk = lineitem->at(i, l::kPartkey).int64_value();
    int64_t sk = lineitem->at(i, l::kSuppkey).int64_value();
    ASSERT_GE(ok, 1);
    ASSERT_LE(ok, static_cast<int64_t>(orders));
    ASSERT_GE(pk, 1);
    ASSERT_LE(pk, static_cast<int64_t>(parts));
    ASSERT_GE(sk, 1);
    ASSERT_LE(sk, static_cast<int64_t>(supps));
  }
  const Table* nation = db_->GetTable("nation");
  for (uint64_t i = 0; i < nation->num_rows(); ++i) {
    int64_t rk = nation->at(i, n::kRegionkey).int64_value();
    EXPECT_GE(rk, 0);
    EXPECT_LE(rk, 4);
  }
}

TEST_F(TpchTest, DateRelationshipsHold) {
  const Table* lineitem = db_->GetTable("lineitem");
  for (uint64_t i = 0; i < lineitem->num_rows(); i += 13) {
    int32_t ship = lineitem->at(i, l::kShipdate).date_value();
    int32_t receipt = lineitem->at(i, l::kReceiptdate).date_value();
    EXPECT_GT(receipt, ship);
  }
}

TEST_F(TpchTest, SkewProducesHotKeys) {
  // With z=2, the most frequent l_partkey should cover a large share.
  const Table* lineitem = db_->GetTable("lineitem");
  std::map<int64_t, uint64_t> counts;
  for (uint64_t i = 0; i < lineitem->num_rows(); ++i) {
    ++counts[lineitem->at(i, l::kPartkey).int64_value()];
  }
  uint64_t max_count = 0;
  for (const auto& [k, v] : counts) max_count = std::max(max_count, v);
  EXPECT_GT(static_cast<double>(max_count) /
                static_cast<double>(lineitem->num_rows()),
            0.3);
}

TEST_F(TpchTest, IndexesAndStatsCollected) {
  EXPECT_NE(db_->GetOrderedIndex("lineitem", "l_orderkey"), nullptr);
  EXPECT_NE(db_->GetOrderedIndex("orders", "o_orderkey"), nullptr);
  EXPECT_NE(db_->GetStats("lineitem"), nullptr);
  EXPECT_GT(db_->GetStats("lineitem")->num_columns(), 0u);
}

TEST_F(TpchTest, UniformGeneratorWhenZZero) {
  Database db;
  TpchConfig config;
  config.scale_factor = 0.001;
  config.z = 0.0;
  config.build_indexes = false;
  config.collect_stats = false;
  ASSERT_TRUE(GenerateTpch(config, &db).ok());
  EXPECT_EQ(db.GetTable("supplier")->num_rows(), ExpectedSuppliers(0.001));
}

TEST_F(TpchTest, GeneratorRejectsBadConfig) {
  Database db;
  TpchConfig config;
  config.scale_factor = 0;
  EXPECT_FALSE(GenerateTpch(config, &db).ok());
  config.scale_factor = 0.01;
  config.z = -1;
  EXPECT_FALSE(GenerateTpch(config, &db).ok());
}

TEST_F(TpchTest, BuildQueryRejectsUnknownNumbers) {
  EXPECT_FALSE(BuildQuery(0, *db_).ok());
  EXPECT_FALSE(BuildQuery(23, *db_).ok());
  EXPECT_EQ(AvailableQueries().size(), 22u);
}

class TpchQuerySmokeTest : public TpchTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(TpchQuerySmokeTest, ExecutesAndHasSaneMu) {
  int q = GetParam();
  auto plan = BuildQuery(q, *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ProgressMonitor monitor =
      ProgressMonitor::WithEstimators(&plan.value(), {"pmax", "safe"});
  ProgressReport report = monitor.RunWithApproxCheckpoints(30);
  EXPECT_GT(report.total_work, 0u) << "Q" << q;
  // mu >= 1 by construction (every scanned leaf row is one getnext), and
  // single digits for all TPC-H plans (Table 2 tops out at 2.78).
  EXPECT_GE(report.mu, 1.0) << "Q" << q;
  EXPECT_LT(report.mu, 6.0) << "Q" << q;
  // pmax never under-reports progress (Property 4).
  int pmax = report.FindEstimator("pmax");
  for (const Checkpoint& c : report.checkpoints) {
    ASSERT_GE(c.estimates[pmax], c.true_progress - 1e-9) << "Q" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQuerySmokeTest,
                         ::testing::Range(1, 23));

TEST_F(TpchTest, Q1ReturnsSmallGroupCountAndQ6OneRow) {
  auto q1 = BuildQuery(1, *db_);
  ASSERT_TRUE(q1.ok());
  auto rows1 = CollectRows(&q1.value());
  EXPECT_GE(rows1.size(), 3u);
  EXPECT_LE(rows1.size(), 6u);

  auto q6 = BuildQuery(6, *db_);
  ASSERT_TRUE(q6.ok());
  auto rows6 = CollectRows(&q6.value());
  ASSERT_EQ(rows6.size(), 1u);
}

TEST_F(TpchTest, Q1MuMatchesPaperShape) {
  // Figure 3 / Table 2: mu just under 2 for Q1 (scan + ~98%-selective
  // filter + tiny aggregate).
  auto q1 = BuildQuery(1, *db_);
  ASSERT_TRUE(q1.ok());
  ProgressMonitor monitor =
      ProgressMonitor::WithEstimators(&q1.value(), {"dne"});
  ProgressReport report = monitor.RunWithApproxCheckpoints(50);
  EXPECT_GT(report.mu, 1.8);
  EXPECT_LT(report.mu, 2.05);
  // And dne is nearly exact on Q1 (the paper's Figure 3).
  auto m = report.Metrics(0);
  EXPECT_LT(m.avg_abs_err, 0.02);
}

TEST_F(TpchTest, Q13CountsCustomersWithoutOrders) {
  auto q13 = BuildQuery(13, *db_);
  ASSERT_TRUE(q13.ok());
  auto rows = CollectRows(&q13.value());
  ASSERT_FALSE(rows.empty());
  // Total customers across the distribution equals the customer count.
  int64_t total = 0;
  for (const Row& r : rows) total += r[1].int64_value();
  EXPECT_EQ(total,
            static_cast<int64_t>(db_->GetTable("customer")->num_rows()));
}

TEST_F(TpchTest, ResultsMatchGolden) {
  // Per query: the row count, FNV-1a 64 over the ordered rows' text and
  // total(Q), against tests/golden/tpch_results.txt. A plan rewrite that
  // changes no node (column pruning, say) must leave every line as it is.
  // On a mismatch the computed text is written to tpch_results.actual.txt
  // in the working directory, for diffing.
  std::string got;
  for (int q : AvailableQueries()) {
    auto plan = BuildQuery(q, *db_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    exec::DriveOptions opts;
    opts.collect_rows = true;
    exec::DriveResult result = exec::Drive(&plan.value(), opts);
    ASSERT_TRUE(result.ok()) << "Q" << q << ": " << result.status;
    char line[128];
    std::snprintf(line, sizeof(line),
                  "Q%d rows=%zu digest=%016" PRIx64 " total=%" PRIu64 "\n", q,
                  result.rows.size(),
                  testutil::Fnv1a64(testutil::RowsToString(result.rows)),
                  result.work);
    got += line;
  }
  std::ifstream in(QPROG_SOURCE_DIR "/tests/golden/tpch_results.txt");
  std::stringstream golden;
  golden << in.rdbuf();
  if (got != golden.str()) std::ofstream("tpch_results.actual.txt") << got;
  EXPECT_EQ(got, golden.str());
}

}  // namespace
}  // namespace tpch
}  // namespace qprog
