// Deep correctness validation of the hand-built TPC-H plans: each query that
// the SQL subset can express is recomputed through the independent SQL
// frontend/planner path and the answers are cross-checked. A bug in either
// the hand-built plan, the planner, or any operator shows up as a mismatch.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "sql/planner.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace qprog {
namespace {

class TpchEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.003;
    config.z = 2.0;
    Status s = tpch::GenerateTpch(config, db_);
    QPROG_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  }
  static Database* db_;
};

Database* TpchEquivalenceTest::db_ = nullptr;

TEST_F(TpchEquivalenceTest, Q3TopRowsAgreeWithSql) {
  // Full (un-limited) SQL result, keyed by orderkey.
  auto sql_rows = sql::ExecuteSql(
      "SELECT l_orderkey, o_orderdate, o_shippriority, "
      "sum(l_extendedprice * (1 - l_discount)) AS revenue "
      "FROM customer c, orders o, lineitem l "
      "WHERE c.c_mktsegment = 'BUILDING' AND c.c_custkey = o.o_custkey "
      "AND l.l_orderkey = o.o_orderkey "
      "AND o.o_orderdate < DATE '1995-03-15' "
      "AND l.l_shipdate > DATE '1995-03-15' "
      "GROUP BY l_orderkey, o_orderdate, o_shippriority",
      *db_);
  ASSERT_TRUE(sql_rows.ok()) << sql_rows.status();
  std::map<int64_t, double> revenue_by_order;
  for (const Row& r : sql_rows->rows) {
    revenue_by_order[r[0].int64_value()] = r[3].double_value();
  }

  auto hand = tpch::BuildQuery(3, *db_);
  ASSERT_TRUE(hand.ok());
  auto hand_rows = CollectRows(&hand.value());
  ASSERT_LE(hand_rows.size(), 10u);
  ASSERT_FALSE(hand_rows.empty());
  double prev_revenue = 1e300;
  for (const Row& r : hand_rows) {
    int64_t orderkey = r[0].int64_value();
    auto it = revenue_by_order.find(orderkey);
    ASSERT_NE(it, revenue_by_order.end()) << "orderkey " << orderkey;
    EXPECT_NEAR(r[3].double_value(), it->second, 1e-6);
    // Descending revenue ordering.
    EXPECT_LE(r[3].double_value(), prev_revenue + 1e-9);
    prev_revenue = r[3].double_value();
  }
}

TEST_F(TpchEquivalenceTest, Q5NationRevenueAgreesWithSql) {
  auto sql_rows = sql::ExecuteSql(
      "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue "
      "FROM customer c, orders o, lineitem l, supplier s, nation n, region r "
      "WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey "
      "AND l.l_suppkey = s.s_suppkey AND c.c_nationkey = s.s_nationkey "
      "AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey "
      "AND r.r_name = 'ASIA' "
      "AND o.o_orderdate >= DATE '1994-01-01' "
      "AND o.o_orderdate < DATE '1995-01-01' "
      "GROUP BY n_name ORDER BY revenue DESC",
      *db_);
  ASSERT_TRUE(sql_rows.ok()) << sql_rows.status();

  auto hand = tpch::BuildQuery(5, *db_);
  ASSERT_TRUE(hand.ok());
  auto hand_rows = CollectRows(&hand.value());
  ASSERT_EQ(hand_rows.size(), sql_rows->rows.size());
  for (size_t i = 0; i < hand_rows.size(); ++i) {
    EXPECT_EQ(hand_rows[i][0].string_value(),
              sql_rows->rows[i][0].string_value());
    EXPECT_NEAR(hand_rows[i][1].double_value(),
                sql_rows->rows[i][1].double_value(), 1e-6);
  }
}

TEST_F(TpchEquivalenceTest, Q10TopCustomersAgreeWithSql) {
  auto sql_rows = sql::ExecuteSql(
      "SELECT c_custkey, sum(l_extendedprice * (1 - l_discount)) AS revenue "
      "FROM orders o, customer c, lineitem l, nation n "
      "WHERE o.o_custkey = c.c_custkey AND l.l_orderkey = o.o_orderkey "
      "AND c.c_nationkey = n.n_nationkey "
      "AND o.o_orderdate >= DATE '1993-10-01' "
      "AND o.o_orderdate < DATE '1994-01-01' "
      "AND l.l_returnflag = 'R' GROUP BY c_custkey",
      *db_);
  ASSERT_TRUE(sql_rows.ok()) << sql_rows.status();
  std::map<int64_t, double> revenue_by_cust;
  for (const Row& r : sql_rows->rows) {
    revenue_by_cust[r[0].int64_value()] = r[1].double_value();
  }

  auto hand = tpch::BuildQuery(10, *db_);
  ASSERT_TRUE(hand.ok());
  auto hand_rows = CollectRows(&hand.value());
  ASSERT_FALSE(hand_rows.empty());
  for (const Row& r : hand_rows) {
    int64_t custkey = r[0].int64_value();
    auto it = revenue_by_cust.find(custkey);
    ASSERT_NE(it, revenue_by_cust.end()) << "custkey " << custkey;
    EXPECT_NEAR(r[7].double_value(), it->second, 1e-6);
  }
}

TEST_F(TpchEquivalenceTest, Q19RevenueAgreesWithSql) {
  auto sql_rows = sql::ExecuteSql(
      "SELECT sum(l_extendedprice * (1 - l_discount)) FROM lineitem l, part p "
      "WHERE l.l_partkey = p.p_partkey "
      "AND l.l_shipinstruct = 'DELIVER IN PERSON' "
      "AND l.l_shipmode IN ('AIR', 'REG AIR') AND ("
      "(p.p_brand = 'Brand#12' AND p.p_container IN ('SM CASE', 'SM BOX', "
      "'SM PACK', 'SM PKG') AND l.l_quantity BETWEEN 1 AND 11 AND p.p_size "
      "BETWEEN 1 AND 5) OR "
      "(p.p_brand = 'Brand#23' AND p.p_container IN ('MED BAG', 'MED BOX', "
      "'MED PKG', 'MED PACK') AND l.l_quantity BETWEEN 10 AND 20 AND p.p_size "
      "BETWEEN 1 AND 10) OR "
      "(p.p_brand = 'Brand#34' AND p.p_container IN ('LG CASE', 'LG BOX', "
      "'LG PACK', 'LG PKG') AND l.l_quantity BETWEEN 20 AND 30 AND p.p_size "
      "BETWEEN 1 AND 15))",
      *db_);
  ASSERT_TRUE(sql_rows.ok()) << sql_rows.status();

  auto hand = tpch::BuildQuery(19, *db_);
  ASSERT_TRUE(hand.ok());
  auto hand_rows = CollectRows(&hand.value());
  ASSERT_EQ(hand_rows.size(), 1u);
  ASSERT_EQ(sql_rows->rows.size(), 1u);
  const Value& sql_v = sql_rows->rows[0][0];
  const Value& hand_v = hand_rows[0][0];
  if (sql_v.is_null()) {
    EXPECT_TRUE(hand_v.is_null());
  } else {
    EXPECT_NEAR(sql_v.double_value(), hand_v.double_value(), 1e-6);
  }
}

TEST_F(TpchEquivalenceTest, Q12ShipmodeCountsAgreeWithSql) {
  // The CASE aggregation is beyond the SQL subset; cross-check the total
  // qualifying lineitem count per shipmode instead.
  auto sql_rows = sql::ExecuteSql(
      "SELECT l_shipmode, count(*) FROM lineitem l, orders o "
      "WHERE l.l_orderkey = o.o_orderkey "
      "AND l.l_shipmode IN ('MAIL', 'SHIP') "
      "AND l.l_commitdate < l.l_receiptdate "
      "AND l.l_shipdate < l.l_commitdate "
      "AND l.l_receiptdate >= DATE '1994-01-01' "
      "AND l.l_receiptdate < DATE '1995-01-01' "
      "GROUP BY l_shipmode ORDER BY l_shipmode",
      *db_);
  ASSERT_TRUE(sql_rows.ok()) << sql_rows.status();

  auto hand = tpch::BuildQuery(12, *db_);
  ASSERT_TRUE(hand.ok());
  auto hand_rows = CollectRows(&hand.value());
  ASSERT_EQ(hand_rows.size(), sql_rows->rows.size());
  for (size_t i = 0; i < hand_rows.size(); ++i) {
    EXPECT_EQ(hand_rows[i][0].string_value(),
              sql_rows->rows[i][0].string_value());
    // high_line_count + low_line_count == count(*).
    double total = hand_rows[i][1].double_value() +
                   hand_rows[i][2].double_value();
    EXPECT_NEAR(total, static_cast<double>(sql_rows->rows[i][1].int64_value()),
                1e-9);
  }
}

TEST_F(TpchEquivalenceTest, GeneratorIsSeedDeterministic) {
  Database a, b;
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  config.z = 1.5;
  config.seed = 777;
  config.build_indexes = false;
  config.collect_stats = false;
  ASSERT_TRUE(tpch::GenerateTpch(config, &a).ok());
  ASSERT_TRUE(tpch::GenerateTpch(config, &b).ok());
  const Table* la = a.GetTable("lineitem");
  const Table* lb = b.GetTable("lineitem");
  ASSERT_EQ(la->num_rows(), lb->num_rows());
  for (uint64_t i = 0; i < la->num_rows(); i += 97) {
    ASSERT_TRUE(RowEq()(testutil::RowAt(*la, i), testutil::RowAt(*lb, i)))
        << "row " << i;
  }
  // A different seed produces different data.
  Database c;
  config.seed = 778;
  ASSERT_TRUE(tpch::GenerateTpch(config, &c).ok());
  const Table* lc = c.GetTable("lineitem");
  bool any_diff = lc->num_rows() != la->num_rows();
  for (uint64_t i = 0; !any_diff && i < std::min(la->num_rows(),
                                                 lc->num_rows()); ++i) {
    any_diff = !RowEq()(testutil::RowAt(*la, i), testutil::RowAt(*lc, i));
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace qprog
