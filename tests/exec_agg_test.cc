// Aggregation operator tests (HashAggregate, StreamAggregate).

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/plan.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::D;
using testutil::I;
using testutil::N;
using testutil::S;

Table SalesTable() {
  // group, amount
  return testutil::MakeTable(
      "sales", {"grp", "amt"},
      {{S("a"), I(10)},
       {S("b"), I(5)},
       {S("a"), I(20)},
       {S("b"), N()},
       {S("c"), I(7)},
       {S("a"), I(30)}});
}

std::vector<AggregateDesc> StdAggs() {
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, eb::Col(1, "amt"), "total");
  aggs.emplace_back(AggFunc::kAvg, eb::Col(1, "amt"), "mean");
  aggs.emplace_back(AggFunc::kMin, eb::Col(1, "amt"), "lo");
  aggs.emplace_back(AggFunc::kMax, eb::Col(1, "amt"), "hi");
  return aggs;
}

PhysicalPlan HashAggPlan(const Table* t) {
  auto scan = std::make_unique<SeqScan>(t);
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0, "grp"));
  return PhysicalPlan(std::make_unique<HashAggregate>(
      std::move(scan), std::move(groups), std::vector<std::string>{"grp"},
      StdAggs()));
}

PhysicalPlan StreamAggPlan(const Table* t) {
  auto scan = std::make_unique<SeqScan>(t);
  std::vector<SortKey> keys;
  keys.emplace_back(eb::Col(0, "grp"), false);
  auto sort = std::make_unique<Sort>(std::move(scan), std::move(keys));
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0, "grp"));
  return PhysicalPlan(std::make_unique<StreamAggregate>(
      std::move(sort), std::move(groups), std::vector<std::string>{"grp"},
      StdAggs()));
}

void CheckSalesAggregates(const std::vector<Row>& rows) {
  ASSERT_EQ(rows.size(), 3u);
  for (const Row& r : rows) {
    std::string_view g = r[0].string_value();
    if (g == "a") {
      EXPECT_EQ(r[1].int64_value(), 3);  // COUNT(*)
      EXPECT_DOUBLE_EQ(r[2].double_value(), 60.0);
      EXPECT_DOUBLE_EQ(r[3].double_value(), 20.0);
      EXPECT_EQ(r[4].int64_value(), 10);
      EXPECT_EQ(r[5].int64_value(), 30);
    } else if (g == "b") {
      EXPECT_EQ(r[1].int64_value(), 2);  // COUNT(*) counts the NULL-amt row
      EXPECT_DOUBLE_EQ(r[2].double_value(), 5.0);  // SUM skips NULL
      EXPECT_DOUBLE_EQ(r[3].double_value(), 5.0);
      EXPECT_EQ(r[4].int64_value(), 5);
      EXPECT_EQ(r[5].int64_value(), 5);
    } else {
      EXPECT_EQ(g, "c");
      EXPECT_EQ(r[1].int64_value(), 1);
    }
  }
}

TEST(HashAggregateTest, GroupedAggregates) {
  Table t = SalesTable();
  PhysicalPlan plan = HashAggPlan(&t);
  CheckSalesAggregates(CollectRows(&plan));
}

TEST(StreamAggregateTest, GroupedAggregatesMatchHash) {
  Table t = SalesTable();
  PhysicalPlan plan = StreamAggPlan(&t);
  CheckSalesAggregates(CollectRows(&plan));
}

TEST(HashAggregateTest, GroupsEmittedInFirstSeenOrder) {
  Table t = SalesTable();
  PhysicalPlan plan = HashAggPlan(&t);
  auto rows = CollectRows(&plan);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].string_value(), "a");
  EXPECT_EQ(rows[1][0].string_value(), "b");
  EXPECT_EQ(rows[2][0].string_value(), "c");
}

TEST(HashAggregateTest, ScalarAggregateOverEmptyInput) {
  Table t = testutil::MakeTable("t", {"v"}, {});
  auto scan = std::make_unique<SeqScan>(&t);
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, eb::Col(0), "s");
  aggs.emplace_back(AggFunc::kMin, eb::Col(0), "mn");
  PhysicalPlan plan(std::make_unique<HashAggregate>(
      std::move(scan), std::vector<ExprPtr>{}, std::vector<std::string>{},
      std::move(aggs)));
  auto rows = CollectRows(&plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_TRUE(rows[0][2].is_null());
}

TEST(StreamAggregateTest, ScalarAggregateOverEmptyInput) {
  Table t = testutil::MakeTable("t", {"v"}, {});
  auto scan = std::make_unique<SeqScan>(&t);
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  PhysicalPlan plan(std::make_unique<StreamAggregate>(
      std::move(scan), std::vector<ExprPtr>{}, std::vector<std::string>{},
      std::move(aggs)));
  auto rows = CollectRows(&plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 0);
}

TEST(HashAggregateTest, GroupByEmptyInputYieldsNoGroups) {
  Table t = testutil::MakeTable("t", {"g", "v"}, {});
  auto scan = std::make_unique<SeqScan>(&t);
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0));
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  PhysicalPlan plan(std::make_unique<HashAggregate>(
      std::move(scan), std::move(groups), std::vector<std::string>{"g"},
      std::move(aggs)));
  EXPECT_TRUE(CollectRows(&plan).empty());
}

TEST(HashAggregateTest, CountDistinct) {
  Table t = testutil::MakeTable(
      "t", {"v"}, {{I(1)}, {I(2)}, {I(1)}, {N()}, {I(3)}, {I(2)}});
  auto scan = std::make_unique<SeqScan>(&t);
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCountDistinct, eb::Col(0), "d");
  aggs.emplace_back(AggFunc::kCount, eb::Col(0), "c");
  PhysicalPlan plan(std::make_unique<HashAggregate>(
      std::move(scan), std::vector<ExprPtr>{}, std::vector<std::string>{},
      std::move(aggs)));
  auto rows = CollectRows(&plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 3);  // distinct non-null
  EXPECT_EQ(rows[0][1].int64_value(), 5);  // COUNT(v) skips NULL
}

TEST(HashAggregateTest, NullGroupKeyFormsItsOwnGroup) {
  Table t = testutil::MakeTable("t", {"g"}, {{I(1)}, {N()}, {N()}, {I(1)}});
  auto scan = std::make_unique<SeqScan>(&t);
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0));
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  PhysicalPlan plan(std::make_unique<HashAggregate>(
      std::move(scan), std::move(groups), std::vector<std::string>{"g"},
      std::move(aggs)));
  auto rows = CollectRows(&plan);
  ASSERT_EQ(rows.size(), 2u);
  for (const Row& r : rows) EXPECT_EQ(r[1].int64_value(), 2);
}

TEST(AggAccumulatorTest, MinMaxOnStrings) {
  AggAccumulator mn(AggFunc::kMin), mx(AggFunc::kMax);
  for (const char* s : {"pear", "apple", "zucchini"}) {
    mn.Add(Value::String(s));
    mx.Add(Value::String(s));
  }
  EXPECT_EQ(mn.Result().string_value(), "apple");
  EXPECT_EQ(mx.Result().string_value(), "zucchini");
}

TEST(AggAccumulatorTest, AvgOfInts) {
  AggAccumulator avg(AggFunc::kAvg);
  avg.Add(Value::Int64(1));
  avg.Add(Value::Int64(2));
  EXPECT_DOUBLE_EQ(avg.Result().double_value(), 1.5);
}

}  // namespace
}  // namespace qprog
