// Validates that the engine's getnext accounting reproduces the paper's
// worked examples exactly (Section 2.2, Examples 1 and 2).

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/join.h"
#include "exec/plan.h"
#include "exec/scan.h"
#include "index/ordered_index.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::I;

// Builds R1 with `n` rows of unique values 1..n in column A, except that the
// tuple at `special_pos` has value `special`.
Table MakeR1(int64_t n, int64_t special_pos, int64_t special) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({i == special_pos ? I(special) : I(i + 1)});
  }
  return testutil::MakeTable("r1", {"a"}, std::move(rows));
}

// R2 with `copies` rows of value `v` in column B.
Table MakeR2(int64_t copies, int64_t v) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < copies; ++i) rows.push_back({I(v)});
  return testutil::MakeTable("r2", {"b"}, std::move(rows));
}

// The Figure-2 plan: scan(R1) -> sigma(A = x OR A = y) -> INL join on
// R1.A = R2.B.
PhysicalPlan BuildFigure2Plan(const Table* r1, const OrderedIndex* idx,
                              int64_t x, int64_t y) {
  auto scan = std::make_unique<SeqScan>(r1);
  auto sigma = std::make_unique<Filter>(
      std::move(scan), eb::Or(eb::Eq(eb::Col(0, "a"), eb::Int(x)),
                              eb::Eq(eb::Col(0, "a"), eb::Int(y))));
  auto seek = std::make_unique<IndexSeek>(idx);
  auto join = std::make_unique<IndexNestedLoopsJoin>(
      std::move(sigma), std::move(seek), eb::Col(0, "a"));
  return PhysicalPlan(std::move(join));
}

// Example 1: |R2| has 9|R1|+9 rows of value y. When the special tuple's
// value is x (which matches nothing in R2), total = |R1| + 1; when it is y,
// total = 10|R1| + 10.
TEST(WorkModelTest, Example1TotalsDependOnOneTuple) {
  const int64_t n = 100;
  const int64_t x = 1000000, y = 2000000;
  Table r2 = MakeR2(9 * n + 9, y);
  OrderedIndex idx(&r2, 0);

  {
    Table r1 = MakeR1(n, /*special_pos=*/90, /*special=*/x);
    PhysicalPlan plan = BuildFigure2Plan(&r1, &idx, x, y);
    EXPECT_EQ(MeasureTotalWork(&plan), static_cast<uint64_t>(n + 1));
  }
  {
    Table r1 = MakeR1(n, /*special_pos=*/90, /*special=*/y);
    PhysicalPlan plan = BuildFigure2Plan(&r1, &idx, x, y);
    EXPECT_EQ(MeasureTotalWork(&plan), static_cast<uint64_t>(10 * n + 10));
  }
}

// Example 2: R1 and R2 both with N rows; exactly one R1 tuple passes the
// selection and joins with 10,000 rows of R2. total(Q) = N + 1 + 10000.
TEST(WorkModelTest, Example2Total) {
  const int64_t n = 2000;
  const int64_t match_val = 42;
  const int64_t matches = 500;  // scaled-down 10,000

  std::vector<Row> r1_rows;
  for (int64_t i = 0; i < n; ++i) r1_rows.push_back({I(i + 1000000)});
  r1_rows[n / 2] = {I(match_val)};
  Table r1 = testutil::MakeTable("r1", {"a"}, std::move(r1_rows));

  std::vector<Row> r2_rows;
  for (int64_t i = 0; i < matches; ++i) r2_rows.push_back({I(match_val)});
  for (int64_t i = matches; i < n; ++i) r2_rows.push_back({I(-i)});
  Table r2 = testutil::MakeTable("r2", {"b"}, std::move(r2_rows));
  OrderedIndex idx(&r2, 0);

  auto scan = std::make_unique<SeqScan>(&r1);
  auto sigma = std::make_unique<Filter>(
      std::move(scan), eb::Eq(eb::Col(0, "a"), eb::Int(match_val)));
  auto seek = std::make_unique<IndexSeek>(&idx);
  auto join = std::make_unique<IndexNestedLoopsJoin>(
      std::move(sigma), std::move(seek), eb::Col(0, "a"));
  PhysicalPlan plan(std::move(join));

  EXPECT_EQ(MeasureTotalWork(&plan), static_cast<uint64_t>(n + 1 + matches));
}

// Root production is excluded: a bare scan (root) does zero counted work.
TEST(WorkModelTest, RootRowsNotCounted) {
  Table t = testutil::MakeTable("t", {"a"}, {{I(1)}, {I(2)}, {I(3)}});
  auto scan = std::make_unique<SeqScan>(&t);
  PhysicalPlan plan(std::move(scan));
  ExecContext ctx;
  uint64_t rows = exec::Drive(&plan, {.ctx = &ctx}).root_rows;
  EXPECT_EQ(rows, 3u);
  EXPECT_EQ(ctx.work(), 0u);
}

// scan -> filter as root: only the scan's production counts.
TEST(WorkModelTest, FilterAboveScanCountsScanOnly) {
  Table t = testutil::MakeTable("t", {"a"}, {{I(1)}, {I(2)}, {I(3)}, {I(4)}});
  auto scan = std::make_unique<SeqScan>(&t);
  auto filter = std::make_unique<Filter>(std::move(scan),
                                         eb::Gt(eb::Col(0, "a"), eb::Int(2)));
  PhysicalPlan plan(std::move(filter));
  ExecContext ctx;
  uint64_t rows = exec::Drive(&plan, {.ctx = &ctx}).root_rows;
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(ctx.work(), 4u);  // 4 scan rows crossed the scan->filter edge
}

// A predicate merged into the scan removes the separate sigma getnext for
// passing rows, but every examined base row still costs one getnext at the
// leaf (the paper's accounting: mu >= 1, LB >= sum of leaf cardinalities).
TEST(WorkModelTest, MergedScanPredicateChangesWork) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({I(i)});
  Table t = testutil::MakeTable("t", {"a"}, std::move(rows));

  // Separate filter node: work = 100 (scan) + 50 (filter) with agg root.
  auto scan1 = std::make_unique<SeqScan>(&t);
  auto filter = std::make_unique<Filter>(std::move(scan1),
                                         eb::Lt(eb::Col(0, "a"), eb::Int(50)));
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  auto agg1 = std::make_unique<HashAggregate>(std::move(filter),
                                              std::vector<ExprPtr>{},
                                              std::vector<std::string>{},
                                              std::move(aggs));
  PhysicalPlan plan1(std::move(agg1));
  EXPECT_EQ(MeasureTotalWork(&plan1), 150u);

  // Merged predicate: work = 100 (one getnext per examined leaf row; the
  // 50 passing rows cost no additional sigma getnext).
  auto scan2 =
      std::make_unique<SeqScan>(&t, eb::Lt(eb::Col(0, "a"), eb::Int(50)));
  std::vector<AggregateDesc> aggs2;
  aggs2.emplace_back(AggFunc::kCount, nullptr, "cnt");
  auto agg2 = std::make_unique<HashAggregate>(std::move(scan2),
                                              std::vector<ExprPtr>{},
                                              std::vector<std::string>{},
                                              std::move(aggs2));
  PhysicalPlan plan2(std::move(agg2));
  EXPECT_EQ(MeasureTotalWork(&plan2), 100u);

  // The scan's own getnext counter tallies examined rows, not emitted ones.
  ExecContext ctx;
  exec::Drive(&plan2, {.ctx = &ctx});
  EXPECT_EQ(ctx.rows_produced(1), 100u);
}

// Hash join work: both sides scanned once; total = |build| + |probe| +
// join-output (join above is not root here; add a count agg on top).
TEST(WorkModelTest, HashJoinWorkAccounting) {
  Table r1 = testutil::MakeTable("r1", {"a"}, {{I(1)}, {I(2)}, {I(3)}});
  Table r2 = testutil::MakeTable("r2", {"b"}, {{I(2)}, {I(3)}, {I(4)}, {I(5)}});
  auto probe = std::make_unique<SeqScan>(&r2);
  auto build = std::make_unique<SeqScan>(&r1);
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(0, "b"));
  bk.push_back(eb::Col(0, "a"));
  auto join = std::make_unique<HashJoin>(std::move(probe), std::move(build),
                                         std::move(pk), std::move(bk));
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  auto agg = std::make_unique<HashAggregate>(std::move(join),
                                             std::vector<ExprPtr>{},
                                             std::vector<std::string>{},
                                             std::move(aggs));
  PhysicalPlan plan(std::move(agg));
  // 3 (build scan) + 4 (probe scan) + 2 (join matches) = 9.
  EXPECT_EQ(MeasureTotalWork(&plan), 9u);
}

// NL join rescans the inner: inner scan rows are counted once per pass.
TEST(WorkModelTest, NestedLoopsRescanCountsEveryPass) {
  Table outer = testutil::MakeTable("o", {"a"}, {{I(1)}, {I(2)}});
  Table inner = testutil::MakeTable("i", {"b"}, {{I(7)}, {I(8)}, {I(9)}});
  auto o = std::make_unique<SeqScan>(&outer);
  auto i = std::make_unique<SeqScan>(&inner);
  auto join = std::make_unique<NestedLoopsJoin>(std::move(o), std::move(i),
                                                nullptr);  // cross join
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  auto agg = std::make_unique<HashAggregate>(std::move(join),
                                             std::vector<ExprPtr>{},
                                             std::vector<std::string>{},
                                             std::move(aggs));
  PhysicalPlan plan(std::move(agg));
  // outer 2 + inner 2*3 + join 6 = 14.
  EXPECT_EQ(MeasureTotalWork(&plan), 14u);
}

// The work observer fires at the requested granularity.
TEST(WorkModelTest, WorkObserverFires) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({I(i)});
  Table t = testutil::MakeTable("t", {"a"}, std::move(rows));
  auto scan = std::make_unique<SeqScan>(&t);
  auto filter = std::make_unique<Filter>(std::move(scan),
                                         eb::Ge(eb::Col(0, "a"), eb::Int(0)));
  PhysicalPlan plan(std::move(filter));
  ExecContext ctx;
  std::vector<uint64_t> observed;
  ctx.SetWorkObserver(10, [&](uint64_t w) { observed.push_back(w); });
  exec::Drive(&plan, {.ctx = &ctx});
  ASSERT_FALSE(observed.empty());
  EXPECT_EQ(observed.front(), 10u);
  for (size_t i = 1; i < observed.size(); ++i) {
    EXPECT_GT(observed[i], observed[i - 1]);
  }
  EXPECT_GE(observed.size(), 9u);
}

}  // namespace
}  // namespace qprog
