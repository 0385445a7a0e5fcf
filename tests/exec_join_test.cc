// Join operator tests: each algorithm and join type, with and without a
// residual, is checked against a naive reference evaluator on randomized
// inputs — HashJoin in memory and in Grace mode at pools 0 and 3 — plus
// HashJoin's flat build table and targeted edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "common/random.h"
#include "exec/join.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "index/ordered_index.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::I;
using testutil::N;
using testutil::S;
using testutil::Sorted;

// Reference implementation of an equi-join on column 0 == column 0 — and,
// with `residual`, left column 1 < right column 1 — with the "left" (first)
// table preserved per JoinType.
std::vector<Row> ReferenceJoin(const Table& left, const Table& right,
                               JoinType type, bool residual) {
  std::vector<Row> out;
  for (uint64_t i = 0; i < left.num_rows(); ++i) {
    const Row l = testutil::RowAt(left, i);
    bool matched = false;
    for (uint64_t j = 0; j < right.num_rows(); ++j) {
      const Row r = testutil::RowAt(right, j);
      if (l[0].is_null() || r[0].is_null()) continue;
      if (l[0].Compare(r[0]) != 0) continue;
      if (residual && l[1].Compare(r[1]) >= 0) continue;
      matched = true;
      if (type == JoinType::kInner || type == JoinType::kLeftOuter) {
        Row joined = l;
        joined.insert(joined.end(), r.begin(), r.end());
        out.push_back(std::move(joined));
      }
    }
    if (type == JoinType::kLeftSemi && matched) out.push_back(l);
    if (type == JoinType::kLeftAnti && !matched) out.push_back(l);
    if (type == JoinType::kLeftOuter && !matched) {
      Row joined = l;
      for (size_t c = 0; c < right.schema().num_fields(); ++c) {
        joined.push_back(Value::Null());
      }
      out.push_back(std::move(joined));
    }
  }
  return out;
}

Table RandomTable(const std::string& name, int rows, int64_t domain,
                  uint64_t seed, bool with_nulls) {
  Rng rng(seed);
  std::vector<Row> data;
  for (int i = 0; i < rows; ++i) {
    Value key = (with_nulls && rng.Bernoulli(0.1))
                    ? Value::Null()
                    : I(rng.UniformInt(0, domain - 1));
    data.push_back({key, I(i)});
  }
  return testutil::MakeTable(name, {"k", "tag"}, std::move(data));
}

// Builds each join implementation for left ⋈ right on k = k. The Grace
// algorithms are HashJoin plans run under a spilling budget (RunJoin).
enum class Algo { kNL, kINL, kHash, kGraceSerial, kGracePooled, kMerge };

// The residual over concatenated (left ++ right): l.tag < r.tag.
ExprPtr Residual() { return eb::Lt(eb::Col(1, "l.tag"), eb::Col(3, "r.tag")); }

PhysicalPlan BuildJoinPlan(Algo algo, const Table* left, const Table* right,
                           const OrderedIndex* right_idx, JoinType type,
                           bool residual) {
  auto lscan = std::make_unique<SeqScan>(left);
  auto rscan = std::make_unique<SeqScan>(right);
  switch (algo) {
    case Algo::kNL: {
      // Predicate over concatenated (left ++ right): k columns are 0 and 2.
      ExprPtr predicate = eb::Eq(eb::Col(0, "l.k"), eb::Col(2, "r.k"));
      if (residual) predicate = eb::And(std::move(predicate), Residual());
      auto join = std::make_unique<NestedLoopsJoin>(
          std::move(lscan), std::move(rscan), std::move(predicate), type);
      return PhysicalPlan(std::move(join));
    }
    case Algo::kINL: {
      auto seek = std::make_unique<IndexSeek>(right_idx);
      auto join = std::make_unique<IndexNestedLoopsJoin>(
          std::move(lscan), std::move(seek), eb::Col(0, "l.k"), type,
          residual ? Residual() : nullptr);
      return PhysicalPlan(std::move(join));
    }
    case Algo::kHash:
    case Algo::kGraceSerial:
    case Algo::kGracePooled: {
      std::vector<ExprPtr> pk, bk;
      pk.push_back(eb::Col(0, "l.k"));
      bk.push_back(eb::Col(0, "r.k"));
      auto join = std::make_unique<HashJoin>(
          std::move(lscan), std::move(rscan), std::move(pk), std::move(bk),
          type, residual ? Residual() : nullptr);
      return PhysicalPlan(std::move(join));
    }
    case Algo::kMerge: {
      std::vector<SortKey> lk, rk;
      lk.emplace_back(eb::Col(0, "l.k"), false);
      rk.emplace_back(eb::Col(0, "r.k"), false);
      auto lsort = std::make_unique<Sort>(std::move(lscan), std::move(lk));
      auto rsort = std::make_unique<Sort>(std::move(rscan), std::move(rk));
      std::vector<ExprPtr> lke, rke;
      lke.push_back(eb::Col(0, "l.k"));
      rke.push_back(eb::Col(0, "r.k"));
      auto join = std::make_unique<MergeJoin>(std::move(lsort), std::move(rsort),
                                              std::move(lke), std::move(rke));
      return PhysicalPlan(std::move(join));
    }
  }
  __builtin_unreachable();
}

struct JoinCase {
  Algo algo;
  JoinType type;
  bool residual;
};

// The build side: 120 rows over 20 keys, about 108 of them non-NULL. The
// Grace runs' 64-row soft budget trips at the 65th non-NULL row, so the
// in-memory table spills with most keys' rows on both sides of that row.
constexpr int kBuildRows = 120;
constexpr size_t kSoftBudgetRows = 64;

// True when some key has non-NULL build rows both before the row where the
// soft budget trips and at or after it.
bool KeysInterleaveAcrossBudgetTrip(const Table& build) {
  std::vector<int64_t> keys;
  for (uint64_t i = 0; i < build.num_rows(); ++i) {
    const Row r = testutil::RowAt(build, i);
    if (!r[0].is_null()) keys.push_back(r[0].int64_value());
  }
  if (keys.size() <= kSoftBudgetRows) return false;
  const auto trip = keys.begin() + kSoftBudgetRows;
  return std::any_of(trip, keys.end(), [&](int64_t k) {
    return std::find(keys.begin(), trip, k) != trip;
  });
}

// `rows` stably ordered by the probe row they came from (its unique tag,
// column 1): a Grace join emits leaf by leaf, but each probe row's matches
// keep their build-chain order.
std::vector<Row> ByProbeRow(std::vector<Row> rows) {
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a[1].int64_value() < b[1].int64_value();
  });
  return rows;
}

// Runs `plan`: directly, or for a Grace algorithm under a kSoftBudgetRows
// soft budget with a SpillManager, at pool 0 (kGraceSerial) or with a
// 3-thread pool attached (kGracePooled). The leaf loop is the same at both;
// kGracePooled pins that attaching a pool changes nothing.
std::vector<Row> RunJoin(Algo algo, PhysicalPlan* plan,
                         const std::string& tag) {
  if (algo != Algo::kGraceSerial && algo != Algo::kGracePooled) {
    return CollectRows(plan);
  }
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("qprog_join_conformance_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpillManager spill(dir.string());
  QueryGuard guard;
  guard.set_max_buffered_rows(kSoftBudgetRows);
  ExecContext ctx;
  ctx.set_guard(&guard);
  ctx.set_spill_manager(&spill);
  std::unique_ptr<WorkerPool> pool;
  if (algo == Algo::kGracePooled) {
    pool = std::make_unique<WorkerPool>(3);
    ctx.set_worker_pool(pool.get());
  }
  std::vector<Row> rows = CollectRows(plan, &ctx);
  EXPECT_TRUE(ctx.ok()) << ctx.status();
  EXPECT_TRUE(static_cast<const HashJoin*>(plan->root())->spilled()) << tag;
  EXPECT_EQ(spill.live_runs(), 0u) << tag;
  std::filesystem::remove_all(dir);
  return rows;
}

class JoinConformanceTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinConformanceTest, MatchesReferenceOnRandomData) {
  const JoinCase c = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Table left = RandomTable("l", 60, 20, seed, /*with_nulls=*/true);
    Table right =
        RandomTable("r", kBuildRows, 20, seed + 100, /*with_nulls=*/true);
    ASSERT_TRUE(KeysInterleaveAcrossBudgetTrip(right)) << "seed=" << seed;
    OrderedIndex idx(&right, 0);
    PhysicalPlan plan =
        BuildJoinPlan(c.algo, &left, &right, &idx, c.type, c.residual);
    const std::string tag = std::to_string(static_cast<int>(c.algo)) + "_" +
                            JoinTypeToString(c.type) + "_" +
                            std::to_string(c.residual) + "_" +
                            std::to_string(seed);
    auto expected = ReferenceJoin(left, right, c.type, c.residual);
    auto actual = RunJoin(c.algo, &plan, tag);
    EXPECT_EQ(testutil::RowsToString(Sorted(actual)),
              testutil::RowsToString(Sorted(expected)))
        << "algo=" << static_cast<int>(c.algo)
        << " type=" << JoinTypeToString(c.type) << " residual=" << c.residual
        << " seed=" << seed;
    if (c.algo == Algo::kGraceSerial || c.algo == Algo::kGracePooled) {
      // Spilling the table and rebuilding each leaf keep every key's rows
      // in insertion order, so each probe row meets its matches in the
      // in-memory join's order.
      PhysicalPlan in_memory =
          BuildJoinPlan(Algo::kHash, &left, &right, &idx, c.type, c.residual);
      EXPECT_EQ(testutil::RowsToString(ByProbeRow(actual)),
                testutil::RowsToString(ByProbeRow(CollectRows(&in_memory))))
          << tag;
    }
  }
}

// Every join type, with and without a residual, through NL, INL and each
// HashJoin probe: in memory and the Grace leaf loop, without and with a
// pool attached. MergeJoin is inner-only and takes no residual.
std::vector<JoinCase> AllJoinCases() {
  std::vector<JoinCase> cases;
  for (Algo algo : {Algo::kNL, Algo::kINL, Algo::kHash, Algo::kGraceSerial,
                    Algo::kGracePooled}) {
    for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                          JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      for (bool residual : {false, true}) cases.push_back({algo, type, residual});
    }
  }
  cases.push_back({Algo::kMerge, JoinType::kInner, false});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsAndTypes, JoinConformanceTest,
                         ::testing::ValuesIn(AllJoinCases()));

// --------------------------------------------------------------------------
// JoinTable

// Each row of `key`'s chain, in order.
std::vector<Row> Chain(const JoinTable& table, const Row& key) {
  std::vector<Row> rows;
  for (JoinTable::RowId id = table.Find(key); id != JoinTable::kNoRow;
       id = table.next(id)) {
    rows.emplace_back(table.row(id).begin(), table.row(id).end());
  }
  return rows;
}

TEST(JoinTableTest, DuplicateKeysChainInInsertionOrder) {
  JoinTable table(1, 2);
  EXPECT_EQ(table.Insert({I(7)}, Row{I(7), I(0)}), 1u);
  EXPECT_EQ(table.Insert({I(8)}, Row{I(8), I(1)}), 1u);
  EXPECT_EQ(table.Insert({I(7)}, Row{I(7), I(2)}), 2u);
  EXPECT_EQ(table.Insert({I(7)}, Row{I(7), I(3)}), 3u);
  EXPECT_EQ(table.Insert({I(8)}, Row{I(8), I(4)}), 2u);
  EXPECT_EQ(table.num_keys(), 2u);
  EXPECT_EQ(testutil::RowsToString(Chain(table, {I(7)})),
            testutil::RowsToString({{I(7), I(0)}, {I(7), I(2)}, {I(7), I(3)}}));
  EXPECT_EQ(testutil::RowsToString(Chain(table, {I(8)})),
            testutil::RowsToString({{I(8), I(1)}, {I(8), I(4)}}));
  EXPECT_EQ(table.Find({I(9)}), JoinTable::kNoRow);
}

TEST(JoinTableTest, KeysMatchUnderGroupingSemantics) {
  JoinTable table(2, 1);
  table.Insert({I(1), S("a")}, Row{I(10)});
  table.Insert({testutil::D(0.0), S("b")}, Row{I(20)});
  EXPECT_EQ(Chain(table, {testutil::D(1.0), S("a")}).size(), 1u);
  EXPECT_EQ(Chain(table, {testutil::D(-0.0), S("b")}).size(), 1u);
  EXPECT_EQ(Chain(table, {I(0), S("b")}).size(), 1u);
  EXPECT_EQ(table.Find({I(1), S("b")}), JoinTable::kNoRow);
  // Equal keys insert into one chain whichever type they arrive as.
  EXPECT_EQ(table.Insert({testutil::D(1.0), S("a")}, Row{I(11)}), 2u);
  EXPECT_EQ(table.num_keys(), 2u);
}

TEST(JoinTableTest, DirectoryGrowsAcrossManyDistinctKeys) {
  constexpr int64_t kKeys = 12000;
  JoinTable table(1, 2);
  for (int64_t round = 0; round < 2; ++round) {
    for (int64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(table.Insert({I(k)}, Row{I(k), I(round)}),
                static_cast<uint64_t>(round + 1));
    }
  }
  EXPECT_EQ(table.num_keys(), static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(testutil::RowsToString(Chain(table, {I(k)})),
              testutil::RowsToString({{I(k), I(0)}, {I(k), I(1)}}))
        << k;
  }
  EXPECT_EQ(table.Find({I(kKeys)}), JoinTable::kNoRow);
}

TEST(JoinTableTest, ClearKeepsChunksAndLeavesNoStaleRows) {
  JoinTable table(1, 3);
  for (int64_t i = 0; i < 5000; ++i) {
    table.Insert({I(i % 50)}, Row{I(i), I(1), I(2)});
  }
  const size_t chunks = table.num_chunks();
  ASSERT_GT(chunks, 1u);
  table.Clear();
  EXPECT_EQ(table.num_keys(), 0u);
  EXPECT_EQ(table.Find({I(3)}), JoinTable::kNoRow);
  EXPECT_TRUE(table.ForEach(  // no row is left to visit
      [](std::span<const Value>, std::span<const Value>) { return false; }));
  for (int64_t i = 0; i < 5000; ++i) {
    table.Insert({I(i % 70)}, Row{I(-i), I(3), I(4)});
  }
  EXPECT_EQ(table.num_chunks(), chunks);  // the same rows fit the kept chunks
  EXPECT_EQ(table.num_keys(), 70u);
  std::vector<Row> chain = Chain(table, {I(3)});
  ASSERT_EQ(chain.size(), 72u);  // 5000 rows over 70 keys: keys < 30 get 72
  for (size_t j = 0; j < chain.size(); ++j) {
    EXPECT_EQ(chain[j][0].int64_value(), -(3 + 70 * static_cast<int64_t>(j)));
    EXPECT_EQ(chain[j][1].int64_value(), 3);
  }
  table.Release();
  EXPECT_EQ(table.num_chunks(), 0u);
  EXPECT_EQ(table.Find({I(3)}), JoinTable::kNoRow);
  EXPECT_EQ(table.Insert({I(3)}, Row{I(5), I(6), I(7)}), 1u);
}

TEST(JoinTableTest, RowWiderThanAChunk) {
  const size_t width = JoinTable::kChunkCells + 10;
  JoinTable table(1, width);
  for (int64_t r = 0; r < 3; ++r) {
    Row row(width);
    for (size_t c = 0; c < width; ++c) {
      row[c] = I(r * 100000 + static_cast<int64_t>(c));
    }
    table.Insert({I(r % 2)}, row);
  }
  std::vector<Row> chain = Chain(table, {I(0)});
  ASSERT_EQ(chain.size(), 2u);
  for (size_t j = 0; j < chain.size(); ++j) {
    ASSERT_EQ(chain[j].size(), width);
    const int64_t r = 2 * static_cast<int64_t>(j);
    EXPECT_EQ(chain[j].front().int64_value(), r * 100000);
    EXPECT_EQ(chain[j].back().int64_value(),
              r * 100000 + static_cast<int64_t>(width - 1));
  }
  EXPECT_EQ(Chain(table, {I(1)})[0][width - 1].int64_value(),
            100000 + static_cast<int64_t>(width - 1));
}

TEST(JoinTableTest, ForEachVisitsKeysInFirstInsertionOrder) {
  JoinTable table(1, 1);
  for (int64_t k : {5, 3, 5, 9, 3, 1, 5}) table.Insert({I(k)}, Row{I(k * 10)});
  std::vector<Row> visited;
  EXPECT_TRUE(table.ForEach(
      [&](std::span<const Value> key, std::span<const Value> row) {
        visited.push_back({key[0], row[0]});
        return true;
      }));
  EXPECT_EQ(testutil::RowsToString(visited),
            testutil::RowsToString({{I(5), I(50)},
                                    {I(5), I(50)},
                                    {I(5), I(50)},
                                    {I(3), I(30)},
                                    {I(3), I(30)},
                                    {I(9), I(90)},
                                    {I(1), I(10)}}));
  size_t calls = 0;
  EXPECT_FALSE(table.ForEach(
      [&](std::span<const Value>, std::span<const Value>) {
        return ++calls < 4;
      }));
  EXPECT_EQ(calls, 4u);
}

TEST(JoinTest, CrossJoinViaNLWithoutPredicate) {
  Table a = testutil::MakeTable("a", {"x"}, {{I(1)}, {I(2)}});
  Table b = testutil::MakeTable("b", {"y"}, {{I(10)}, {I(20)}, {I(30)}});
  auto join = std::make_unique<NestedLoopsJoin>(
      std::make_unique<SeqScan>(&a), std::make_unique<SeqScan>(&b), nullptr);
  PhysicalPlan plan(std::move(join));
  EXPECT_EQ(CollectRows(&plan).size(), 6u);
}

TEST(JoinTest, EmptyInputs) {
  Table empty = testutil::MakeTable("e", {"k"}, {});
  Table full = testutil::MakeTable("f", {"k"}, {{I(1)}});
  {
    std::vector<ExprPtr> pk, bk;
    pk.push_back(eb::Col(0));
    bk.push_back(eb::Col(0));
    auto join = std::make_unique<HashJoin>(std::make_unique<SeqScan>(&full),
                                           std::make_unique<SeqScan>(&empty),
                                           std::move(pk), std::move(bk));
    PhysicalPlan plan(std::move(join));
    EXPECT_TRUE(CollectRows(&plan).empty());
  }
  {
    std::vector<ExprPtr> pk, bk;
    pk.push_back(eb::Col(0));
    bk.push_back(eb::Col(0));
    auto join = std::make_unique<HashJoin>(
        std::make_unique<SeqScan>(&empty), std::make_unique<SeqScan>(&full),
        std::move(pk), std::move(bk), JoinType::kLeftAnti);
    PhysicalPlan plan(std::move(join));
    EXPECT_TRUE(CollectRows(&plan).empty());
  }
}

TEST(JoinTest, AntiJoinAgainstEmptyBuildKeepsAllProbe) {
  Table empty = testutil::MakeTable("e", {"k"}, {});
  Table full = testutil::MakeTable("f", {"k"}, {{I(1)}, {I(2)}});
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(0));
  bk.push_back(eb::Col(0));
  auto join = std::make_unique<HashJoin>(
      std::make_unique<SeqScan>(&full), std::make_unique<SeqScan>(&empty),
      std::move(pk), std::move(bk), JoinType::kLeftAnti);
  PhysicalPlan plan(std::move(join));
  EXPECT_EQ(CollectRows(&plan).size(), 2u);
}

TEST(JoinTest, HashJoinResidualPredicate) {
  Table l = testutil::MakeTable("l", {"k", "v"}, {{I(1), I(10)}, {I(1), I(30)}});
  Table r = testutil::MakeTable("r", {"k", "w"}, {{I(1), I(20)}});
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(0));
  bk.push_back(eb::Col(0));
  // residual over (probe ++ build): v < w means col1 < col3.
  auto join = std::make_unique<HashJoin>(
      std::make_unique<SeqScan>(&l), std::make_unique<SeqScan>(&r),
      std::move(pk), std::move(bk), JoinType::kInner,
      eb::Lt(eb::Col(1), eb::Col(3)));
  PhysicalPlan plan(std::move(join));
  auto rows = CollectRows(&plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].int64_value(), 10);
}

TEST(JoinTest, MergeJoinDuplicateKeysBothSides) {
  Table l = testutil::MakeTable("l", {"k"}, {{I(1)}, {I(2)}, {I(2)}, {I(3)}});
  Table r = testutil::MakeTable("r", {"k"}, {{I(2)}, {I(2)}, {I(2)}, {I(4)}});
  std::vector<ExprPtr> lk, rk;
  lk.push_back(eb::Col(0));
  rk.push_back(eb::Col(0));
  auto join = std::make_unique<MergeJoin>(std::make_unique<SeqScan>(&l),
                                          std::make_unique<SeqScan>(&r),
                                          std::move(lk), std::move(rk));
  PhysicalPlan plan(std::move(join));
  EXPECT_EQ(CollectRows(&plan).size(), 6u);  // 2 left dups x 3 right dups
}

TEST(JoinTest, INLJoinResidualPredicate) {
  Table l = testutil::MakeTable("l", {"k", "v"}, {{I(1), I(5)}});
  Table r = testutil::MakeTable("r", {"k", "w"},
                                {{I(1), I(1)}, {I(1), I(9)}, {I(1), I(6)}});
  OrderedIndex idx(&r, 0);
  auto join = std::make_unique<IndexNestedLoopsJoin>(
      std::make_unique<SeqScan>(&l), std::make_unique<IndexSeek>(&idx),
      eb::Col(0), JoinType::kInner,
      eb::Gt(eb::Col(3), eb::Col(1)));  // w > v
  PhysicalPlan plan(std::move(join));
  EXPECT_EQ(CollectRows(&plan).size(), 2u);
}

TEST(JoinTest, SemiJoinEmitsProbeSchemaOnly) {
  Table l = testutil::MakeTable("l", {"k", "v"}, {{I(1), I(5)}});
  Table r = testutil::MakeTable("r", {"k"}, {{I(1)}, {I(1)}});
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(0));
  bk.push_back(eb::Col(0));
  auto join = std::make_unique<HashJoin>(
      std::make_unique<SeqScan>(&l), std::make_unique<SeqScan>(&r),
      std::move(pk), std::move(bk), JoinType::kLeftSemi);
  PhysicalPlan plan(std::move(join));
  auto rows = CollectRows(&plan);
  ASSERT_EQ(rows.size(), 1u);  // one output despite two matches
  EXPECT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(plan.root()->output_schema().num_fields(), 2u);
}

}  // namespace
}  // namespace qprog
