// Column pruning (DESIGN.md §2, "Column pruning"): PhysicalPlan's
// constructor narrows every subtree to the columns some ancestor reads.
// Each case builds a subtree twice: once under a Project that reads every
// column, which keeps them all, and once under a consumer that reads a
// strict subset, which narrows it. The narrowed rows must equal the full
// rows projected in test code, getnext counts must not move, and scan
// labels must not change.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggregate.h"
#include "exec/filter_project.h"
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

/// `prefix` followed by `n` in decimal.
std::string Tagged(const char* prefix, int64_t n) {
  std::string out(prefix);
  out.append(std::to_string(n));
  return out;
}

/// probe(k, a, b, c): 40 rows, k = i mod 10 (NULL every 13th row), a = i,
/// b = "p<i>", c = 100 + i.
Table ProbeTable() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.push_back({i % 13 == 0 ? N() : I(i % 10), I(i),
                    S(Tagged("p", i)), I(100 + i)});
  }
  return testutil::MakeTable("probe", {"k", "a", "b", "c"}, std::move(rows));
}

/// build(k, x, y, z): 30 rows, k = i mod 7 (so probe keys 7..9 never
/// match), x = i, y = "b<i>", z = 1000 + i.
Table BuildTable() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 30; ++i) {
    rows.push_back({I(i % 7), I(i), S(Tagged("b", i)), I(1000 + i)});
  }
  return testutil::MakeTable("build", {"k", "x", "y", "z"}, std::move(rows));
}

/// One execution's output, work and spill facts.
struct Outcome {
  std::vector<Row> rows;
  uint64_t work = 0;
  uint64_t spill_runs = 0;
  uint64_t spill_bytes = 0;
};

/// Drives `plan` in memory (`pool` < 0), or under a 64-row soft budget with
/// a SpillManager and, when `pool` > 0, a WorkerPool of that many threads.
Outcome Execute(PhysicalPlan* plan, int pool = -1) {
  if (pool < 0) {
    exec::DriveResult r = exec::Drive(plan, {.collect_rows = true});
    EXPECT_TRUE(r.ok()) << r.status;
    return Outcome{std::move(r.rows), r.work, 0, 0};
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (Tagged("qprog_prune_test_", pool));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Outcome out;
  {
    SpillManager spill(dir.string());
    QueryGuard guard;
    guard.set_max_buffered_rows(64);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    std::unique_ptr<WorkerPool> workers;
    if (pool > 0) {
      workers = std::make_unique<WorkerPool>(pool);
      ctx.set_worker_pool(workers.get());
    }
    exec::DriveResult r =
        exec::Drive(plan, {.ctx = &ctx, .collect_rows = true});
    EXPECT_TRUE(r.ok()) << r.status;
    EXPECT_EQ(spill.live_runs(), 0u);
    EXPECT_EQ(ctx.buffered_rows(), 0u);
    out = Outcome{std::move(r.rows), r.work, spill.stats().runs_created,
                  spill.stats().bytes_written};
  }
  std::filesystem::remove_all(dir);
  return out;
}

std::vector<Row> ProjectRows(const std::vector<Row>& rows,
                             const std::vector<size_t>& columns) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    Row narrow;
    for (size_t c : columns) narrow.push_back(row[c]);
    out.push_back(std::move(narrow));
  }
  return out;
}

std::vector<std::string> ScanLabels(const PhysicalPlan& plan) {
  std::vector<std::string> labels;
  for (const PhysicalOperator* op : plan.nodes()) {
    if (op->kind() == OpKind::kSeqScan || op->kind() == OpKind::kIndexSeek) {
      labels.push_back(op->label());
    }
  }
  return labels;
}

/// Output widths of the plan's nodes, in pre-order.
std::vector<size_t> Widths(const PhysicalPlan& plan) {
  std::vector<size_t> widths;
  for (const PhysicalOperator* op : plan.nodes()) {
    widths.push_back(op->output_schema().num_fields());
  }
  return widths;
}

/// A Project over `op` reading each of `columns` in turn.
OperatorPtr ProjectOver(OperatorPtr op, const std::vector<size_t>& columns) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (size_t c : columns) {
    exprs.push_back(eb::Col(c));
    names.push_back(Tagged("c", static_cast<int64_t>(c)));
  }
  return std::make_unique<Project>(std::move(op), std::move(exprs),
                                   std::move(names));
}

/// `op` under a Project that reads every column: nothing below is narrowed,
/// and `op` is not the root, so its rows count as work.
OperatorPtr KeepAll(OperatorPtr op) {
  const size_t width = op->output_schema().num_fields();
  std::vector<size_t> all;
  for (size_t c = 0; c < width; ++c) all.push_back(c);
  return ProjectOver(std::move(op), all);
}

/// Builds `make()` twice: under a Project reading every column (the
/// reference) and under a Project reading `columns` (narrowed). Checks, at
/// each `pool` setting (see Execute), that the narrowed rows are the
/// reference rows projected onto `columns`, that work and spill runs are
/// the same, and that the scan labels are unchanged. Returns the narrowed
/// plan.
PhysicalPlan CheckProjected(const std::function<OperatorPtr()>& make,
                            const std::vector<size_t>& columns,
                            const std::vector<int>& pools = {-1}) {
  PhysicalPlan full(KeepAll(make()));
  PhysicalPlan pruned(ProjectOver(make(), columns));
  EXPECT_EQ(ScanLabels(pruned), ScanLabels(full));
  for (int pool : pools) {
    SCOPED_TRACE(Tagged("pool=", pool));
    Outcome want = Execute(&full, pool);
    Outcome got = Execute(&pruned, pool);
    EXPECT_EQ(testutil::RowsToString(got.rows),
              testutil::RowsToString(ProjectRows(want.rows, columns)));
    EXPECT_EQ(got.work, want.work);
    EXPECT_EQ(got.spill_runs, want.spill_runs);
    if (pool >= 0) {
      EXPECT_GT(got.spill_runs, 0u) << "nothing spilled";
      EXPECT_LT(got.spill_bytes, want.spill_bytes);
    }
  }
  return pruned;
}

OperatorPtr Scan(const Table* t, ExprPtr predicate = nullptr) {
  return std::make_unique<SeqScan>(t, std::move(predicate));
}

OperatorPtr Hash(OperatorPtr probe, OperatorPtr build, JoinType type,
                 ExprPtr residual = nullptr) {
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(0));
  bk.push_back(eb::Col(0));
  return std::make_unique<HashJoin>(std::move(probe), std::move(build),
                                    std::move(pk), std::move(bk), type,
                                    std::move(residual));
}

OperatorPtr CountStar(OperatorPtr child) {
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  return std::make_unique<HashAggregate>(std::move(child),
                                         std::vector<ExprPtr>{},
                                         std::vector<std::string>{},
                                         std::move(aggs));
}

// ---------------------------------------------------------------------------

TEST(RemapColumnsTest, RewritesEveryReferenceInPlace) {
  ExprPtr e = eb::And(eb::Gt(eb::Col(5), eb::Col(2)),
                      eb::IsNotNull(eb::Add(eb::Col(5), eb::Int(1))));
  std::vector<bool> read(6, false);
  MarkReferencedColumns(*e, &read);
  EXPECT_EQ(read, (std::vector<bool>{false, false, true, false, false, true}));
  RemapColumns(e.get(), {kDroppedColumn, kDroppedColumn, 0, kDroppedColumn,
                         kDroppedColumn, 1});
  EXPECT_EQ(ReferencedColumns(*e), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(e->Eval(Row{I(3), I(4)}).bool_value(), true);
}

TEST(ColumnPruningTest, ScanEmitsOnlyNeededColumnsAndKeepsItsLabel) {
  Table probe = ProbeTable();
  // The predicate reads c, which nothing above reads: c is read for the
  // predicate and never emitted.
  auto make = [&] { return Scan(&probe, eb::Lt(eb::Col(3), eb::Int(130))); };
  PhysicalPlan plan = CheckProjected(make, {2, 1});
  EXPECT_EQ(Widths(plan), (std::vector<size_t>{2, 2}));
  EXPECT_EQ(plan.nodes()[1]->label(), "SeqScan(probe, pred=($3 < 130))");
}

TEST(ColumnPruningTest, RootKeepsEveryColumn) {
  Table probe = ProbeTable();
  Table build = BuildTable();
  PhysicalPlan plan(Hash(Scan(&probe), Scan(&build), JoinType::kInner));
  EXPECT_EQ(Widths(plan), (std::vector<size_t>{8, 4, 4}));
}

TEST(ColumnPruningTest, CountStarReadsZeroWidthRows) {
  Table probe = ProbeTable();
  Table build = BuildTable();
  for (bool join : {false, true}) {
    SCOPED_TRACE(join ? "over a join" : "over a scan");
    auto make = [&]() -> OperatorPtr {
      if (!join) return Scan(&probe, eb::Gt(eb::Col(1), eb::Int(4)));
      return Hash(Scan(&probe), Scan(&build), JoinType::kInner);
    };
    PhysicalPlan full(KeepAll(make()));
    PhysicalPlan count(CountStar(make()));
    EXPECT_EQ(ScanLabels(count), ScanLabels(full));
    Outcome want = Execute(&full);
    Outcome got = Execute(&count);
    ASSERT_EQ(got.rows.size(), 1u);
    EXPECT_EQ(got.rows[0][0].int64_value(),
              static_cast<int64_t>(want.rows.size()));
    EXPECT_EQ(got.work, want.work);
    // The scan below COUNT(*) emits nothing; a join keeps only its keys.
    EXPECT_EQ(Widths(count), join ? (std::vector<size_t>{1, 2, 1, 1})
                                   : (std::vector<size_t>{1, 0}));
  }
}

TEST(ColumnPruningTest, LeftOuterJoinNullPadsANarrowedBuildSide) {
  Table probe = ProbeTable();
  Table build = BuildTable();
  // Probe keys 7..9 and the NULL keys find no build row: their y is padded.
  auto hash = [&] {
    return Hash(Scan(&probe), Scan(&build), JoinType::kLeftOuter);
  };
  PhysicalPlan plan = CheckProjected(hash, {1, 6});
  EXPECT_EQ(Widths(plan), (std::vector<size_t>{2, 4, 2, 2}));
  auto nl = [&] {
    return std::make_unique<NestedLoopsJoin>(
        Scan(&probe), Scan(&build), eb::Eq(eb::Col(0), eb::Col(4)),
        JoinType::kLeftOuter);
  };
  plan = CheckProjected(nl, {1, 6});
  EXPECT_EQ(Widths(plan), (std::vector<size_t>{2, 4, 2, 2}));
}

TEST(ColumnPruningTest, SemiAndAntiResidualReadsADroppedBuildColumn) {
  Table probe = ProbeTable();
  Table build = BuildTable();
  for (JoinType type : {JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    SCOPED_TRACE(JoinTypeToString(type));
    // The residual reads build.x ($5 over probe ++ build); the output has
    // no build column at all.
    auto make = [&] {
      return Hash(Scan(&probe), Scan(&build), type,
                  eb::Gt(eb::Col(5), eb::Col(1)));
    };
    PhysicalPlan plan = CheckProjected(make, {2});
    EXPECT_EQ(Widths(plan), (std::vector<size_t>{1, 3, 3, 2}));
  }
}

TEST(ColumnPruningTest, IndexNestedLoopsRebindsANarrowedSeek) {
  Table probe = ProbeTable();
  Table build = BuildTable();
  OrderedIndex index(&build, 0);
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    SCOPED_TRACE(JoinTypeToString(type));
    auto make = [&] {
      return std::make_unique<IndexNestedLoopsJoin>(
          Scan(&probe), std::make_unique<IndexSeek>(&index), eb::Col(0),
          type, eb::Lt(eb::Col(5), eb::Col(1)));
    };
    // Only z is emitted from the seek; x stays for the residual.
    PhysicalPlan plan = CheckProjected(make, {1, 7});
    EXPECT_EQ(Widths(plan), (std::vector<size_t>{2, 4, 2, 2}));
  }
}

TEST(ColumnPruningTest, NestedLoopsReopensANarrowedInner) {
  Table probe = ProbeTable();
  Table build = BuildTable();
  auto make = [&] {
    // The inner Filter reads z, which the output drops.
    OperatorPtr inner = std::make_unique<Filter>(
        Scan(&build), eb::Lt(eb::Col(3), eb::Int(1020)));
    return std::make_unique<NestedLoopsJoin>(
        Scan(&probe), std::move(inner), eb::Eq(eb::Col(0), eb::Col(4)));
  };
  PhysicalPlan plan = CheckProjected(make, {2, 6});
  EXPECT_EQ(Widths(plan), (std::vector<size_t>{2, 5, 2, 3, 3}));
}

TEST(ColumnPruningTest, MergeJoinOverNarrowedSorts) {
  Table probe = ProbeTable();
  Table build = BuildTable();
  auto sorted = [](OperatorPtr child) {
    std::vector<SortKey> keys;
    keys.emplace_back(eb::Col(0));
    return std::make_unique<Sort>(std::move(child), std::move(keys));
  };
  auto make = [&] {
    std::vector<ExprPtr> lk, rk;
    lk.push_back(eb::Col(0));
    rk.push_back(eb::Col(0));
    return std::make_unique<MergeJoin>(sorted(Scan(&probe)),
                                       sorted(Scan(&build)), std::move(lk),
                                       std::move(rk));
  };
  PhysicalPlan plan = CheckProjected(make, {3, 5});
  EXPECT_EQ(Widths(plan), (std::vector<size_t>{2, 4, 2, 2, 2, 2}));
}

TEST(ColumnPruningTest, SpillingGraceJoinAndSortCarryNarrowRows) {
  // 400 x 300 rows under a 64-row soft budget: the build spills into Grace
  // partitions and the sort above the join into runs, at pool 0 and on
  // three workers.
  std::vector<Row> probe_rows, build_rows;
  for (int64_t i = 0; i < 400; ++i) {
    probe_rows.push_back({I(i % 50), I(i), S(Tagged("probe-", i)),
                          I(-i)});
  }
  for (int64_t i = 0; i < 300; ++i) {
    build_rows.push_back({I(i % 60), I(i), S(Tagged("build-", i)),
                          I(7 * i)});
  }
  Table probe =
      testutil::MakeTable("probe", {"k", "a", "b", "c"}, std::move(probe_rows));
  Table build =
      testutil::MakeTable("build", {"k", "x", "y", "z"}, std::move(build_rows));
  auto make = [&] {
    std::vector<SortKey> keys;
    keys.emplace_back(eb::Col(7), true);
    keys.emplace_back(eb::Col(1));
    return std::make_unique<Sort>(
        Hash(Scan(&probe), Scan(&build), JoinType::kInner), std::move(keys));
  };
  PhysicalPlan plan = CheckProjected(make, {1, 5}, {0, 3});
  EXPECT_EQ(Widths(plan), (std::vector<size_t>{2, 5, 5, 2, 3}));
}

}  // namespace
}  // namespace qprog
