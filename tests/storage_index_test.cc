#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "exec/plan.h"
#include "exec/scan.h"
#include "expr/expr.h"
#include "index/ordered_index.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"

namespace qprog {
namespace {

using testutil::I;
using testutil::S;

TEST(TableTest, AppendAndAccess) {
  Table t = testutil::MakeTable("t", {"a", "b"}, {{I(1), S("x")}, {I(2), S("y")}});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 0).int64_value(), 1);
  EXPECT_EQ(t.at(1, 1).string_value(), "y");
  EXPECT_EQ(t.name(), "t");
}

TEST(TableTest, ReorderPermutesRows) {
  Table t = testutil::MakeTable("t", {"a"}, {{I(10)}, {I(20)}, {I(30)}});
  t.Reorder({2, 0, 1});
  EXPECT_EQ(t.at(0, 0).int64_value(), 30);
  EXPECT_EQ(t.at(1, 0).int64_value(), 10);
  EXPECT_EQ(t.at(2, 0).int64_value(), 20);
}

TEST(TableTest, SortByColumn) {
  Table t = testutil::MakeTable(
      "t", {"a"}, {{I(3)}, {I(1)}, {testutil::N()}, {I(2)}});
  t.SortByColumn(0);
  EXPECT_TRUE(t.at(0, 0).is_null());  // NULLs first
  EXPECT_EQ(t.at(1, 0).int64_value(), 1);
  EXPECT_EQ(t.at(3, 0).int64_value(), 3);
}

// A row of every column type, NULL in each column at least once.
Schema EveryTypeSchema() {
  return Schema({{"i", TypeId::kInt64},
                 {"d", TypeId::kDouble},
                 {"dt", TypeId::kDate},
                 {"b", TypeId::kBool},
                 {"s", TypeId::kString},
                 {"n", TypeId::kNull}});
}

std::vector<Row> EveryTypeRows() {
  using testutil::B;
  using testutil::D;
  using testutil::Dt;
  using testutil::N;
  return {
      {I(7), D(2.5), Dt("1995-03-15"), B(true), S("seven"), N()},
      {N(), D(-0.5), Dt("1970-01-01"), B(false), S(""), N()},
      {I(-3), N(), Dt("2000-02-29"), N(), S("a longer string than SSO"), N()},
      {I(0), D(1e300), N(), B(true), N(), N()},
      {I(7), D(0.0), Dt("1992-01-02"), B(false), S("seven"), N()},
  };
}

TEST(ColumnarTableTest, RoundTripsEveryTypeWithNulls) {
  std::vector<Row> rows = EveryTypeRows();
  Table t("t", EveryTypeSchema());
  for (const Row& row : rows) t.AppendRow(row);
  ASSERT_EQ(t.num_rows(), rows.size());
  Row got;
  for (uint64_t i = 0; i < rows.size(); ++i) {
    t.ReadRow(i, &got);
    EXPECT_EQ(RowToString(got), RowToString(rows[i])) << "row " << i;
    for (size_t c = 0; c < rows[i].size(); ++c) {
      EXPECT_EQ(got[c].type(), rows[i][c].type())
          << "row " << i << " col " << c;
      EXPECT_EQ(t.at(i, c).is_null(), rows[i][c].is_null());
      EXPECT_EQ(t.column(c).is_null(i), rows[i][c].is_null());
    }
  }
  // ReadRow overwrites a reused buffer, NULLs and strings included.
  t.ReadRow(2, &got);
  t.ReadRow(0, &got);
  EXPECT_EQ(RowToString(got), RowToString(rows[0]));
  // The typed views expose the payloads; NULL slots hold zero or empty.
  t.column(0).Visit([](auto view) {
    if constexpr (std::is_same_v<decltype(view), BigintView>) {
      EXPECT_EQ(view[0], 7);
      EXPECT_EQ(view[1], 0);
      EXPECT_EQ(view[2], -3);
    } else {
      ADD_FAILURE() << "BIGINT column visited as another type";
    }
  });
  t.column(4).Visit([](auto view) {
    if constexpr (std::is_same_v<decltype(view), VarcharView>) {
      EXPECT_EQ(view[2], "a longer string than SSO");
      EXPECT_EQ(view[3], "");
    } else {
      ADD_FAILURE() << "VARCHAR column visited as another type";
    }
  });
}

TEST(ColumnarTableTest, ReorderPermutesEveryColumn) {
  std::vector<Row> rows = EveryTypeRows();
  Table t("t", EveryTypeSchema());
  for (const Row& row : rows) t.AppendRow(row);
  const std::vector<size_t> perm = {3, 0, 4, 2, 1};
  t.Reorder(perm);
  for (uint64_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(RowToString(testutil::RowAt(t, i)), RowToString(rows[perm[i]]))
        << "row " << i;
  }
}

TEST(ColumnarTableTest, SortByColumnIsStableWithNullsFirst) {
  // Equal keys keep their load order (the tag column), NULL keys first.
  Table t = testutil::MakeTable(
      "t", {"k", "tag"},
      {{S("pear"), I(0)}, {testutil::N(), I(1)}, {S("apple"), I(2)},
       {S("pear"), I(3)}, {testutil::N(), I(4)}, {S("apple"), I(5)},
       {S("fig"), I(6)}});
  t.SortByColumn(0);
  std::string order;
  for (uint64_t i = 0; i < t.num_rows(); ++i) {
    order += RowToString(testutil::RowAt(t, i));
  }
  EXPECT_EQ(order,
            "(NULL, 1)(NULL, 4)(apple, 2)(apple, 5)(fig, 6)(pear, 0)(pear, 3)");
  // The same on a DOUBLE key: stable, NULLs first.
  Table d = testutil::MakeTable(
      "d", {"k", "tag"},
      {{testutil::D(2.5), I(0)}, {testutil::D(-1.0), I(1)},
       {testutil::N(), I(2)}, {testutil::D(2.5), I(3)}});
  d.SortByColumn(0);
  order.clear();
  for (uint64_t i = 0; i < d.num_rows(); ++i) {
    order += RowToString(testutil::RowAt(d, i));
  }
  EXPECT_EQ(order, "(NULL, 2)(-1, 1)(2.5, 0)(2.5, 3)");
}

TEST(ColumnarTableTest, ScansBuildPassingRowsPredicateFirst) {
  // A scan yields exactly ReadRow of its passing rows, with the
  // predicate-first build filling in the columns the predicate skips.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.push_back({I(i), S("name" + std::to_string(i)),
                    i % 5 == 0 ? testutil::N() : testutil::D(i * 0.5)});
  }
  Table t = testutil::MakeTable("t", {"id", "name", "x"}, std::move(rows));
  for (bool with_predicate : {false, true}) {
    SCOPED_TRACE(with_predicate ? "predicate" : "no predicate");
    ExprPtr pred =
        with_predicate ? eb::Gt(eb::Col(2, "x"), eb::Dbl(4.0)) : nullptr;
    PhysicalPlan plan(std::make_unique<SeqScan>(&t, std::move(pred)));
    std::vector<Row> all = CollectRows(&plan);
    std::vector<Row> expected;
    for (uint64_t i = 0; i < t.num_rows(); ++i) {
      Row row = testutil::RowAt(t, i);
      const bool passes = !row[2].is_null() && row[2].double_value() > 4.0;
      if (with_predicate && !passes) continue;
      expected.push_back(std::move(row));
    }
    EXPECT_EQ(testutil::RowsToString(all), testutil::RowsToString(expected));
  }
}

TEST(ColumnarTableDeathTest, AppendRowRejectsMismatchedType) {
  Table t("t", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kString}}));
  t.AppendRow({I(1), testutil::N()});  // NULL fits any column
  EXPECT_DEATH(t.AppendRow({testutil::D(1.0), S("x")}),
               "DOUBLE value for BIGINT column a of table t");
  EXPECT_DEATH(t.AppendRow({I(2), I(3)}),
               "BIGINT value for VARCHAR column b of table t");
  EXPECT_DEATH(t.AppendRow({I(2)}), "row arity 1 != schema arity 2");
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(ColumnarTableTest, VarcharBytesNeverMoveOnceRead) {
  // Values read from a table view the column's bytes directly. Appending
  // more rows, reordering them and moving the table into a Database must
  // leave every earlier view where it was and intact.
  Table t("t",
          Schema({Field("k", TypeId::kInt64), Field("s", TypeId::kString)}));
  for (int64_t i = 0; i < 4; ++i) {
    std::string s = StringPrintf("row-%lld", static_cast<long long>(i));
    t.AppendRow({I(i), Value::String(s)});
  }
  Value cell = t.at(1, 1);
  Row row = testutil::RowAt(t, 2);
  Value boxed = t.column(1).Visit([](auto view) -> Value {
    if constexpr (std::is_same_v<decltype(view), VarcharView>) {
      return VarcharView::Box(view[3]);
    }
    return Value::Null();
  });
  const char* cell_bytes = cell.string_value().data();
  for (int64_t i = 4; i < 50000; ++i) {
    std::string s = StringPrintf("row-%lld", static_cast<long long>(i));
    t.AppendRow({I(-i), Value::String(s)});
  }
  t.SortByColumn(0);
  Database db;
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  EXPECT_EQ(cell.string_value().data(), cell_bytes);
  EXPECT_EQ(cell.string_value(), "row-1");
  EXPECT_EQ(row[1].string_value(), "row-2");
  EXPECT_EQ(boxed.string_value(), "row-3");
  const Table* moved = db.GetTable("t");
  EXPECT_EQ(moved->at(0, 1).string_value(), "row-49999");
  EXPECT_EQ(moved->at(49999, 1).string_value(), "row-3");
}

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  auto created = db.CreateTable("t", Schema({{"a", TypeId::kInt64}}));
  ASSERT_TRUE(created.ok());
  EXPECT_NE(db.GetTable("t"), nullptr);
  EXPECT_EQ(db.GetTable("missing"), nullptr);
  EXPECT_FALSE(db.CreateTable("t", Schema({})).ok());  // duplicate
  EXPECT_TRUE(db.DropTable("t").ok());
  EXPECT_EQ(db.GetTable("t"), nullptr);
  EXPECT_FALSE(db.DropTable("t").ok());
}

TEST(DatabaseTest, AddTableMoves) {
  Database db;
  Table t = testutil::MakeTable("x", {"a"}, {{I(5)}});
  auto added = db.AddTable(std::move(t));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(db.GetTable("x")->num_rows(), 1u);
  EXPECT_EQ(db.TableNames().size(), 1u);
}

TEST(DatabaseTest, BuildAndGetIndex) {
  Database db;
  Table t = testutil::MakeTable("t", {"a", "b"}, {{I(1), I(10)}, {I(2), I(20)}});
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  auto idx = db.BuildOrderedIndex("t", "b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(db.GetOrderedIndex("t", "b"), idx.value());
  EXPECT_EQ(db.GetOrderedIndex("t", "a"), nullptr);
  EXPECT_FALSE(db.BuildOrderedIndex("t", "zz").ok());
  EXPECT_FALSE(db.BuildOrderedIndex("nope", "a").ok());
}

TEST(DatabaseTest, DropTableRemovesIndexesAndStats) {
  Database db;
  ASSERT_TRUE(db.AddTable(testutil::MakeTable("t", {"a"}, {{I(1)}})).ok());
  ASSERT_TRUE(db.BuildOrderedIndex("t", "a").ok());
  HistogramStatisticsGenerator gen;
  db.SetStats("t", gen.Generate(*db.GetTable("t")));
  EXPECT_NE(db.GetStats("t"), nullptr);
  ASSERT_TRUE(db.DropTable("t").ok());
  EXPECT_EQ(db.GetOrderedIndex("t", "a"), nullptr);
  EXPECT_EQ(db.GetStats("t"), nullptr);
}

TEST(OrderedIndexTest, EqualRange) {
  Table t = testutil::MakeTable(
      "t", {"k"}, {{I(5)}, {I(3)}, {I(5)}, {I(1)}, {I(5)}, {testutil::N()}});
  OrderedIndex idx(&t, 0);
  EXPECT_EQ(idx.num_entries(), 5u);  // NULL excluded
  auto r = idx.EqualRange(I(5));
  EXPECT_EQ(r.size(), 3u);
  for (const uint64_t* p = r.begin; p != r.end; ++p) {
    EXPECT_EQ(t.at(*p, 0).int64_value(), 5);
  }
  EXPECT_EQ(idx.EqualRange(I(2)).size(), 0u);
  EXPECT_EQ(idx.EqualRange(testutil::N()).size(), 0u);
  EXPECT_EQ(idx.max_key_multiplicity(), 3u);
}

TEST(OrderedIndexTest, RangeQueries) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({I(i)});
  Table t = testutil::MakeTable("t", {"k"}, std::move(rows));
  OrderedIndex idx(&t, 0);

  auto r = idx.Range(I(10), true, false, I(20), true, false);
  EXPECT_EQ(r.size(), 11u);
  r = idx.Range(I(10), false, false, I(20), false, false);
  EXPECT_EQ(r.size(), 9u);
  r = idx.Range(Value::Null(), false, true, I(5), true, false);
  EXPECT_EQ(r.size(), 6u);
  r = idx.Range(I(95), true, false, Value::Null(), false, true);
  EXPECT_EQ(r.size(), 5u);
  r = idx.Range(I(50), true, false, I(40), true, false);
  EXPECT_EQ(r.size(), 0u);
}

TEST(OrderedIndexTest, RandomizedAgainstNaive) {
  Rng rng(77);
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) rows.push_back({I(rng.UniformInt(0, 50))});
  Table t = testutil::MakeTable("t", {"k"}, std::move(rows));
  OrderedIndex idx(&t, 0);
  for (int64_t key = -1; key <= 51; ++key) {
    size_t naive = 0;
    for (uint64_t i = 0; i < t.num_rows(); ++i) {
      if (t.at(i, 0).int64_value() == key) ++naive;
    }
    EXPECT_EQ(idx.EqualRange(I(key)).size(), naive) << "key " << key;
  }
}

// ---------------------------------------------------------------------------
// Golden pins over TPC-H (SF 0.01, z = 2), recorded from the row-store
// implementation. A changed pin means the generated data, the index order or
// the key multiplicities changed, not the pin.
// ---------------------------------------------------------------------------

class TpchGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    config.z = 2.0;
    config.collect_stats = false;
    ASSERT_TRUE(tpch::GenerateTpch(config, db_).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* TpchGoldenTest::db_ = nullptr;

TEST_F(TpchGoldenTest, TableContentsMatchPinnedDigests) {
  // FNV-1a 64 over every cell's text, row-major, one digest per table.
  const std::map<std::string, uint64_t> kPinned = {
      {"customer", 0x742e13d1631761a7ULL},
      {"lineitem", 0xe4980d84deb4907fULL},
      {"nation", 0x3a6cb88e3db7117aULL},
      {"orders", 0xc9f317b05d54851eULL},
      {"part", 0x376f2cb7bc580a93ULL},
      {"partsupp", 0x25888ad35c429ad0ULL},
      {"region", 0xe9ffb75385acebeaULL},
      {"supplier", 0x950faa4fb20395a7ULL},
  };
  ASSERT_EQ(db_->TableNames().size(), kPinned.size());
  for (const std::string& name : db_->TableNames()) {
    const Table& t = *db_->GetTable(name);
    std::string text;
    for (uint64_t i = 0; i < t.num_rows(); ++i) {
      for (size_t c = 0; c < t.schema().num_fields(); ++c) {
        text += t.at(i, c).ToString();
        text += c + 1 < t.schema().num_fields() ? "|" : "\n";
      }
    }
    uint64_t digest = testutil::Fnv1a64(text);
    EXPECT_EQ(digest, kPinned.at(name)) << name << " digest 0x" << std::hex
                                        << digest;
  }
}

TEST_F(TpchGoldenTest, OrderedIndexesMatchPinnedRowOrder) {
  // FNV-1a 64 over the index's row ids in entry order; the key multiplicity
  // feeds the INL upper bound (Section 5.1), so it is pinned too.
  struct Pin {
    const char* table;
    const char* column;
    uint64_t digest;
    uint64_t max_key_multiplicity;
  };
  const Pin kPinned[] = {
      {"region", "r_regionkey", 0x37d4498f5c5141f5ULL, 1},
      {"nation", "n_nationkey", 0x83ff4b6ceb96e4b3ULL, 1},
      {"supplier", "s_suppkey", 0xbe007c0da7e3c9c3ULL, 1},
      {"part", "p_partkey", 0x8a93f1113ec038e3ULL, 1},
      {"customer", "c_custkey", 0x4d6f53cfb8f224e1ULL, 1},
      {"orders", "o_orderkey", 0x94e8310b3cde0027ULL, 1},
      {"lineitem", "l_orderkey", 0xa03de7252bc67eb1ULL, 7},
      {"partsupp", "ps_partkey", 0x845e6b3b5e38f8b3ULL, 4},
      {"lineitem", "l_partkey", 0x10c9c39aa12dd54dULL, 36302},
  };
  for (const Pin& pin : kPinned) {
    SCOPED_TRACE(std::string(pin.table) + "." + pin.column);
    const OrderedIndex* idx = db_->GetOrderedIndex(pin.table, pin.column);
    ASSERT_NE(idx, nullptr);
    OrderedIndex::EntryRange all =
        idx->Range(Value::Null(), false, true, Value::Null(), false, true);
    ASSERT_EQ(all.size(), idx->num_entries());
    std::string text;
    for (const uint64_t* p = all.begin; p != all.end; ++p) {
      text += StringPrintf("%llu,", static_cast<unsigned long long>(*p));
    }
    uint64_t digest = testutil::Fnv1a64(text);
    EXPECT_EQ(digest, pin.digest) << "digest 0x" << std::hex << digest;
    EXPECT_EQ(idx->max_key_multiplicity(), pin.max_key_multiplicity);
  }
}

}  // namespace
}  // namespace qprog
