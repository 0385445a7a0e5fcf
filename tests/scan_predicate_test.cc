// SeqScan's compiled predicate conjuncts against Expr::Eval: a scan with a
// merged predicate must emit exactly the rows, in the same order, that a
// Filter over a bare scan emits, and count every row it examines.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/filter_project.h"
#include "exec/plan.h"
#include "exec/scan.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace qprog {
namespace {

using testutil::B;
using testutil::D;
using testutil::I;
using testutil::N;
using testutil::S;

constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                              CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

// The values each column type draws from, NULL included. Large BIGINTs
// sit where a double cannot tell neighbours apart; NaN and -0.0 test
// Value::Compare's "neither < nor >" equality; the strings share prefixes.
std::vector<Value> Domain(TypeId type) {
  switch (type) {
    case TypeId::kInt64:
      return {N(),  I(-3), I(0),  I(1),
              I(2), I(5),  I(int64_t{1} << 53), I((int64_t{1} << 53) + 1)};
    case TypeId::kDouble:
      return {N(),    D(kNaN), D(-0.0), D(0.0), D(1.0),
              D(1.5), D(2.0),  D(-kInf), D(9007199254740992.0)};
    case TypeId::kDate:
      return {N(), Value::Date(-1), Value::Date(0), Value::Date(1),
              Value::Date(2), Value::Date(10000)};
    case TypeId::kString:
      return {N(),     S(""),    S("a"),   S("ab"),  S("abc"),
              S("abd"), S("b"),  S("ba"),  S("special requests"),
              S("a special x requests"), S("specialrequests")};
    case TypeId::kBool:
      return {N(), B(false), B(true)};
    case TypeId::kNull:
      return {N()};
  }
  return {N()};
}

// Two columns of every TypeId (the second one for `col op col`), filled
// from Domain() by a fixed generator so every pair of values meets.
Table MakeTypedTable() {
  const TypeId types[] = {TypeId::kInt64, TypeId::kDouble, TypeId::kDate,
                          TypeId::kString, TypeId::kBool,  TypeId::kNull};
  std::vector<Field> fields;
  for (TypeId type : types) {
    for (const char* suffix : {"_a", "_b"}) {
      fields.emplace_back(std::string(TypeIdToString(type)) + suffix, type);
    }
  }
  Table t("typed", Schema(fields));
  uint64_t state = 12345;
  for (int i = 0; i < 600; ++i) {
    Row row;
    for (const Field& f : fields) {
      const std::vector<Value> domain = Domain(f.type);
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      row.push_back(domain[(state >> 33) % domain.size()]);
    }
    t.AppendRow(row);
  }
  return t;
}

// Whether Value::Compare accepts the pair (it aborts on the others). A NULL
// side never reaches it.
bool Comparable(TypeId a, TypeId b) {
  if (a == TypeId::kNull || b == TypeId::kNull) return true;
  if (a == TypeId::kString || b == TypeId::kString) return a == b;
  if (a == TypeId::kBool || b == TypeId::kBool) return a == b;
  return true;
}

bool CompilableType(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kDate ||
         t == TypeId::kString;
}

class ScanPredicateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { table_ = new Table(MakeTypedTable()); }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  static ExprPtr Col(size_t c) {
    return eb::Col(c, table_->schema().field(c).name);
  }
  static TypeId TypeOf(size_t c) { return table_->schema().field(c).type; }

  // Runs `pred` merged into the scan and as a Filter over a bare scan, and
  // expects the same rows in the same order, every table row counted at the
  // scan, and `compiled` of its conjuncts compiled.
  static void ExpectMatchesFilter(const Expr& pred, size_t compiled) {
    auto scan = std::make_unique<SeqScan>(table_, pred.Clone());
    const SeqScan* merged_scan = scan.get();
    PhysicalPlan merged(std::move(scan));
    ExecContext ctx;
    const std::vector<Row> got = CollectRows(&merged, &ctx);
    ASSERT_TRUE(ctx.ok()) << pred.ToString();
    EXPECT_EQ(ctx.rows_produced(merged_scan->node_id()), table_->num_rows())
        << pred.ToString();
    EXPECT_EQ(merged_scan->num_compiled_conjuncts(), compiled)
        << pred.ToString();

    PhysicalPlan separate(std::make_unique<Filter>(
        std::make_unique<SeqScan>(table_), pred.Clone()));
    const std::vector<Row> want = CollectRows(&separate);
    EXPECT_EQ(got.size(), want.size()) << pred.ToString();
    EXPECT_EQ(testutil::RowsToString(got), testutil::RowsToString(want))
        << pred.ToString();
  }

  static Table* table_;
};

Table* ScanPredicateTest::table_ = nullptr;

TEST_F(ScanPredicateTest, ColumnAgainstLiteralInBothOrders) {
  const size_t n = table_->schema().num_fields();
  int cases = 0;
  for (size_t c = 0; c < n; ++c) {
    for (TypeId lit_type : {TypeId::kInt64, TypeId::kDouble, TypeId::kDate,
                            TypeId::kString, TypeId::kBool, TypeId::kNull}) {
      if (!Comparable(TypeOf(c), lit_type)) continue;
      // Cross-type literals included: a BIGINT column against DOUBLE and
      // DATE literals, a DOUBLE column against BIGINT ones, and so on.
      const bool compiled = CompilableType(TypeOf(c)) &&
                            lit_type != TypeId::kNull &&
                            lit_type != TypeId::kBool;
      for (const Value& lit : Domain(lit_type)) {
        for (CompareOp op : kOps) {
          ExpectMatchesFilter(*eb::Cmp(op, Col(c), eb::Lit(lit)),
                              compiled && !lit.is_null() ? 1 : 0);
          ExpectMatchesFilter(*eb::Cmp(op, eb::Lit(lit), Col(c)),
                              compiled && !lit.is_null() ? 1 : 0);
          cases += 2;
        }
      }
    }
  }
  EXPECT_GT(cases, 1000);
}

TEST_F(ScanPredicateTest, ColumnAgainstColumn) {
  // NULLs fall on either side: every column holds some.
  const size_t n = table_->schema().num_fields();
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (!Comparable(TypeOf(a), TypeOf(b))) continue;
      const bool compiled =
          TypeOf(a) == TypeOf(b) && CompilableType(TypeOf(a));
      for (CompareOp op : kOps) {
        ExpectMatchesFilter(*eb::Cmp(op, Col(a), Col(b)), compiled ? 1 : 0);
      }
    }
  }
}

TEST_F(ScanPredicateTest, InAndNotInLists) {
  struct Case {
    size_t column;
    std::vector<Value> list;
    bool compiled;
  };
  const std::vector<Case> cases = {
      {0, {I(1), I(5)}, true},
      {0, {I(1), N()}, true},
      {0, {I(int64_t{1} << 53)}, true},
      {0, {D(1.0), D(2.5)}, true},  // as doubles
      {0, {D(kNaN)}, true},          // NaN equals everything
      {0, {I(1), D(2.5)}, false},    // exact and double items mixed
      {0, {N()}, false},             // no non-NULL item
      {2, {D(-0.0), D(1.5), N()}, true},
      {2, {I(0), I(2)}, true},
      {4, {Value::Date(0), Value::Date(10000)}, true},
      {4, {I(1), D(2.0)}, true},  // both compare as doubles
      {6, {S(""), S("ab")}, true},
      {6, {S("a"), S("abc"), N()}, true},
      {8, {B(true)}, false},
      {10, {I(1), N()}, false},
  };
  for (const Case& c : cases) {
    for (bool negated : {false, true}) {
      for (size_t column : {c.column, c.column + 1}) {
        ExprPtr pred = negated ? eb::NotIn(Col(column), c.list)
                               : eb::In(Col(column), c.list);
        ExpectMatchesFilter(*pred, c.compiled ? 1 : 0);
      }
    }
  }
}

TEST_F(ScanPredicateTest, LikeAndNotLike) {
  const char* patterns[] = {"",     "%",    "%%",  "a",   "a%",  "%a",
                            "%b%",  "a%a",  "ab%", "%ab", "a_",  "_",
                            "%a_%", "%special%requests%", "special%",
                            "%requests"};
  for (size_t column : {6, 7}) {
    for (const char* pattern : patterns) {
      ExpectMatchesFilter(*eb::Like(Col(column), pattern), 1);
      ExpectMatchesFilter(*eb::NotLike(Col(column), pattern), 1);
    }
  }
}

TEST_F(ScanPredicateTest, IsNullAndIsNotNullOnEveryType) {
  for (size_t c = 0; c < table_->schema().num_fields(); ++c) {
    ExpectMatchesFilter(*eb::IsNull(Col(c)), 1);
    ExpectMatchesFilter(*eb::IsNotNull(Col(c)), 1);
  }
}

TEST_F(ScanPredicateTest, AndMixesCompiledAndEvaluatedConjuncts) {
  // Nested ANDs flatten, BETWEEN is two conjuncts, and an OR, arithmetic or
  // a BOOLEAN comparison runs through Expr::Eval in its place.
  std::vector<ExprPtr> parts;
  parts.push_back(eb::Between(Col(0), eb::Int(0), eb::Int(5)));
  parts.push_back(eb::Or(eb::Lt(Col(2), eb::Dbl(1.0)), eb::IsNull(Col(4))));
  parts.push_back(eb::And(eb::NotLike(Col(6), "%b%"),
                          eb::Ne(eb::Add(Col(0), eb::Int(1)), eb::Int(3))));
  parts.push_back(eb::Eq(Col(8), eb::Lit(B(true))));
  ExprPtr pred = eb::And(std::move(parts));
  ExpectMatchesFilter(*pred, 3);

  auto scan = std::make_unique<SeqScan>(table_, pred->Clone());
  EXPECT_EQ(scan->num_conjuncts(), 6u);
  EXPECT_EQ(scan->num_compiled_conjuncts(), 3u);

  // A NULL conjunct rejects the row even when a later one is FALSE.
  ExpectMatchesFilter(*eb::And(eb::Gt(eb::Add(Col(0), eb::Lit(N())),
                                      eb::Int(0)),
                               eb::Gt(Col(0), eb::Int(0))),
                      1);
}

TEST_F(ScanPredicateTest, PrunedColumnsKeepThePredicateInTableCoordinates) {
  // The predicate reads columns the scan no longer emits.
  auto scan = std::make_unique<SeqScan>(
      table_, eb::And(eb::Lt(Col(0), eb::Int(2)), eb::Like(Col(6), "a%")));
  std::vector<bool> needed(table_->schema().num_fields(), false);
  needed[2] = true;
  scan->PruneColumns(needed);
  PhysicalPlan merged(std::move(scan));
  const std::vector<Row> got = CollectRows(&merged);

  std::vector<Row> want;
  for (uint64_t i = 0; i < table_->num_rows(); ++i) {
    const Value a = table_->at(i, 0);
    const Value s = table_->at(i, 6);
    if (a.is_null() || s.is_null()) continue;
    if (a.int64_value() < 2 && s.string_value().starts_with("a")) {
      want.push_back({table_->at(i, 2)});
    }
  }
  EXPECT_EQ(testutil::RowsToString(got), testutil::RowsToString(want));
}

// Q6, Q12 and Q13 put every predicate into their scans, in shapes that all
// compile; a conjunct that silently fell back to Expr::Eval fails here.
TEST(ScanPredicateTpchTest, Q6Q12Q13CompileEveryScanConjunct) {
  Database db;
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  config.build_indexes = false;
  config.collect_stats = false;
  ASSERT_TRUE(tpch::GenerateTpch(config, &db).ok());
  for (int q : {6, 12, 13}) {
    auto plan = tpch::BuildQuery(q, db);
    ASSERT_TRUE(plan.ok()) << plan.status();
    size_t scans = 0;
    for (PhysicalOperator* op : plan.value().nodes()) {
      const auto* scan = dynamic_cast<const SeqScan*>(op);
      if (scan == nullptr || !scan->has_predicate()) continue;
      ++scans;
      EXPECT_GT(scan->num_conjuncts(), 0u) << "Q" << q;
      EXPECT_EQ(scan->num_compiled_conjuncts(), scan->num_conjuncts())
          << "Q" << q << ": " << scan->label();
    }
    EXPECT_GT(scans, 0u) << "Q" << q;
  }
}

}  // namespace
}  // namespace qprog
