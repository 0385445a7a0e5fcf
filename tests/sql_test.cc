// SQL frontend tests: lexer, parser, and end-to-end planning/execution.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "exec/query_guard.h"
#include "exec/spill.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "stats/table_stats.h"
#include "tests/test_util.h"

namespace qprog {
namespace sql {
namespace {

using testutil::D;
using testutil::I;
using testutil::N;
using testutil::S;

// ---------------------------------------------------------------------------
// Lexer

TEST(LexerTest, BasicTokens) {
  auto tokens = Lex("SELECT a, b FROM t WHERE x >= 3.5 AND y = 'hi'");
  ASSERT_TRUE(tokens.ok());
  const auto& v = *tokens;
  EXPECT_EQ(v[0].text, "select");
  EXPECT_EQ(v[0].type, TokenType::kIdentifier);
  EXPECT_TRUE(v[1].Is("a"));
  EXPECT_TRUE(v[2].Is(","));
  size_t ge = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i].text == ">=") ge = i;
  }
  EXPECT_GT(ge, 0u);
  EXPECT_EQ(v[ge + 1].type, TokenType::kFloat);
  EXPECT_EQ(v.back().type, TokenType::kEnd);
}

TEST(LexerTest, StringsWithEscapes) {
  auto tokens = Lex("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(LexerTest, Comments) {
  auto tokens = Lex("select -- comment\n1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].type, TokenType::kInteger);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("select @").ok());
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Lex("a <> b <= c >= d != e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<>");
  EXPECT_EQ((*tokens)[3].text, "<=");
  EXPECT_EQ((*tokens)[5].text, ">=");
  EXPECT_EQ((*tokens)[7].text, "<>");  // != normalizes
}

// ---------------------------------------------------------------------------
// Parser

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY a LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[1].alias, "bee");
  EXPECT_EQ(stmt->from.size(), 1u);
  EXPECT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->order_by.size(), 1u);
  EXPECT_EQ(stmt->limit, 5u);
}

TEST(ParserTest, SelectStar) {
  auto stmt = Parse("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->items[0].expr, nullptr);
}

TEST(ParserTest, JoinsAndAliases) {
  auto stmt = Parse(
      "SELECT o.a FROM orders o JOIN customer c ON o.custkey = c.custkey");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].alias, "o");
  ASSERT_EQ(stmt->joins.size(), 1u);
  EXPECT_EQ(stmt->joins[0].table.alias, "c");
  EXPECT_NE(stmt->joins[0].on, nullptr);
}

TEST(ParserTest, GroupByHaving) {
  auto stmt = Parse(
      "SELECT g, count(*), sum(v) FROM t GROUP BY g HAVING count(*) > 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_NE(stmt->having, nullptr);
  EXPECT_EQ(stmt->items[1].expr->kind, SqlExprKind::kFunc);
  EXPECT_TRUE(stmt->items[1].expr->star);
}

TEST(ParserTest, PredicateForms) {
  auto stmt = Parse(
      "SELECT a FROM t WHERE a LIKE 'x%' AND b NOT IN (1, 2) AND c BETWEEN 1 "
      "AND 9 AND d IS NOT NULL AND NOT (e = 1 OR f = 2)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
}

TEST(ParserTest, DateLiterals) {
  auto stmt = Parse("SELECT a FROM t WHERE d < DATE '1995-03-15'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = Parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt.ok());
  // OR at top, AND beneath its right child.
  EXPECT_EQ(stmt->where->kind, SqlExprKind::kOr);
  EXPECT_EQ(stmt->where->children[1]->kind, SqlExprKind::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = Parse("SELECT a + b * c FROM t");
  ASSERT_TRUE(stmt.ok());
  const SqlExpr& e = *stmt->items[0].expr;
  EXPECT_EQ(e.kind, SqlExprKind::kArith);
  EXPECT_EQ(e.op, "+");
  EXPECT_EQ(e.children[1]->op, "*");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a").ok());               // missing FROM
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());  // dangling WHERE
  EXPECT_FALSE(Parse("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t extra garbage here").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t JOIN u").ok());  // missing ON
}

// ---------------------------------------------------------------------------
// Planner / end-to-end

class SqlEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    Table dept = testutil::MakeTable(
        "dept", {"dept_id", "dept_name"},
        {{I(1), S("eng")}, {I(2), S("sales")}, {I(3), S("hr")}});
    Table emp = testutil::MakeTable(
        "emp", {"emp_id", "name", "dept_id", "salary"},
        {{I(1), S("ada"), I(1), D(120.0)},
         {I(2), S("bob"), I(1), D(100.0)},
         {I(3), S("cat"), I(2), D(90.0)},
         {I(4), S("dan"), I(2), D(80.0)},
         {I(5), S("eve"), N(), D(70.0)}});
    QPROG_CHECK(db_->AddTable(std::move(dept)).ok());
    QPROG_CHECK(db_->AddTable(std::move(emp)).ok());
    HistogramStatisticsGenerator gen(8);
    for (const std::string& t : db_->TableNames()) {
      db_->SetStats(t, gen.Generate(*db_->GetTable(t)));
    }
  }
  static Database* db_;
};

Database* SqlEndToEndTest::db_ = nullptr;

TEST_F(SqlEndToEndTest, SelectStar) {
  auto rows = ExecuteSql("SELECT * FROM emp", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 5u);
  EXPECT_EQ(rows->rows[0].size(), 4u);
}

TEST_F(SqlEndToEndTest, FilterAndProject) {
  auto rows = ExecuteSql(
      "SELECT name, salary FROM emp WHERE salary >= 90 ORDER BY salary DESC",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 3u);
  EXPECT_EQ(rows->rows[0][0].string_value(), "ada");
  EXPECT_EQ(rows->rows[2][0].string_value(), "cat");
}

TEST_F(SqlEndToEndTest, NotInWithNullItemReturnsNoRows) {
  // `x NOT IN (1, NULL)` is never TRUE: each row is either an IN match
  // (FALSE) or unknown, since the NULL item might equal it.
  auto rows = ExecuteSql(
      "SELECT emp_id FROM emp WHERE emp_id NOT IN (1, NULL)", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 0u);
  // Without the NULL the same list keeps the four other rows.
  rows = ExecuteSql("SELECT emp_id FROM emp WHERE emp_id NOT IN (1)", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 4u);
}

TEST_F(SqlEndToEndTest, JoinWithOnClause) {
  auto rows = ExecuteSql(
      "SELECT e.name, d.dept_name FROM emp e JOIN dept d ON e.dept_id = "
      "d.dept_id ORDER BY e.name",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 4u);  // eve has NULL dept
  EXPECT_EQ(rows->rows[0][0].string_value(), "ada");
  EXPECT_EQ(rows->rows[0][1].string_value(), "eng");
}

TEST_F(SqlEndToEndTest, ImplicitJoinViaWhere) {
  auto rows = ExecuteSql(
      "SELECT e.name FROM emp e, dept d WHERE e.dept_id = d.dept_id AND "
      "d.dept_name = 'sales' ORDER BY e.name",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0].string_value(), "cat");
}

TEST_F(SqlEndToEndTest, GroupByWithAggregates) {
  auto rows = ExecuteSql(
      "SELECT dept_id, count(*) AS c, sum(salary) AS total, avg(salary), "
      "min(salary), max(salary) FROM emp GROUP BY dept_id ORDER BY 2 DESC, 1",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 3u);  // dept 1, dept 2, NULL
  const Row& first = rows->rows[0];
  EXPECT_EQ(first[1].int64_value(), 2);
}

TEST_F(SqlEndToEndTest, Having) {
  auto rows = ExecuteSql(
      "SELECT dept_id, count(*) FROM emp GROUP BY dept_id HAVING count(*) >= "
      "2 ORDER BY dept_id",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 2u);
}

TEST_F(SqlEndToEndTest, ScalarAggregate) {
  auto rows = ExecuteSql("SELECT count(*), avg(salary) FROM emp", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].int64_value(), 5);
  EXPECT_DOUBLE_EQ(rows->rows[0][1].double_value(), 92.0);
}

TEST_F(SqlEndToEndTest, CountDistinct) {
  auto rows = ExecuteSql("SELECT count(distinct dept_id) FROM emp", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].int64_value(), 2);  // NULL not counted
}

TEST_F(SqlEndToEndTest, LikeInBetweenIsNull) {
  auto rows = ExecuteSql(
      "SELECT name FROM emp WHERE name LIKE '%a%' AND salary BETWEEN 80 AND "
      "130 AND dept_id IS NOT NULL ORDER BY name",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 3u);  // ada, cat, dan
}

TEST_F(SqlEndToEndTest, CrossJoinWhenNoKeys) {
  auto rows = ExecuteSql("SELECT count(*) FROM emp, dept", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].int64_value(), 15);
}

TEST_F(SqlEndToEndTest, LimitCutsResults) {
  auto rows = ExecuteSql("SELECT name FROM emp ORDER BY name LIMIT 2", *db_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 2u);
}

TEST_F(SqlEndToEndTest, ArithmeticInSelect) {
  auto rows = ExecuteSql(
      "SELECT name, salary * 2 AS double_pay FROM emp WHERE emp_id = 1",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_DOUBLE_EQ(rows->rows[0][1].double_value(), 240.0);
}

TEST_F(SqlEndToEndTest, PlannerErrors) {
  EXPECT_FALSE(ExecuteSql("SELECT x FROM emp", *db_).ok());
  EXPECT_FALSE(ExecuteSql("SELECT name FROM nope", *db_).ok());
  EXPECT_FALSE(ExecuteSql("SELECT dept_id FROM emp e, emp e", *db_).ok());
  EXPECT_FALSE(
      ExecuteSql("SELECT name, count(*) FROM emp GROUP BY dept_id", *db_)
          .ok());  // name not grouped
  EXPECT_FALSE(ExecuteSql("SELECT * FROM emp GROUP BY dept_id", *db_).ok());
  // Unqualified ambiguous column across two tables with same column name.
  EXPECT_FALSE(
      ExecuteSql("SELECT dept_id FROM emp, dept", *db_).ok());
}

TEST_F(SqlEndToEndTest, SubstringProjectsAPrefix) {
  auto rows = ExecuteSql(
      "SELECT substring(name, 2, 2), substring(name, 9, 1) FROM emp "
      "WHERE substring(name, 1, 1) = 'c'",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].string_value(), "at");
  EXPECT_EQ(rows->rows[0][1].string_value(), "");
  EXPECT_FALSE(Parse("SELECT substring(name, x, 1) FROM emp").ok());
  EXPECT_FALSE(Parse("SELECT substring(name, 1, 9999999999) FROM emp").ok());
}

TEST(SqlSessionStringsTest, ExecuteRowsOutliveTheSessionAndItsSpillManager) {
  // A literal projection, SUBSTRING views and a VARCHAR GROUP BY that spills
  // under a 16-row budget: every string the rows view lives in the plan, the
  // tables or the spill manager's arena — all gone once the session's scope
  // ends. The rows must carry their own copy.
  Database db;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 600; ++i) {
    rows.push_back({S("word-" + std::to_string(i % 150)), I(i)});
  }
  ASSERT_TRUE(
      db.AddTable(testutil::MakeTable("w", {"word", "n"}, std::move(rows)))
          .ok());
  std::string dir =
      (std::filesystem::temp_directory_path() / "qprog_sql_strings").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StatusOr<QueryRows> literal = Internal("not run");
  StatusOr<QueryRows> grouped = Internal("not run");
  uint64_t runs = 0;
  {
    auto spill = std::make_unique<SpillManager>(dir);
    QueryGuard guard;
    guard.set_max_buffered_rows(16);
    SessionOptions options;
    options.guard = &guard;
    options.spill_manager = spill.get();
    auto session = std::make_unique<SqlSession>(&db, options);
    literal = session->Execute(
        "SELECT 'tag', substring(word, 6, 3), n FROM w WHERE n < 3");
    grouped = session->Execute(
        "SELECT word, count(*), min(word) FROM w GROUP BY word ORDER BY word");
    runs = spill->stats().runs_created;
    session.reset();
    spill.reset();
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(runs, 0u) << "the GROUP BY did not spill";
  ASSERT_TRUE(literal.ok()) << literal.status();
  ASSERT_EQ(literal->rows.size(), 3u);
  for (const Row& r : literal->rows) {
    EXPECT_EQ(r[0].string_value(), "tag");
    EXPECT_EQ(r[1].string_value(), std::to_string(r[2].int64_value()));
  }
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  ASSERT_EQ(grouped->rows.size(), 150u);
  for (const Row& r : grouped->rows) {
    EXPECT_EQ(r[0].string_value().substr(0, 5), "word-");
    EXPECT_EQ(r[1].int64_value(), 4);
    EXPECT_EQ(r[2].string_value(), r[0].string_value());
  }
  EXPECT_EQ(grouped->rows[0][0].string_value(), "word-0");
}

TEST_F(SqlEndToEndTest, PlanShapeHasMergedScanPredicate) {
  auto plan = PlanSql("SELECT name FROM emp WHERE salary > 100", *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Project over a scan with the predicate merged: exactly 2 nodes.
  EXPECT_EQ(plan->num_nodes(), 2u);
  EXPECT_EQ(plan->nodes()[0]->kind(), OpKind::kProject);
  EXPECT_EQ(plan->nodes()[1]->kind(), OpKind::kSeqScan);
  EXPECT_GT(plan->nodes()[1]->estimated_rows(), 0);
}

TEST_F(SqlEndToEndTest, JoinPlanUsesHashJoin) {
  auto plan = PlanSql(
      "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.dept_id", *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  bool has_hash_join = false;
  for (const PhysicalOperator* op : plan->nodes()) {
    if (op->kind() == OpKind::kHashJoin) has_hash_join = true;
  }
  EXPECT_TRUE(has_hash_join);
}

}  // namespace
}  // namespace sql
}  // namespace qprog
