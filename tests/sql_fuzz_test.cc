// Deterministic fuzzing of the SQL frontend: random byte soup, token soup,
// and mutated valid queries must never crash or hang — they either parse/plan
// or return a Status (the engine is exception-free, so every failure path is
// an explicit return).

#include <gtest/gtest.h>

#include <memory>

#include <string>

#include "common/random.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "tests/test_util.h"

namespace qprog {
namespace sql {
namespace {

using testutil::I;
using testutil::S;

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  Table t = testutil::MakeTable(
      "t", {"a", "b", "c"},
      {{I(1), S("x"), I(10)}, {I(2), S("y"), I(20)}, {I(3), S("z"), I(30)}});
  Table u = testutil::MakeTable("u", {"a", "d"}, {{I(1), I(7)}, {I(3), I(9)}});
  QPROG_CHECK(db->AddTable(std::move(t)).ok());
  QPROG_CHECK(db->AddTable(std::move(u)).ok());
  return db;
}

TEST(SqlFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(0xF00D);
  std::unique_ptr<Database> db = MakeDb();
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng.Uniform(80);
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input += static_cast<char>(rng.UniformInt(1, 126));
    }
    // Must return, not crash; result status is irrelevant.
    auto plan = PlanSql(input, *db);
    (void)plan;
  }
}

TEST(SqlFuzzTest, TokenSoupNeverCrashes) {
  Rng rng(0xBEEF);
  std::unique_ptr<Database> db = MakeDb();
  const char* tokens[] = {"select", "from",  "where", "group", "by",
                          "order",  "limit", "join",  "on",    "and",
                          "or",     "not",   "like",  "in",    "between",
                          "is",     "null",  "count", "sum",   "(",
                          ")",      ",",     "*",     "=",     "<",
                          ">",      "+",     "-",     "/",     "t",
                          "u",      "a",     "b",     "c",     "d",
                          "1",      "2.5",   "'s'",   "date",  "'1995-01-01'"};
  for (int trial = 0; trial < 3000; ++trial) {
    size_t len = 1 + rng.Uniform(25);
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input += tokens[rng.Uniform(std::size(tokens))];
      input += " ";
    }
    auto plan = PlanSql(input, *db);
    if (plan.ok()) {
      // If it planned, it must also execute without crashing.
      auto rows = CollectRows(&plan.value());
      (void)rows;
    }
  }
}

TEST(SqlFuzzTest, MutatedValidQueriesNeverCrash) {
  Rng rng(0xCAFE);
  std::unique_ptr<Database> db = MakeDb();
  const std::string base =
      "SELECT a, count(*) FROM t JOIN u ON t.a = u.a "
      "WHERE b LIKE 'x%' AND c BETWEEN 5 AND 25 "
      "GROUP BY a ORDER BY a DESC LIMIT 2";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    size_t edits = 1 + rng.Uniform(4);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:  // delete
          mutated.erase(pos, 1);
          break;
        case 1:  // replace
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        default:  // duplicate
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
      if (mutated.empty()) mutated.push_back('x');
    }
    auto plan = PlanSql(mutated, *db);
    if (plan.ok()) {
      auto rows = CollectRows(&plan.value());
      (void)rows;
    }
  }
}

TEST(SqlFuzzTest, LexerHandlesPathologicalInputs) {
  EXPECT_TRUE(Lex(std::string(10000, ' ')).ok());
  EXPECT_TRUE(Lex(std::string(5000, '(')).ok());
  EXPECT_FALSE(Lex(std::string("'") + std::string(5000, 'a')).ok());
  EXPECT_TRUE(Lex("").ok());
  std::string deep = "select a from t where ";
  for (int i = 0; i < 200; ++i) deep += "(";
  deep += "1=1";
  for (int i = 0; i < 200; ++i) deep += ")";
  // Deeply nested parens: the recursive-descent parser must return (either
  // result) without smashing the stack at this depth.
  std::unique_ptr<Database> db = MakeDb();
  auto plan = PlanSql(deep, *db);
  (void)plan;
}

}  // namespace
}  // namespace sql
}  // namespace qprog
