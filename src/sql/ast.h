// Unresolved SQL AST produced by the parser and consumed by the planner.

#ifndef QPROG_SQL_AST_H_
#define QPROG_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "types/compare_op.h"
#include "types/string_arena.h"
#include "types/value.h"

namespace qprog {
namespace sql {

struct SqlExpr;
using SqlExprPtr = std::unique_ptr<SqlExpr>;

enum class SqlExprKind {
  kColumn,    // [table.]column
  kLiteral,   // 42, 3.14, 'x', DATE '1995-01-01'
  kCompare,   // = <> < <= > >=
  kArith,     // + - * /
  kAnd,
  kOr,
  kNot,
  kLike,      // [NOT] LIKE
  kInList,    // [NOT] IN (literals)
  kBetween,   // BETWEEN lo AND hi
  kIsNull,    // IS [NOT] NULL
  kFunc,      // count/sum/avg/min/max(expr | *), [DISTINCT]
  kSubstring,  // substring(expr, start, length), integer start and length
};

struct SqlExpr {
  SqlExprKind kind = SqlExprKind::kLiteral;

  // kColumn
  std::string table;   // optional qualifier
  std::string column;

  // kLiteral
  Value literal;
  // Owns the VARCHAR bytes of `literal` and `in_list`.
  StringArena bytes;

  // kCompare / kArith operator spelled as text: "=", "<>", "+", ...
  std::string op;

  // children: binary ops use [0],[1]; NOT/IsNull/Like/InList use [0];
  // BETWEEN uses [0]=value,[1]=lo,[2]=hi; kFunc uses [0] unless star.
  std::vector<SqlExprPtr> children;

  // kLike
  std::string pattern;
  bool negated = false;  // NOT LIKE / NOT IN / IS NOT NULL

  // kInList
  std::vector<Value> in_list;

  // kSubstring: 1-based start and length
  int start = 0;
  int length = 0;

  // kFunc
  std::string func_name;  // lower-case
  bool star = false;      // count(*)
  bool distinct = false;  // count(distinct x)
};

struct SelectItem {
  SqlExprPtr expr;  // null means '*'
  std::string alias;
};

struct TableRef {
  std::string table;
  std::string alias;  // defaults to table name
};

/// One `JOIN <table> ON <cond>` clause (INNER joins only in the subset).
struct JoinClause {
  TableRef table;
  SqlExprPtr on;
};

struct OrderItem {
  SqlExprPtr expr;
  bool descending = false;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::vector<TableRef> from;     // comma-separated relations
  std::vector<JoinClause> joins;  // explicit JOIN ... ON chains
  SqlExprPtr where;
  std::vector<SqlExprPtr> group_by;
  SqlExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<uint64_t> limit;
};

}  // namespace sql
}  // namespace qprog

#endif  // QPROG_SQL_AST_H_
