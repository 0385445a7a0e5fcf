// Scalar expression trees evaluated tuple-at-a-time by the iterator engine.
//
// NULL semantics follow SQL three-valued logic: comparisons and arithmetic
// with NULL yield NULL; AND/OR use Kleene logic; predicates reject rows whose
// condition is not strictly TRUE.

#ifndef QPROG_EXPR_EXPR_H_
#define QPROG_EXPR_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "types/compare_op.h"
#include "types/schema.h"
#include "types/string_arena.h"
#include "types/value.h"

namespace qprog {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kCompare,
  kArith,
  kAnd,
  kOr,
  kNot,
  kLike,
  kInList,
  kIsNull,
  kCase,
  kExtractYear,
  kSubstring,
};

enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// Abstract scalar expression.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Evaluates against one input row.
  virtual Value Eval(const Row& row) const = 0;

  /// Deep copy.
  virtual ExprPtr Clone() const = 0;

  /// SQL-ish rendering for plan printing.
  virtual std::string ToString() const = 0;

  virtual ExprKind kind() const = 0;

  /// Calls `fn` on each direct child, left to right. Leaves (column
  /// references and literals) have none.
  virtual void ForEachChild(const std::function<void(const Expr&)>&) const {}
};

/// References input column `index`. `name` is used only for printing.
class ColumnRefExpr : public Expr {
 public:
  explicit ColumnRefExpr(size_t index, std::string name = "")
      : index_(index), name_(std::move(name)) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kColumnRef; }
  size_t index() const { return index_; }
  const std::string& name() const { return name_; }
  /// Repoints the reference (RemapColumns).
  void set_index(size_t index) { index_ = index; }

 private:
  size_t index_;
  std::string name_;
};

/// A constant. A VARCHAR literal keeps its own copy of the bytes, so the
/// Values it produces live as long as the expression (and its clones, which
/// copy again).
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(const Value& value) : value_(bytes_.Own(value)) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kLiteral; }
  const Value& value() const { return value_; }

 private:
  StringArena bytes_;  // declared first: value_ is initialized from it
  Value value_;
};

class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kCompare; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;
  CompareOp op() const { return op_; }
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kArith; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class AndExpr : public Expr {
 public:
  explicit AndExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kAnd; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;
  const std::vector<ExprPtr>& children() const { return children_; }

 private:
  std::vector<ExprPtr> children_;
};

class OrExpr : public Expr {
 public:
  explicit OrExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kOr; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;

 private:
  std::vector<ExprPtr> children_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr child) : child_(std::move(child)) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kNot; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;

 private:
  ExprPtr child_;
};

/// SQL LIKE with '%' and '_' wildcards; optional NOT.
class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr input, std::string pattern, bool negated)
      : input_(std::move(input)),
        pattern_(std::move(pattern)),
        negated_(negated) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kLike; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;

  /// Standalone LIKE pattern matcher (exposed for tests).
  static bool Matches(std::string_view text, std::string_view pattern);

 private:
  ExprPtr input_;
  std::string pattern_;
  bool negated_;
};

/// `input IN (v1, v2, ...)`; optional NOT. Keeps its own copy of the
/// list's VARCHAR bytes, like LiteralExpr.
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr input, std::vector<Value> list, bool negated)
      : input_(std::move(input)), list_(std::move(list)), negated_(negated) {
    for (Value& v : list_) v = bytes_.Own(v);
  }
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kInList; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;

 private:
  ExprPtr input_;
  StringArena bytes_;
  std::vector<Value> list_;
  bool negated_;
};

/// `input IS [NOT] NULL`.
class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr input, bool negated)
      : input_(std::move(input)), negated_(negated) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kIsNull; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;

 private:
  ExprPtr input_;
  bool negated_;
};

/// Searched CASE: WHEN cond THEN result ... [ELSE result].
class CaseExpr : public Expr {
 public:
  struct Branch {
    ExprPtr condition;
    ExprPtr result;
  };
  CaseExpr(std::vector<Branch> branches, ExprPtr else_result)
      : branches_(std::move(branches)), else_result_(std::move(else_result)) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kCase; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;

 private:
  std::vector<Branch> branches_;
  ExprPtr else_result_;
};

/// EXTRACT(YEAR FROM date_expr) -> BIGINT.
class ExtractYearExpr : public Expr {
 public:
  explicit ExtractYearExpr(ExprPtr input) : input_(std::move(input)) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kExtractYear; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;

 private:
  ExprPtr input_;
};

/// SUBSTRING(str, start, length) with 1-based start (SQL semantics). The
/// result views its input's bytes.
class SubstringExpr : public Expr {
 public:
  SubstringExpr(ExprPtr input, int start, int length)
      : input_(std::move(input)), start_(start), length_(length) {}
  Value Eval(const Row& row) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  ExprKind kind() const override { return ExprKind::kSubstring; }
  void ForEachChild(
      const std::function<void(const Expr&)>& fn) const override;

 private:
  ExprPtr input_;
  int start_;
  int length_;
};

/// Calls `fn` on every column reference in `expr`'s tree, in pre-order.
void ForEachColumnRef(const Expr& expr,
                      const std::function<void(const ColumnRefExpr&)>& fn);

/// The input columns `expr` reads, ascending and without duplicates.
std::vector<size_t> ReferencedColumns(const Expr& expr);

/// Sets `(*columns)[i]` for every input column i that `expr` reads.
/// `*columns` must already be that wide.
void MarkReferencedColumns(const Expr& expr, std::vector<bool>* columns);

/// A column map's entry for a column that was not kept.
inline constexpr size_t kDroppedColumn = ~size_t{0};

/// Rewrites, in place, each reference to input column i in `*expr` into a
/// reference to column `map[i]`: the expression's input was narrowed and
/// `map` gives each old column's new position (PhysicalOperator::
/// PruneColumns). Every column `expr` reads must have been kept.
void RemapColumns(Expr* expr, const std::vector<size_t>& map);

/// Evaluates each of `keys` over `row`, in order, into `*key`: a join or
/// group key. `*key` is overwritten, so a caller that reuses one buffer
/// from row to row allocates only while it grows.
void EvalKey(const std::vector<ExprPtr>& keys, const Row& row, Row* key);

// ---------------------------------------------------------------------------
// Builder helpers. `namespace eb` keeps plan-construction code readable:
//   eb::Gt(eb::Col(4, "l_quantity"), eb::Lit(Value::Int64(24)))
// ---------------------------------------------------------------------------
namespace eb {

ExprPtr Col(size_t index, std::string name = "");
ExprPtr Lit(Value v);
ExprPtr Int(int64_t v);
ExprPtr Dbl(double v);
ExprPtr Str(std::string_view v);
/// Date literal from "YYYY-MM-DD"; aborts on malformed input (builder use).
ExprPtr DateLit(const char* ymd);

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);

ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);

ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr And(std::vector<ExprPtr> children);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Or(std::vector<ExprPtr> children);
ExprPtr Not(ExprPtr e);

ExprPtr Like(ExprPtr input, std::string pattern);
ExprPtr NotLike(ExprPtr input, std::string pattern);
ExprPtr In(ExprPtr input, std::vector<Value> list);
ExprPtr NotIn(ExprPtr input, std::vector<Value> list);
ExprPtr IsNull(ExprPtr input);
ExprPtr IsNotNull(ExprPtr input);
/// lo <= e AND e <= hi.
ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi);
ExprPtr Year(ExprPtr input);
ExprPtr Substr(ExprPtr input, int start, int length);

}  // namespace eb

}  // namespace qprog

#endif  // QPROG_EXPR_EXPR_H_
