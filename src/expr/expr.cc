#include "expr/expr.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/strings.h"
#include "types/date.h"

namespace qprog {

namespace {

// Kleene truth values: false(0), unknown(1), true(2).
int TruthOf(const Value& v) {
  if (v.is_null()) return 1;
  return v.bool_value() ? 2 : 0;
}

Value TruthToValue(int t) {
  if (t == 1) return Value::Null();
  return Value::Bool(t == 2);
}

}  // namespace

// --------------------------------------------------------------------------
// ColumnRefExpr

Value ColumnRefExpr::Eval(const Row& row) const {
  QPROG_DCHECK(index_ < row.size());
  return row[index_];
}

ExprPtr ColumnRefExpr::Clone() const {
  return std::make_unique<ColumnRefExpr>(index_, name_);
}

std::string ColumnRefExpr::ToString() const {
  if (!name_.empty()) return name_;
  return StringPrintf("$%zu", index_);
}

// --------------------------------------------------------------------------
// LiteralExpr

Value LiteralExpr::Eval(const Row&) const { return value_; }

ExprPtr LiteralExpr::Clone() const {
  return std::make_unique<LiteralExpr>(value_);
}

std::string LiteralExpr::ToString() const {
  if (value_.type() == TypeId::kString) {
    return StringPrintf("'%s'", value_.ToString().c_str());
  }
  if (value_.type() == TypeId::kDate) {
    return StringPrintf("DATE '%s'", value_.ToString().c_str());
  }
  return value_.ToString();
}

// --------------------------------------------------------------------------
// CompareExpr

Value CompareExpr::Eval(const Row& row) const {
  Value l = left_->Eval(row);
  if (l.is_null()) return Value::Null();
  Value r = right_->Eval(row);
  if (r.is_null()) return Value::Null();
  return Value::Bool(EvalCompareOp(op_, l.Compare(r)));
}

ExprPtr CompareExpr::Clone() const {
  return std::make_unique<CompareExpr>(op_, left_->Clone(), right_->Clone());
}

std::string CompareExpr::ToString() const {
  return StringPrintf("(%s %s %s)", left_->ToString().c_str(),
                      CompareOpToString(op_), right_->ToString().c_str());
}

// --------------------------------------------------------------------------
// ArithExpr

Value ArithExpr::Eval(const Row& row) const {
  Value l = left_->Eval(row);
  if (l.is_null()) return Value::Null();
  Value r = right_->Eval(row);
  if (r.is_null()) return Value::Null();
  // Integer arithmetic stays integral except division.
  if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64 &&
      op_ != ArithOp::kDiv) {
    int64_t a = l.int64_value();
    int64_t b = r.int64_value();
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Int64(a + b);
      case ArithOp::kSub:
        return Value::Int64(a - b);
      case ArithOp::kMul:
        return Value::Int64(a * b);
      case ArithOp::kDiv:
        break;
    }
  }
  double a = l.AsDouble();
  double b = r.AsDouble();
  switch (op_) {
    case ArithOp::kAdd:
      return Value::Double(a + b);
    case ArithOp::kSub:
      return Value::Double(a - b);
    case ArithOp::kMul:
      return Value::Double(a * b);
    case ArithOp::kDiv:
      if (b == 0.0) return Value::Null();
      return Value::Double(a / b);
  }
  return Value::Null();
}

ExprPtr ArithExpr::Clone() const {
  return std::make_unique<ArithExpr>(op_, left_->Clone(), right_->Clone());
}

std::string ArithExpr::ToString() const {
  const char* op = "?";
  switch (op_) {
    case ArithOp::kAdd:
      op = "+";
      break;
    case ArithOp::kSub:
      op = "-";
      break;
    case ArithOp::kMul:
      op = "*";
      break;
    case ArithOp::kDiv:
      op = "/";
      break;
  }
  return StringPrintf("(%s %s %s)", left_->ToString().c_str(), op,
                      right_->ToString().c_str());
}

// --------------------------------------------------------------------------
// AndExpr / OrExpr / NotExpr

Value AndExpr::Eval(const Row& row) const {
  int truth = 2;
  for (const ExprPtr& c : children_) {
    int t = TruthOf(c->Eval(row));
    if (t == 0) return Value::Bool(false);  // short circuit
    truth = std::min(truth, t);
  }
  return TruthToValue(truth);
}

ExprPtr AndExpr::Clone() const {
  std::vector<ExprPtr> children;
  children.reserve(children_.size());
  for (const ExprPtr& c : children_) children.push_back(c->Clone());
  return std::make_unique<AndExpr>(std::move(children));
}

std::string AndExpr::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(children_.size());
  for (const ExprPtr& c : children_) parts.push_back(c->ToString());
  return StringPrintf("(%s)", JoinStrings(parts, " AND ").c_str());
}

Value OrExpr::Eval(const Row& row) const {
  int truth = 0;
  for (const ExprPtr& c : children_) {
    int t = TruthOf(c->Eval(row));
    if (t == 2) return Value::Bool(true);  // short circuit
    truth = std::max(truth, t);
  }
  return TruthToValue(truth);
}

ExprPtr OrExpr::Clone() const {
  std::vector<ExprPtr> children;
  children.reserve(children_.size());
  for (const ExprPtr& c : children_) children.push_back(c->Clone());
  return std::make_unique<OrExpr>(std::move(children));
}

std::string OrExpr::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(children_.size());
  for (const ExprPtr& c : children_) parts.push_back(c->ToString());
  return StringPrintf("(%s)", JoinStrings(parts, " OR ").c_str());
}

Value NotExpr::Eval(const Row& row) const {
  Value v = child_->Eval(row);
  if (v.is_null()) return Value::Null();
  return Value::Bool(!v.bool_value());
}

ExprPtr NotExpr::Clone() const {
  return std::make_unique<NotExpr>(child_->Clone());
}

std::string NotExpr::ToString() const {
  return StringPrintf("(NOT %s)", child_->ToString().c_str());
}

// --------------------------------------------------------------------------
// LikeExpr

bool LikeExpr::Matches(std::string_view text, std::string_view pattern) {
  // Iterative wildcard matching with backtracking over the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

LikePattern::LikePattern(std::string pattern) : pattern_(std::move(pattern)) {
  backtrack_ = pattern_.find('_') != std::string::npos;
  const size_t first = pattern_.find('%');
  has_percent_ = first != std::string::npos;
  if (backtrack_) return;
  if (!has_percent_) {
    prefix_ = pattern_;
    return;
  }
  const size_t last = pattern_.rfind('%');
  prefix_ = pattern_.substr(0, first);
  suffix_ = pattern_.substr(last + 1);
  for (size_t at = first + 1; at <= last;) {
    const size_t end = pattern_.find('%', at);
    if (end > at) middles_.push_back(pattern_.substr(at, end - at));
    at = end + 1;
  }
}

bool LikePattern::Matches(std::string_view text) const {
  if (backtrack_) return LikeExpr::Matches(text, pattern_);
  if (!has_percent_) return text == prefix_;
  // The anchors may not overlap: 'a%a' does not match "a".
  if (text.size() < prefix_.size() + suffix_.size() ||
      !text.starts_with(prefix_) || !text.ends_with(suffix_)) {
    return false;
  }
  // Each middle segment is taken at its leftmost place after the previous
  // one, inside the text between the anchors; with only '%' wildcards the
  // leftmost place never loses a match that a later one would find.
  const std::string_view between = text.substr(0, text.size() - suffix_.size());
  size_t at = prefix_.size();
  for (const std::string& middle : middles_) {
    const size_t found = between.find(middle, at);
    if (found == std::string_view::npos) return false;
    at = found + middle.size();
  }
  return true;
}

Value LikeExpr::Eval(const Row& row) const {
  Value v = input_->Eval(row);
  if (v.is_null()) return Value::Null();
  bool m = pattern_.Matches(v.string_value());
  return Value::Bool(negated_ ? !m : m);
}

ExprPtr LikeExpr::Clone() const {
  return std::make_unique<LikeExpr>(input_->Clone(), pattern_.pattern(),
                                    negated_);
}

std::string LikeExpr::ToString() const {
  return StringPrintf("(%s %s '%s')", input_->ToString().c_str(),
                      negated_ ? "NOT LIKE" : "LIKE",
                      pattern_.pattern().c_str());
}

// --------------------------------------------------------------------------
// InListExpr

Value InListExpr::Eval(const Row& row) const {
  Value v = input_->Eval(row);
  if (v.is_null()) return Value::Null();
  bool null_item = false;
  for (const Value& item : list_) {
    if (item.is_null()) {
      null_item = true;
    } else if (v.Compare(item) == 0) {
      return Value::Bool(!negated_);
    }
  }
  // No item equals v, but a NULL item might: the answer is unknown.
  if (null_item) return Value::Null();
  return Value::Bool(negated_);
}

ExprPtr InListExpr::Clone() const {
  return std::make_unique<InListExpr>(input_->Clone(), list_, negated_);
}

std::string InListExpr::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(list_.size());
  for (const Value& v : list_) parts.push_back(v.ToString());
  return StringPrintf("(%s %s (%s))", input_->ToString().c_str(),
                      negated_ ? "NOT IN" : "IN",
                      JoinStrings(parts, ", ").c_str());
}

// --------------------------------------------------------------------------
// IsNullExpr

Value IsNullExpr::Eval(const Row& row) const {
  Value v = input_->Eval(row);
  return Value::Bool(negated_ ? !v.is_null() : v.is_null());
}

ExprPtr IsNullExpr::Clone() const {
  return std::make_unique<IsNullExpr>(input_->Clone(), negated_);
}

std::string IsNullExpr::ToString() const {
  return StringPrintf("(%s %s)", input_->ToString().c_str(),
                      negated_ ? "IS NOT NULL" : "IS NULL");
}

// --------------------------------------------------------------------------
// CaseExpr

Value CaseExpr::Eval(const Row& row) const {
  for (const Branch& b : branches_) {
    Value cond = b.condition->Eval(row);
    if (!cond.is_null() && cond.bool_value()) return b.result->Eval(row);
  }
  if (else_result_ != nullptr) return else_result_->Eval(row);
  return Value::Null();
}

ExprPtr CaseExpr::Clone() const {
  std::vector<Branch> branches;
  branches.reserve(branches_.size());
  for (const Branch& b : branches_) {
    branches.push_back(Branch{b.condition->Clone(), b.result->Clone()});
  }
  return std::make_unique<CaseExpr>(
      std::move(branches),
      else_result_ != nullptr ? else_result_->Clone() : nullptr);
}

std::string CaseExpr::ToString() const {
  std::string out = "CASE";
  for (const Branch& b : branches_) {
    out += StringPrintf(" WHEN %s THEN %s", b.condition->ToString().c_str(),
                        b.result->ToString().c_str());
  }
  if (else_result_ != nullptr) {
    out += StringPrintf(" ELSE %s", else_result_->ToString().c_str());
  }
  out += " END";
  return out;
}

// --------------------------------------------------------------------------
// ExtractYearExpr

Value ExtractYearExpr::Eval(const Row& row) const {
  Value v = input_->Eval(row);
  if (v.is_null()) return Value::Null();
  int y, m, d;
  CivilFromDays(v.date_value(), &y, &m, &d);
  return Value::Int64(y);
}

ExprPtr ExtractYearExpr::Clone() const {
  return std::make_unique<ExtractYearExpr>(input_->Clone());
}

std::string ExtractYearExpr::ToString() const {
  return StringPrintf("EXTRACT(YEAR FROM %s)", input_->ToString().c_str());
}

// --------------------------------------------------------------------------
// SubstringExpr

Value SubstringExpr::Eval(const Row& row) const {
  Value v = input_->Eval(row);
  if (v.is_null()) return Value::Null();
  std::string_view s = v.string_value();
  if (start_ < 1 || static_cast<size_t>(start_ - 1) >= s.size() ||
      length_ <= 0) {
    return Value::String("");
  }
  return Value::String(s.substr(static_cast<size_t>(start_ - 1),
                                static_cast<size_t>(length_)));
}

ExprPtr SubstringExpr::Clone() const {
  return std::make_unique<SubstringExpr>(input_->Clone(), start_, length_);
}

std::string SubstringExpr::ToString() const {
  return StringPrintf("SUBSTRING(%s, %d, %d)", input_->ToString().c_str(),
                      start_, length_);
}

// --------------------------------------------------------------------------
// Child traversal

using ChildFn = std::function<void(const Expr&)>;

void CompareExpr::ForEachChild(const ChildFn& fn) const {
  fn(*left_);
  fn(*right_);
}

void ArithExpr::ForEachChild(const ChildFn& fn) const {
  fn(*left_);
  fn(*right_);
}

void AndExpr::ForEachChild(const ChildFn& fn) const {
  for (const ExprPtr& c : children_) fn(*c);
}

void OrExpr::ForEachChild(const ChildFn& fn) const {
  for (const ExprPtr& c : children_) fn(*c);
}

void NotExpr::ForEachChild(const ChildFn& fn) const { fn(*child_); }

void LikeExpr::ForEachChild(const ChildFn& fn) const { fn(*input_); }

void InListExpr::ForEachChild(const ChildFn& fn) const { fn(*input_); }

void IsNullExpr::ForEachChild(const ChildFn& fn) const { fn(*input_); }

void CaseExpr::ForEachChild(const ChildFn& fn) const {
  for (const Branch& b : branches_) {
    fn(*b.condition);
    fn(*b.result);
  }
  if (else_result_ != nullptr) fn(*else_result_);
}

void ExtractYearExpr::ForEachChild(const ChildFn& fn) const { fn(*input_); }

void SubstringExpr::ForEachChild(const ChildFn& fn) const { fn(*input_); }

void ForEachColumnRef(const Expr& expr,
                      const std::function<void(const ColumnRefExpr&)>& fn) {
  if (expr.kind() == ExprKind::kColumnRef) {
    fn(static_cast<const ColumnRefExpr&>(expr));
  }
  expr.ForEachChild([&fn](const Expr& child) { ForEachColumnRef(child, fn); });
}

std::vector<size_t> ReferencedColumns(const Expr& expr) {
  std::vector<size_t> columns;
  ForEachColumnRef(expr, [&columns](const ColumnRefExpr& ref) {
    columns.push_back(ref.index());
  });
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return columns;
}

void MarkReferencedColumns(const Expr& expr, std::vector<bool>* columns) {
  ForEachColumnRef(expr, [columns](const ColumnRefExpr& ref) {
    columns->at(ref.index()) = true;
  });
}

void RemapColumns(Expr* expr, const std::vector<size_t>& map) {
  // The walk hands out const references, but every node belongs to the tree
  // the caller passed as mutable, so writing through them is well defined.
  ForEachColumnRef(*expr, [&map](const ColumnRefExpr& ref) {
    const size_t to = map.at(ref.index());
    QPROG_CHECK(to != kDroppedColumn);
    const_cast<ColumnRefExpr&>(ref).set_index(to);
  });
}

void EvalKey(const std::vector<ExprPtr>& keys, const Row& row, Row* key) {
  key->clear();
  for (const ExprPtr& e : keys) key->push_back(e->Eval(row));
}

// --------------------------------------------------------------------------
// Builders

namespace eb {

ExprPtr Col(size_t index, std::string name) {
  return std::make_unique<ColumnRefExpr>(index, std::move(name));
}
ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }
ExprPtr Int(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr Dbl(double v) { return Lit(Value::Double(v)); }
ExprPtr Str(std::string_view v) { return Lit(Value::String(v)); }

ExprPtr DateLit(const char* ymd) {
  auto days = ParseDate(ymd);
  QPROG_CHECK_MSG(days.ok(), "bad date literal %s", ymd);
  return Lit(Value::Date(days.value()));
}

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<CompareExpr>(op, std::move(l), std::move(r));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kEq, std::move(l), std::move(r));
}
ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kNe, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kGe, std::move(l), std::move(r));
}

ExprPtr Add(ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithExpr>(ArithOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithExpr>(ArithOp::kSub, std::move(l), std::move(r));
}
ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithExpr>(ArithOp::kMul, std::move(l), std::move(r));
}
ExprPtr Div(ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithExpr>(ArithOp::kDiv, std::move(l), std::move(r));
}

ExprPtr And(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> children;
  children.push_back(std::move(a));
  children.push_back(std::move(b));
  return std::make_unique<AndExpr>(std::move(children));
}
ExprPtr And(std::vector<ExprPtr> children) {
  return std::make_unique<AndExpr>(std::move(children));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> children;
  children.push_back(std::move(a));
  children.push_back(std::move(b));
  return std::make_unique<OrExpr>(std::move(children));
}
ExprPtr Or(std::vector<ExprPtr> children) {
  return std::make_unique<OrExpr>(std::move(children));
}
ExprPtr Not(ExprPtr e) { return std::make_unique<NotExpr>(std::move(e)); }

ExprPtr Like(ExprPtr input, std::string pattern) {
  return std::make_unique<LikeExpr>(std::move(input), std::move(pattern),
                                    /*negated=*/false);
}
ExprPtr NotLike(ExprPtr input, std::string pattern) {
  return std::make_unique<LikeExpr>(std::move(input), std::move(pattern),
                                    /*negated=*/true);
}
ExprPtr In(ExprPtr input, std::vector<Value> list) {
  return std::make_unique<InListExpr>(std::move(input), std::move(list),
                                      /*negated=*/false);
}
ExprPtr NotIn(ExprPtr input, std::vector<Value> list) {
  return std::make_unique<InListExpr>(std::move(input), std::move(list),
                                      /*negated=*/true);
}
ExprPtr IsNull(ExprPtr input) {
  return std::make_unique<IsNullExpr>(std::move(input), /*negated=*/false);
}
ExprPtr IsNotNull(ExprPtr input) {
  return std::make_unique<IsNullExpr>(std::move(input), /*negated=*/true);
}
ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi) {
  ExprPtr copy = e->Clone();
  return And(Ge(std::move(e), std::move(lo)), Le(std::move(copy), std::move(hi)));
}
ExprPtr Year(ExprPtr input) {
  return std::make_unique<ExtractYearExpr>(std::move(input));
}
ExprPtr Substr(ExprPtr input, int start, int length) {
  return std::make_unique<SubstringExpr>(std::move(input), start, length);
}

}  // namespace eb

}  // namespace qprog
