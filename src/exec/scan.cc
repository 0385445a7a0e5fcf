#include "exec/scan.h"

#include <type_traits>
#include <utility>

#include "common/strings.h"
#include "exec/fault_injector.h"

namespace qprog {

namespace {

/// Keeps the entries of `*columns` (a leaf's table column per output
/// position) that `needed` flags; returns each old position's new one.
std::vector<size_t> KeepNeeded(const std::vector<bool>& needed,
                               std::vector<size_t>* columns) {
  std::vector<size_t> map(columns->size(), kDroppedColumn);
  std::vector<size_t> kept;
  for (size_t j = 0; j < columns->size(); ++j) {
    if (!needed[j]) continue;
    map[j] = kept.size();
    kept.push_back((*columns)[j]);
  }
  *columns = std::move(kept);
  return map;
}

}  // namespace

// --------------------------------------------------------------------------
// Conjunct tests
//
// Each compiled test returns exactly what Expr::Eval would make of its
// conjunct, TRUE against FALSE-or-NULL. The three-way comparison is
// Value::Compare's: same-typed BIGINTs and DATEs compare exactly, every
// other pair of numeric types as doubles (so NaN compares equal to
// everything and -0.0 equals 0.0, since neither < nor > holds), and VARCHARs
// bytewise. A shape Value::Compare would abort on (VARCHAR against a number,
// BOOLEAN against anything) is never compiled, so Expr::Eval still aborts.

class SeqScan::Conjunct {
 public:
  virtual ~Conjunct() = default;
  /// Takes the views of the column payloads the test reads. Called at
  /// every Open, so the views are those of the table as it is run.
  virtual void Bind() {}
  /// True when the conjunct is TRUE on table row `row`. `scratch` is the
  /// scan's table-wide row, for the Expr::Eval fallback.
  virtual bool Test(uint64_t row, Row* scratch) const = 0;
};

namespace {

using Conjunct = SeqScan::Conjunct;
using ConjunctPtr = std::unique_ptr<Conjunct>;

template <typename T>
int ThreeWay(T a, T b) {
  if (a < b) return -1;
  return b < a ? 1 : 0;
}

/// `a op b` is `b op' a`.
CompareOp Flip(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      break;
  }
  return op;
}

/// `column`'s payload as a View (the one Column::Visit picks for it).
template <typename View>
View ViewOf(const Column& column) {
  View out{};
  column.Visit([&out](auto view) {
    if constexpr (std::is_same_v<decltype(view), View>) out = view;
  });
  return out;
}

/// The type Value::Compare compares a `column`-typed value with an
/// `other`-typed one in, or kNull where it would abort or the column is
/// not comparable: BIGINT or DATE against its own type exactly (kInt64,
/// kDate), numbers otherwise as doubles (kDouble), VARCHARs as strings.
TypeId CompareDomain(TypeId column, TypeId other) {
  if (column == TypeId::kString && other == TypeId::kString) {
    return TypeId::kString;
  }
  if (!IsNumericType(column) || !IsNumericType(other)) return TypeId::kNull;
  return column == other ? column : TypeId::kDouble;
}

/// A non-NULL literal as domain type D.
template <typename D>
D As(const Value& v) {
  if constexpr (std::is_same_v<D, double>) return v.AsDouble();
  if constexpr (std::is_same_v<D, int64_t>) return v.int64_value();
  if constexpr (std::is_same_v<D, int32_t>) return v.date_value();
  if constexpr (std::is_same_v<D, std::string_view>) return v.string_value();
}

/// Calls `fn(view, D{})` with `column`'s typed view and the C++ type D of
/// `domain` (a CompareDomain other than kNull that has `column`'s type on
/// its left).
template <typename Fn>
ConjunctPtr WithDomain(const Column& column, TypeId domain, Fn&& fn) {
  return column.Visit([&](auto view) -> ConjunctPtr {
    using T = typename decltype(view)::value_type;
    if constexpr (std::is_same_v<T, bool>) {
      return nullptr;  // BOOLEAN has no compiled domain
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (domain == TypeId::kDouble) return fn(view, double{});
      return fn(view, T{});
    } else {
      return fn(view, T{});  // VARCHAR compares only as strings
    }
  });
}

/// `column op literal`.
template <typename View, typename D>
class LiteralTest final : public Conjunct {
 public:
  LiteralTest(const Column* column, CompareOp op, D literal)
      : column_(column), op_(op), literal_(literal) {}
  void Bind() override { view_ = ViewOf<View>(*column_); }
  bool Test(uint64_t row, Row*) const override {
    return !column_->is_null(row) &&
           EvalCompareOp(op_, ThreeWay<D>(static_cast<D>(view_[row]), literal_));
  }

 private:
  const Column* column_;
  View view_{};
  CompareOp op_;
  D literal_;  // a VARCHAR views the predicate's literal
};

/// `left op right` over two columns of one type.
template <typename View>
class ColumnsTest final : public Conjunct {
 public:
  ColumnsTest(const Column* left, CompareOp op, const Column* right)
      : left_(left), right_(right), op_(op) {}
  void Bind() override {
    lview_ = ViewOf<View>(*left_);
    rview_ = ViewOf<View>(*right_);
  }
  bool Test(uint64_t row, Row*) const override {
    return !left_->is_null(row) && !right_->is_null(row) &&
           EvalCompareOp(op_, ThreeWay(lview_[row], rview_[row]));
  }

 private:
  const Column* left_;
  const Column* right_;
  CompareOp op_;
  View lview_{};
  View rview_{};
};

/// `column [NOT] IN (items)`: TRUE on a match for IN, and for NOT IN only
/// when nothing matches and no item is NULL.
template <typename View, typename D>
class InListTest final : public Conjunct {
 public:
  InListTest(const Column* column, std::vector<D> items, bool null_item,
             bool negated)
      : column_(column),
        items_(std::move(items)),
        null_item_(null_item),
        negated_(negated) {}
  void Bind() override { view_ = ViewOf<View>(*column_); }
  bool Test(uint64_t row, Row*) const override {
    if (column_->is_null(row)) return false;
    const D v = static_cast<D>(view_[row]);
    for (const D& item : items_) {
      if (ThreeWay(v, item) == 0) return !negated_;
    }
    return negated_ && !null_item_;
  }

 private:
  const Column* column_;
  View view_{};
  std::vector<D> items_;  // the non-NULL items; VARCHARs view the list's
  bool null_item_;
  bool negated_;
};

/// `column [NOT] LIKE pattern`, sharing the LikeExpr's compiled pattern.
class LikeTest final : public Conjunct {
 public:
  LikeTest(const Column* column, const LikeExpr* like)
      : column_(column), like_(like) {}
  void Bind() override { view_ = ViewOf<VarcharView>(*column_); }
  bool Test(uint64_t row, Row*) const override {
    return !column_->is_null(row) &&
           like_->pattern().Matches(view_[row]) != like_->negated();
  }

 private:
  const Column* column_;
  const LikeExpr* like_;
  VarcharView view_{};
};

/// `column IS [NOT] NULL`, for a column of any type.
class IsNullTest final : public Conjunct {
 public:
  IsNullTest(const Column* column, bool negated)
      : column_(column), negated_(negated) {}
  bool Test(uint64_t row, Row*) const override {
    return column_->is_null(row) != negated_;
  }

 private:
  const Column* column_;
  bool negated_;
};

/// Any other conjunct: Expr::Eval over the scratch row, of which only this
/// conjunct's own columns are read.
class EvalTest final : public Conjunct {
 public:
  EvalTest(const Table* table, const Expr* expr)
      : table_(table), expr_(expr), columns_(ReferencedColumns(*expr)) {}
  bool Test(uint64_t row, Row* scratch) const override {
    table_->ReadColumns(row, columns_, scratch);
    const Value keep = expr_->Eval(*scratch);
    return !keep.is_null() && keep.bool_value();
  }

 private:
  const Table* table_;
  const Expr* expr_;
  std::vector<size_t> columns_;
};

/// The table column `expr` references, or null when it is not a reference.
const Column* ColumnOf(const Table& table, const Expr* expr) {
  if (expr->kind() != ExprKind::kColumnRef) return nullptr;
  return &table.column(static_cast<const ColumnRefExpr*>(expr)->index());
}

ConjunctPtr CompileCompare(const Table& table, const CompareExpr& cmp) {
  CompareOp op = cmp.op();
  const Expr* left = cmp.left();
  const Expr* right = cmp.right();
  if (left->kind() == ExprKind::kLiteral) {
    std::swap(left, right);
    op = Flip(op);
  }
  const Column* column = ColumnOf(table, left);
  if (column == nullptr) return nullptr;
  if (const Column* other = ColumnOf(table, right)) {
    if (column->type() != other->type() ||
        CompareDomain(column->type(), other->type()) == TypeId::kNull) {
      return nullptr;
    }
    return WithDomain(*column, column->type(), [&](auto view, auto) {
      return std::make_unique<ColumnsTest<decltype(view)>>(column, op, other);
    });
  }
  if (right->kind() != ExprKind::kLiteral) return nullptr;
  const Value& literal = static_cast<const LiteralExpr*>(right)->value();
  const TypeId domain = CompareDomain(column->type(), literal.type());
  if (domain == TypeId::kNull) return nullptr;
  return WithDomain(*column, domain, [&](auto view, auto d) {
    using D = decltype(d);
    return std::make_unique<LiteralTest<decltype(view), D>>(column, op,
                                                             As<D>(literal));
  });
}

ConjunctPtr CompileInList(const Table& table, const InListExpr& in) {
  const Column* column = ColumnOf(table, in.input());
  if (column == nullptr) return nullptr;
  // Every non-NULL item must compare with the column in one domain.
  TypeId domain = TypeId::kNull;
  bool null_item = false;
  for (const Value& item : in.list()) {
    if (item.is_null()) {
      null_item = true;
      continue;
    }
    const TypeId d = CompareDomain(column->type(), item.type());
    if (d == TypeId::kNull || (domain != TypeId::kNull && d != domain)) {
      return nullptr;
    }
    domain = d;
  }
  if (domain == TypeId::kNull) return nullptr;  // no non-NULL item
  return WithDomain(*column, domain, [&](auto view, auto d) -> ConjunctPtr {
    using D = decltype(d);
    std::vector<D> items;
    for (const Value& item : in.list()) {
      if (!item.is_null()) items.push_back(As<D>(item));
    }
    return std::make_unique<InListTest<decltype(view), D>>(
        column, std::move(items), null_item, in.negated());
  });
}

/// A typed test for `expr`, or null when it has none of the compiled shapes.
ConjunctPtr Compile(const Table& table, const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kCompare:
      return CompileCompare(table, static_cast<const CompareExpr&>(expr));
    case ExprKind::kInList:
      return CompileInList(table, static_cast<const InListExpr&>(expr));
    case ExprKind::kLike: {
      const auto& like = static_cast<const LikeExpr&>(expr);
      const Column* column = ColumnOf(table, like.input());
      if (column == nullptr || column->type() != TypeId::kString) {
        return nullptr;
      }
      return std::make_unique<LikeTest>(column, &like);
    }
    case ExprKind::kIsNull: {
      const auto& is_null = static_cast<const IsNullExpr&>(expr);
      const Column* column = ColumnOf(table, is_null.input());
      if (column == nullptr) return nullptr;
      return std::make_unique<IsNullTest>(column, is_null.negated());
    }
    default:
      return nullptr;
  }
}

/// Appends `expr`'s conjuncts to `*out`, flattening nested ANDs in order.
void Conjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind() != ExprKind::kAnd) {
    out->push_back(&expr);
    return;
  }
  expr.ForEachChild([out](const Expr& child) { Conjuncts(child, out); });
}

}  // namespace

// --------------------------------------------------------------------------
// SeqScan

SeqScan::SeqScan(const Table* table, ExprPtr predicate)
    : table_(table),
      predicate_(std::move(predicate)),
      columns_(IdentityColumnMap(table_->schema().num_fields())),
      schema_(table_->schema()) {
  if (predicate_ == nullptr) return;
  predicate_row_.resize(table_->schema().num_fields());
  std::vector<const Expr*> conjuncts;
  Conjuncts(*predicate_, &conjuncts);
  for (const Expr* expr : conjuncts) {
    ConjunctPtr test = Compile(*table_, *expr);
    if (test != nullptr) {
      ++num_compiled_conjuncts_;
    } else {
      test = std::make_unique<EvalTest>(table_, expr);
    }
    conjuncts_.push_back(std::move(test));
  }
}

SeqScan::~SeqScan() = default;

std::vector<size_t> SeqScan::PruneColumns(const std::vector<bool>& needed) {
  std::vector<size_t> map = KeepNeeded(needed, &columns_);
  schema_ = table_->schema().Select(columns_);
  return map;
}

void SeqScan::DoOpen(ExecContext* ctx) {
  cursor_ = 0;
  emitted_ = 0;
  finished_ = false;
  for (const ConjunctPtr& c : conjuncts_) c->Bind();
  ctx->ConsultFault(faults::kSeqScanOpen, node_id());
}

bool SeqScan::Passes(uint64_t row) {
  for (const ConjunctPtr& c : conjuncts_) {
    if (!c->Test(row, &predicate_row_)) return false;
  }
  return true;
}

bool SeqScan::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kSeqScanNext, node_id())) {
    return false;
  }
  while (cursor_ < table_->num_rows()) {
    const uint64_t row = cursor_++;
    // Every examined row is one getnext at the leaf, merged predicate or
    // not — the accounting that makes the paper's Table 2 mu >= 1 (each
    // base tuple must be read once; Section 5.2's LB >= sum of leaf
    // cardinalities).
    ctx->CountRow(node_id(), is_root());
    if (!ctx->ok()) return false;  // guard tripped while counting
    if (!Passes(row)) continue;
    // `out` is written only for a passing row, so it is untouched on false.
    out->resize(columns_.size());
    for (size_t j = 0; j < columns_.size(); ++j) {
      (*out)[j] = table_->at(row, columns_[j]);
    }
    ++emitted_;
    return true;
  }
  finished_ = true;
  return false;
}

void SeqScan::DoClose(ExecContext*) {}

std::string SeqScan::label() const {
  if (predicate_ != nullptr) {
    return StringPrintf("SeqScan(%s, pred=%s)", table_->name().c_str(),
                        predicate_->ToString().c_str());
  }
  return StringPrintf("SeqScan(%s)", table_->name().c_str());
}

void SeqScan::FillProgressState(const ExecContext& ctx,
                                ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  // The node's work counter tallies examined rows; production (what the
  // parent consumes) is the emitted count.
  state->rows_produced = emitted_;
  state->input_examined = cursor_;
  state->base_rows = table_->num_rows();
  if (predicate_ == nullptr) {
    state->exact_total = static_cast<double>(table_->num_rows());
  }
}

// --------------------------------------------------------------------------
// IndexSeek

IndexSeek::IndexSeek(const OrderedIndex* index)
    : index_(index),
      columns_(IdentityColumnMap(index_->table()->schema().num_fields())),
      schema_(index_->table()->schema()) {}

IndexSeek::IndexSeek(const OrderedIndex* index, Value lo, bool lo_inclusive,
                     bool lo_unbounded, Value hi, bool hi_inclusive,
                     bool hi_unbounded)
    : index_(index),
      columns_(IdentityColumnMap(index_->table()->schema().num_fields())),
      schema_(index_->table()->schema()),
      range_mode_(true),
      lo_(bounds_.Own(lo)),
      lo_inclusive_(lo_inclusive),
      lo_unbounded_(lo_unbounded),
      hi_(bounds_.Own(hi)),
      hi_inclusive_(hi_inclusive),
      hi_unbounded_(hi_unbounded) {}

std::vector<size_t> IndexSeek::PruneColumns(const std::vector<bool>& needed) {
  std::vector<size_t> map = KeepNeeded(needed, &columns_);
  schema_ = index_->table()->schema().Select(columns_);
  return map;
}

void IndexSeek::Rebind(const Value& key) {
  current_ = index_->EqualRange(key);
  pos_ = 0;
}

void IndexSeek::DoOpen(ExecContext*) {
  finished_ = false;
  opened_ = true;
  if (range_mode_) {
    current_ = index_->Range(lo_, lo_inclusive_, lo_unbounded_, hi_,
                             hi_inclusive_, hi_unbounded_);
  } else {
    current_ = {};
  }
  pos_ = 0;
}

bool IndexSeek::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kIndexSeekNext, node_id())) {
    return false;
  }
  if (pos_ >= current_.size()) {
    if (range_mode_) finished_ = true;
    return false;
  }
  const uint64_t row_id = current_.begin[pos_++];
  out->resize(columns_.size());
  for (size_t j = 0; j < columns_.size(); ++j) {
    (*out)[j] = index_->table()->at(row_id, columns_[j]);
  }
  Emit(ctx);
  return true;
}

void IndexSeek::DoClose(ExecContext*) {}

std::string IndexSeek::label() const {
  return StringPrintf("IndexSeek(%s.%s%s)", index_->table()->name().c_str(),
                      index_->table()
                          ->schema()
                          .field(index_->column())
                          .name.c_str(),
                      range_mode_ ? ", range" : "");
}

void IndexSeek::FillProgressState(const ExecContext& ctx,
                                  ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  state->base_rows = index_->num_entries();
  state->max_per_probe = index_->max_key_multiplicity();
  if (range_mode_ && opened_) {
    // A static range seek's total production is the size of the range,
    // known exactly once Open has positioned the cursor.
    state->exact_total = static_cast<double>(current_.size());
  }
}

}  // namespace qprog
