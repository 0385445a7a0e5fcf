#include "sql/planner.h"

#include <functional>
#include <map>
#include <set>

#include "common/strings.h"
#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/join.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "sql/parser.h"
#include "stats/selectivity.h"
#include "stats/table_stats.h"

namespace qprog {
namespace sql {

namespace {

// ---------------------------------------------------------------------------
// Binding scope: the flat column layout of the operator output being built.

struct ColumnBinding {
  std::string qualifier;  // table alias
  std::string name;       // column name
  size_t index = 0;
};

class Scope {
 public:
  void AddTable(const std::string& alias, const Schema& schema) {
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      columns_.push_back(
          ColumnBinding{alias, schema.field(i).name, columns_.size()});
    }
  }

  size_t size() const { return columns_.size(); }
  const std::vector<ColumnBinding>& columns() const { return columns_; }

  StatusOr<size_t> Resolve(const std::string& qualifier,
                           const std::string& name) const {
    int found = -1;
    for (const ColumnBinding& c : columns_) {
      if (!qualifier.empty() && c.qualifier != qualifier) continue;
      if (c.name != name) continue;
      if (found >= 0) {
        return InvalidArgument(
            StringPrintf("ambiguous column '%s'", name.c_str()));
      }
      found = static_cast<int>(c.index);
    }
    if (found < 0) {
      return InvalidArgument(StringPrintf(
          "unknown column '%s%s%s'", qualifier.c_str(),
          qualifier.empty() ? "" : ".", name.c_str()));
    }
    return static_cast<size_t>(found);
  }

  /// True if every column reference in `e` resolves within this scope.
  bool CanResolve(const SqlExpr& e) const {
    if (e.kind == SqlExprKind::kColumn) {
      return Resolve(e.table, e.column).ok();
    }
    for (const SqlExprPtr& c : e.children) {
      if (c != nullptr && !CanResolve(*c)) return false;
    }
    return true;
  }

 private:
  std::vector<ColumnBinding> columns_;
};

// Canonical rendering, used to match select items against GROUP BY
// expressions and to deduplicate aggregate calls.
std::string Render(const SqlExpr& e) {
  switch (e.kind) {
    case SqlExprKind::kColumn:
      return e.table.empty() ? e.column : e.table + "." + e.column;
    case SqlExprKind::kLiteral:
      return e.literal.ToString();
    case SqlExprKind::kCompare:
    case SqlExprKind::kArith:
      return "(" + Render(*e.children[0]) + e.op + Render(*e.children[1]) +
             ")";
    case SqlExprKind::kAnd:
      return "(" + Render(*e.children[0]) + " and " +
             Render(*e.children[1]) + ")";
    case SqlExprKind::kOr:
      return "(" + Render(*e.children[0]) + " or " + Render(*e.children[1]) +
             ")";
    case SqlExprKind::kNot:
      return "(not " + Render(*e.children[0]) + ")";
    case SqlExprKind::kLike:
      return "(" + Render(*e.children[0]) + (e.negated ? " not" : "") +
             " like '" + e.pattern + "')";
    case SqlExprKind::kInList: {
      std::string out = "(" + Render(*e.children[0]) +
                        (e.negated ? " not in (" : " in (");
      for (size_t i = 0; i < e.in_list.size(); ++i) {
        if (i > 0) out += ",";
        out += e.in_list[i].ToString();
      }
      return out + "))";
    }
    case SqlExprKind::kBetween:
      return "(" + Render(*e.children[0]) + " between " +
             Render(*e.children[1]) + " and " + Render(*e.children[2]) + ")";
    case SqlExprKind::kIsNull:
      return "(" + Render(*e.children[0]) +
             (e.negated ? " is not null)" : " is null)");
    case SqlExprKind::kSubstring:
      return StringPrintf("substring(%s,%d,%d)",
                          Render(*e.children[0]).c_str(), e.start, e.length);
    case SqlExprKind::kFunc: {
      std::string out = e.func_name + "(";
      if (e.star) {
        out += "*";
      } else {
        if (e.distinct) out += "distinct ";
        out += Render(*e.children[0]);
      }
      return out + ")";
    }
  }
  return "?";
}

// Binds an AST expression against `scope`, producing an executable Expr.
// Aggregate calls are not allowed here (they are planned separately).
StatusOr<ExprPtr> Bind(const SqlExpr& e, const Scope& scope) {
  switch (e.kind) {
    case SqlExprKind::kColumn: {
      QPROG_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(e.table, e.column));
      return eb::Col(idx, Render(e));
    }
    case SqlExprKind::kLiteral:
      return eb::Lit(e.literal);
    case SqlExprKind::kCompare: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr l, Bind(*e.children[0], scope));
      QPROG_ASSIGN_OR_RETURN(ExprPtr r, Bind(*e.children[1], scope));
      CompareOp op;
      if (e.op == "=") {
        op = CompareOp::kEq;
      } else if (e.op == "<>") {
        op = CompareOp::kNe;
      } else if (e.op == "<") {
        op = CompareOp::kLt;
      } else if (e.op == "<=") {
        op = CompareOp::kLe;
      } else if (e.op == ">") {
        op = CompareOp::kGt;
      } else {
        op = CompareOp::kGe;
      }
      return eb::Cmp(op, std::move(l), std::move(r));
    }
    case SqlExprKind::kArith: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr l, Bind(*e.children[0], scope));
      QPROG_ASSIGN_OR_RETURN(ExprPtr r, Bind(*e.children[1], scope));
      if (e.op == "+") return eb::Add(std::move(l), std::move(r));
      if (e.op == "-") return eb::Sub(std::move(l), std::move(r));
      if (e.op == "*") return eb::Mul(std::move(l), std::move(r));
      return eb::Div(std::move(l), std::move(r));
    }
    case SqlExprKind::kAnd: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr l, Bind(*e.children[0], scope));
      QPROG_ASSIGN_OR_RETURN(ExprPtr r, Bind(*e.children[1], scope));
      return eb::And(std::move(l), std::move(r));
    }
    case SqlExprKind::kOr: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr l, Bind(*e.children[0], scope));
      QPROG_ASSIGN_OR_RETURN(ExprPtr r, Bind(*e.children[1], scope));
      return eb::Or(std::move(l), std::move(r));
    }
    case SqlExprKind::kNot: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr c, Bind(*e.children[0], scope));
      return eb::Not(std::move(c));
    }
    case SqlExprKind::kLike: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr c, Bind(*e.children[0], scope));
      return e.negated ? eb::NotLike(std::move(c), e.pattern)
                       : eb::Like(std::move(c), e.pattern);
    }
    case SqlExprKind::kInList: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr c, Bind(*e.children[0], scope));
      return e.negated ? eb::NotIn(std::move(c), e.in_list)
                       : eb::In(std::move(c), e.in_list);
    }
    case SqlExprKind::kBetween: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr v, Bind(*e.children[0], scope));
      QPROG_ASSIGN_OR_RETURN(ExprPtr lo, Bind(*e.children[1], scope));
      QPROG_ASSIGN_OR_RETURN(ExprPtr hi, Bind(*e.children[2], scope));
      ExprPtr between = eb::Between(std::move(v), std::move(lo), std::move(hi));
      if (e.negated) between = eb::Not(std::move(between));
      return between;
    }
    case SqlExprKind::kIsNull: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr c, Bind(*e.children[0], scope));
      return e.negated ? eb::IsNotNull(std::move(c)) : eb::IsNull(std::move(c));
    }
    case SqlExprKind::kSubstring: {
      QPROG_ASSIGN_OR_RETURN(ExprPtr c, Bind(*e.children[0], scope));
      return eb::Substr(std::move(c), e.start, e.length);
    }
    case SqlExprKind::kFunc:
      return InvalidArgument(StringPrintf(
          "aggregate '%s' not allowed in this context", e.func_name.c_str()));
  }
  return Internal("unhandled expression kind");
}

// Flattens AND trees into conjunct pointers.
void CollectConjuncts(const SqlExpr* e, std::vector<const SqlExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == SqlExprKind::kAnd) {
    CollectConjuncts(e->children[0].get(), out);
    CollectConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

// Collects aggregate calls (kFunc) in the expression tree.
void CollectAggregates(const SqlExpr* e, std::vector<const SqlExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == SqlExprKind::kFunc) {
    out->push_back(e);
    return;  // no nested aggregates in the subset
  }
  for (const SqlExprPtr& c : e->children) CollectAggregates(c.get(), out);
}

bool ContainsAggregate(const SqlExpr* e) {
  std::vector<const SqlExpr*> aggs;
  CollectAggregates(e, &aggs);
  return !aggs.empty();
}

// Statistics-backed selectivity for a conjunct against one table; falls back
// to 1/3. Only simple column-op-literal shapes consult the histogram.
double ConjunctSelectivity(const SqlExpr& e, const Scope& table_scope,
                           const TableStats* stats) {
  if (stats == nullptr) return 1.0 / 3.0;
  if (e.kind == SqlExprKind::kCompare &&
      e.children[0]->kind == SqlExprKind::kColumn &&
      e.children[1]->kind == SqlExprKind::kLiteral) {
    auto idx = table_scope.Resolve(e.children[0]->table, e.children[0]->column);
    if (!idx.ok()) return 1.0 / 3.0;
    PredicateDesc pred;
    pred.column = idx.value();
    pred.operand = e.children[1]->literal;
    if (e.op == "=") {
      pred.op = CompareOp::kEq;
    } else if (e.op == "<>") {
      pred.op = CompareOp::kNe;
    } else if (e.op == "<") {
      pred.op = CompareOp::kLt;
    } else if (e.op == "<=") {
      pred.op = CompareOp::kLe;
    } else if (e.op == ">") {
      pred.op = CompareOp::kGt;
    } else {
      pred.op = CompareOp::kGe;
    }
    return EstimatePredicateSelectivity(*stats, pred);
  }
  if (e.kind == SqlExprKind::kBetween) return 1.0 / 4.0;
  if (e.kind == SqlExprKind::kLike || e.kind == SqlExprKind::kInList) {
    return 1.0 / 5.0;
  }
  return 1.0 / 3.0;
}

// A planned intermediate result: operator + scope + running row estimate.
struct Planned {
  OperatorPtr op;
  Scope scope;
  double est_rows = 0;
};

// Distinct count of a join column, for the containment join estimate.
uint64_t DistinctOf(const Database& db, const std::string& table,
                    const std::string& column) {
  const TableStats* stats = db.GetStats(table);
  const Table* t = db.GetTable(table);
  if (stats == nullptr || t == nullptr) return 1000;
  int idx = t->schema().FindField(column);
  if (idx < 0 || static_cast<size_t>(idx) >= stats->num_columns()) return 1000;
  return std::max<uint64_t>(1, stats->column(static_cast<size_t>(idx)).distinct);
}

}  // namespace

StatusOr<PhysicalPlan> PlanSelect(const SelectStmt& stmt, const Database& db) {
  if (stmt.from.empty()) return InvalidArgument("FROM clause required");

  // Assemble the relation list (FROM items then JOIN items) and check
  // duplicate aliases.
  std::vector<TableRef> relations = stmt.from;
  for (const JoinClause& j : stmt.joins) relations.push_back(j.table);
  std::set<std::string> aliases;
  for (const TableRef& ref : relations) {
    if (db.GetTable(ref.table) == nullptr) {
      return InvalidArgument(
          StringPrintf("unknown table '%s'", ref.table.c_str()));
    }
    if (!aliases.insert(ref.alias).second) {
      return InvalidArgument(
          StringPrintf("duplicate table alias '%s'", ref.alias.c_str()));
    }
  }

  // Conjunct pool: WHERE plus all ON conditions.
  std::vector<const SqlExpr*> conjuncts;
  CollectConjuncts(stmt.where.get(), &conjuncts);
  for (const JoinClause& j : stmt.joins) {
    CollectConjuncts(j.on.get(), &conjuncts);
  }
  std::vector<bool> used(conjuncts.size(), false);

  // Plan each relation as a scan with its single-table conjuncts merged.
  auto plan_scan = [&](const TableRef& ref) -> StatusOr<Planned> {
    const Table* table = db.GetTable(ref.table);
    Scope table_scope;
    table_scope.AddTable(ref.alias, table->schema());
    std::vector<ExprPtr> preds;
    double selectivity = 1.0;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (used[i] || ContainsAggregate(conjuncts[i])) continue;
      if (!table_scope.CanResolve(*conjuncts[i])) continue;
      QPROG_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*conjuncts[i], table_scope));
      selectivity *=
          ConjunctSelectivity(*conjuncts[i], table_scope, db.GetStats(ref.table));
      preds.push_back(std::move(bound));
      used[i] = true;
    }
    ExprPtr predicate;
    if (preds.size() == 1) {
      predicate = std::move(preds[0]);
    } else if (preds.size() > 1) {
      predicate = eb::And(std::move(preds));
    }
    auto scan = std::make_unique<SeqScan>(table, std::move(predicate));
    double est = std::max(1.0, static_cast<double>(table->num_rows()) *
                                   selectivity);
    scan->set_estimated_rows(est);
    Planned planned;
    planned.op = std::move(scan);
    planned.scope = table_scope;
    planned.est_rows = est;
    return planned;
  };

  QPROG_ASSIGN_OR_RETURN(Planned current, plan_scan(relations[0]));

  // Left-deep joins in relation order.
  for (size_t r = 1; r < relations.size(); ++r) {
    QPROG_ASSIGN_OR_RETURN(Planned next, plan_scan(relations[r]));
    // Combined scope: current's columns keep their positions, the new
    // relation's columns follow.
    Scope rebuilt;
    for (const ColumnBinding& c : current.scope.columns()) {
      rebuilt.AddTable(c.qualifier, Schema({Field(c.name, TypeId::kNull)}));
    }
    for (const ColumnBinding& c : next.scope.columns()) {
      rebuilt.AddTable(c.qualifier, Schema({Field(c.name, TypeId::kNull)}));
    }

    // Find equi-join conjuncts col(current) = col(next).
    std::vector<ExprPtr> probe_keys, build_keys;
    std::vector<ExprPtr> residuals;
    uint64_t probe_distinct = 1, build_distinct = 1;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (used[i] || ContainsAggregate(conjuncts[i])) continue;
      const SqlExpr* e = conjuncts[i];
      if (!rebuilt.CanResolve(*e)) continue;
      bool is_equi = false;
      if (e->kind == SqlExprKind::kCompare && e->op == "=" &&
          e->children[0]->kind == SqlExprKind::kColumn &&
          e->children[1]->kind == SqlExprKind::kColumn) {
        const SqlExpr* a = e->children[0].get();
        const SqlExpr* b = e->children[1].get();
        bool a_cur = current.scope.CanResolve(*a);
        bool b_cur = current.scope.CanResolve(*b);
        bool a_next = next.scope.CanResolve(*a);
        bool b_next = next.scope.CanResolve(*b);
        const SqlExpr* cur_side = nullptr;
        const SqlExpr* next_side = nullptr;
        if (a_cur && b_next && !b_cur) {
          cur_side = a;
          next_side = b;
        } else if (b_cur && a_next && !a_cur) {
          cur_side = b;
          next_side = a;
        }
        if (cur_side != nullptr) {
          QPROG_ASSIGN_OR_RETURN(ExprPtr pk, Bind(*cur_side, current.scope));
          QPROG_ASSIGN_OR_RETURN(ExprPtr bk, Bind(*next_side, next.scope));
          probe_keys.push_back(std::move(pk));
          build_keys.push_back(std::move(bk));
          probe_distinct = std::max(
              probe_distinct,
              DistinctOf(db,
                         [&] {
                           for (const TableRef& t : relations) {
                             if (t.alias == cur_side->table ||
                                 (cur_side->table.empty())) {
                               return t.table;
                             }
                           }
                           return relations[0].table;
                         }(),
                         cur_side->column));
          build_distinct = std::max(
              build_distinct, DistinctOf(db, relations[r].table,
                                         next_side->column));
          used[i] = true;
          is_equi = true;
        }
      }
      if (!is_equi) {
        // Spans both sides: becomes a join residual over the combined row.
        QPROG_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*e, rebuilt));
        residuals.push_back(std::move(bound));
        used[i] = true;
      }
    }
    ExprPtr residual;
    if (residuals.size() == 1) {
      residual = std::move(residuals[0]);
    } else if (residuals.size() > 1) {
      residual = eb::And(std::move(residuals));
    }

    double est = EstimateJoinCardinality(current.est_rows, probe_distinct,
                                         next.est_rows, build_distinct);
    Planned joined;
    if (!probe_keys.empty()) {
      auto join = std::make_unique<HashJoin>(
          std::move(current.op), std::move(next.op), std::move(probe_keys),
          std::move(build_keys), JoinType::kInner, std::move(residual));
      join->set_estimated_rows(est);
      joined.op = std::move(join);
    } else {
      auto join = std::make_unique<NestedLoopsJoin>(
          std::move(current.op), std::move(next.op), std::move(residual),
          JoinType::kInner);
      join->set_estimated_rows(current.est_rows * next.est_rows);
      joined.op = std::move(join);
    }
    joined.scope = rebuilt;
    joined.est_rows = std::max(1.0, est);
    current = std::move(joined);
  }

  // Leftover non-aggregate conjuncts become a Filter above the joins.
  {
    std::vector<ExprPtr> leftovers;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (used[i] || ContainsAggregate(conjuncts[i])) continue;
      QPROG_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*conjuncts[i], current.scope));
      leftovers.push_back(std::move(bound));
      used[i] = true;
    }
    if (!leftovers.empty()) {
      ExprPtr pred = leftovers.size() == 1 ? std::move(leftovers[0])
                                           : eb::And(std::move(leftovers));
      current.op =
          std::make_unique<Filter>(std::move(current.op), std::move(pred));
      current.est_rows = std::max(1.0, current.est_rows / 3.0);
    }
  }

  // ---------------- aggregation -----------------------------------------
  bool star_select = stmt.items.size() == 1 && stmt.items[0].expr == nullptr;
  std::vector<const SqlExpr*> select_aggs;
  for (const SelectItem& item : stmt.items) {
    CollectAggregates(item.expr.get(), &select_aggs);
  }
  std::vector<const SqlExpr*> having_aggs;
  CollectAggregates(stmt.having.get(), &having_aggs);
  bool aggregated = !stmt.group_by.empty() || !select_aggs.empty() ||
                    !having_aggs.empty();
  if (aggregated && star_select) {
    return InvalidArgument("SELECT * cannot be combined with aggregation");
  }

  Scope output_scope;  // scope of the operator feeding projection
  if (aggregated) {
    // Deduplicated aggregate list, keyed by canonical rendering.
    std::vector<const SqlExpr*> all_aggs = select_aggs;
    all_aggs.insert(all_aggs.end(), having_aggs.begin(), having_aggs.end());
    std::vector<const SqlExpr*> unique_aggs;
    std::map<std::string, size_t> agg_index;
    for (const SqlExpr* a : all_aggs) {
      std::string key = Render(*a);
      if (agg_index.count(key) > 0) continue;
      agg_index[key] = unique_aggs.size();
      unique_aggs.push_back(a);
    }

    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::vector<std::string> group_renderings;
    for (const SqlExprPtr& g : stmt.group_by) {
      QPROG_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*g, current.scope));
      group_exprs.push_back(std::move(bound));
      group_renderings.push_back(Render(*g));
      group_names.push_back(g->kind == SqlExprKind::kColumn ? g->column
                                                            : Render(*g));
    }

    std::vector<AggregateDesc> descs;
    std::vector<uint64_t> group_distincts;
    for (const SqlExpr* a : unique_aggs) {
      AggFunc func;
      if (a->func_name == "count") {
        func = a->distinct ? AggFunc::kCountDistinct : AggFunc::kCount;
      } else if (a->func_name == "sum") {
        func = AggFunc::kSum;
      } else if (a->func_name == "avg") {
        func = AggFunc::kAvg;
      } else if (a->func_name == "min") {
        func = AggFunc::kMin;
      } else {
        func = AggFunc::kMax;
      }
      ExprPtr arg;
      if (!a->star) {
        QPROG_ASSIGN_OR_RETURN(arg, Bind(*a->children[0], current.scope));
      }
      descs.emplace_back(func, std::move(arg), Render(*a));
    }

    double est_groups =
        EstimateGroupCount(current.est_rows,
                           std::vector<uint64_t>(stmt.group_by.size(), 100));
    auto agg = std::make_unique<HashAggregate>(
        std::move(current.op), std::move(group_exprs), group_names,
        std::move(descs));
    agg->set_estimated_rows(est_groups);
    current.op = std::move(agg);
    current.est_rows = est_groups;

    // Post-aggregation scope: group columns, then aggregates. Group columns
    // are addressable by their original names AND renderings; aggregates by
    // rendering.
    Scope post;
    for (const std::string& name : group_names) {
      post.AddTable("", Schema({Field(name, TypeId::kNull)}));
    }
    for (const SqlExpr* a : unique_aggs) {
      post.AddTable("", Schema({Field(Render(*a), TypeId::kNull)}));
    }
    current.scope = post;

    // Rewrites an AST expression over the post-aggregation row: group
    // expressions and aggregate calls become column refs.
    std::function<StatusOr<ExprPtr>(const SqlExpr&)> rewrite =
        [&](const SqlExpr& e) -> StatusOr<ExprPtr> {
      std::string rendering = Render(e);
      for (size_t g = 0; g < group_renderings.size(); ++g) {
        if (rendering == group_renderings[g]) {
          return eb::Col(g, group_names[g]);
        }
      }
      if (e.kind == SqlExprKind::kFunc) {
        auto it = agg_index.find(rendering);
        if (it == agg_index.end()) {
          return InvalidArgument("unplanned aggregate " + rendering);
        }
        return eb::Col(group_renderings.size() + it->second, rendering);
      }
      // Recurse into arithmetic/comparison over groups and aggregates.
      switch (e.kind) {
        case SqlExprKind::kLiteral:
          return eb::Lit(e.literal);
        case SqlExprKind::kArith: {
          QPROG_ASSIGN_OR_RETURN(ExprPtr l, rewrite(*e.children[0]));
          QPROG_ASSIGN_OR_RETURN(ExprPtr r, rewrite(*e.children[1]));
          if (e.op == "+") return eb::Add(std::move(l), std::move(r));
          if (e.op == "-") return eb::Sub(std::move(l), std::move(r));
          if (e.op == "*") return eb::Mul(std::move(l), std::move(r));
          return eb::Div(std::move(l), std::move(r));
        }
        case SqlExprKind::kCompare: {
          QPROG_ASSIGN_OR_RETURN(ExprPtr l, rewrite(*e.children[0]));
          QPROG_ASSIGN_OR_RETURN(ExprPtr r, rewrite(*e.children[1]));
          CompareOp op = e.op == "=" ? CompareOp::kEq
                         : e.op == "<>" ? CompareOp::kNe
                         : e.op == "<" ? CompareOp::kLt
                         : e.op == "<=" ? CompareOp::kLe
                         : e.op == ">" ? CompareOp::kGt
                                       : CompareOp::kGe;
          return eb::Cmp(op, std::move(l), std::move(r));
        }
        case SqlExprKind::kAnd: {
          QPROG_ASSIGN_OR_RETURN(ExprPtr l, rewrite(*e.children[0]));
          QPROG_ASSIGN_OR_RETURN(ExprPtr r, rewrite(*e.children[1]));
          return eb::And(std::move(l), std::move(r));
        }
        case SqlExprKind::kOr: {
          QPROG_ASSIGN_OR_RETURN(ExprPtr l, rewrite(*e.children[0]));
          QPROG_ASSIGN_OR_RETURN(ExprPtr r, rewrite(*e.children[1]));
          return eb::Or(std::move(l), std::move(r));
        }
        case SqlExprKind::kColumn:
          return InvalidArgument(
              StringPrintf("column '%s' must appear in GROUP BY",
                           e.column.c_str()));
        default:
          return InvalidArgument(
              "unsupported expression over aggregated output: " + rendering);
      }
    };

    if (stmt.having != nullptr) {
      QPROG_ASSIGN_OR_RETURN(ExprPtr having, rewrite(*stmt.having));
      current.op =
          std::make_unique<Filter>(std::move(current.op), std::move(having));
    }

    // Projection of the select list over the post-aggregation row.
    std::vector<ExprPtr> projections;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.items) {
      QPROG_ASSIGN_OR_RETURN(ExprPtr bound, rewrite(*item.expr));
      names.push_back(!item.alias.empty() ? item.alias : Render(*item.expr));
      projections.push_back(std::move(bound));
    }
    current.op = std::make_unique<Project>(std::move(current.op),
                                           std::move(projections), names);
    Scope projected;
    for (const std::string& name : names) {
      projected.AddTable("", Schema({Field(name, TypeId::kNull)}));
    }
    current.scope = projected;
  } else if (!star_select) {
    std::vector<ExprPtr> projections;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.items) {
      QPROG_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*item.expr, current.scope));
      names.push_back(!item.alias.empty()
                          ? item.alias
                          : (item.expr->kind == SqlExprKind::kColumn
                                 ? item.expr->column
                                 : Render(*item.expr)));
      projections.push_back(std::move(bound));
    }
    current.op = std::make_unique<Project>(std::move(current.op),
                                           std::move(projections), names);
    Scope projected;
    for (const std::string& name : names) {
      projected.AddTable("", Schema({Field(name, TypeId::kNull)}));
    }
    current.scope = projected;
  }

  // ---------------- ORDER BY / LIMIT ------------------------------------
  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    const Schema& out_schema = current.op->output_schema();
    for (const OrderItem& item : stmt.order_by) {
      ExprPtr key;
      if (item.expr->kind == SqlExprKind::kLiteral &&
          item.expr->literal.type() == TypeId::kInt64) {
        int64_t ordinal = item.expr->literal.int64_value();
        if (ordinal < 1 ||
            ordinal > static_cast<int64_t>(out_schema.num_fields())) {
          return InvalidArgument("ORDER BY ordinal out of range");
        }
        key = eb::Col(static_cast<size_t>(ordinal - 1));
      } else if (item.expr->kind == SqlExprKind::kColumn) {
        int idx = out_schema.FindField(item.expr->column);
        if (idx < 0) {
          QPROG_ASSIGN_OR_RETURN(key, Bind(*item.expr, current.scope));
        } else {
          key = eb::Col(static_cast<size_t>(idx), item.expr->column);
        }
      } else {
        int idx = out_schema.FindField(Render(*item.expr));
        if (idx < 0) {
          return InvalidArgument("ORDER BY expression must name an output "
                                 "column: " +
                                 Render(*item.expr));
        }
        key = eb::Col(static_cast<size_t>(idx));
      }
      keys.emplace_back(std::move(key), item.descending);
    }
    auto sort = std::make_unique<Sort>(std::move(current.op), std::move(keys));
    sort->set_estimated_rows(current.est_rows);
    current.op = std::move(sort);
  }
  if (stmt.limit.has_value()) {
    current.op = std::make_unique<Limit>(std::move(current.op), *stmt.limit);
  }

  return PhysicalPlan(std::move(current.op));
}

StatusOr<PhysicalPlan> PlanSql(const std::string& query, const Database& db) {
  QPROG_ASSIGN_OR_RETURN(SelectStmt stmt, Parse(query));
  return PlanSelect(stmt, db);
}

StatusOr<QueryRows> ExecuteSql(const std::string& query, const Database& db) {
  QPROG_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanSql(query, db));
  QueryRows result;
  result.rows = CollectRows(&plan);
  result.strings = OwnStrings(&result.rows);
  return result;
}

}  // namespace sql
}  // namespace qprog
