// Naive planner: binds a parsed SelectStmt against the catalog and produces
// an instrumented physical plan.
//
// Planning strategy (deliberately simple, in the spirit of the paper's
// discussion that optimizer estimates are unreliable anyway):
//  * single-table WHERE conjuncts merge into the scans;
//  * relations join left-deep in FROM order via hash joins on the equi-join
//    conjuncts found in WHERE/ON (falling back to nested-loops cross joins
//    with residual predicates when no equi-key connects);
//  * aggregates plan as HashAggregate; HAVING becomes a Filter above it;
//  * ORDER BY becomes a Sort over output columns; LIMIT a Limit node;
//  * scan/aggregate cardinality estimates come from the stored histogram
//    statistics (feeding the dne estimator's driver totals).

#ifndef QPROG_SQL_PLANNER_H_
#define QPROG_SQL_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "exec/plan.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "types/string_arena.h"

namespace qprog {
namespace sql {

/// Plans a parsed statement. The database must outlive the plan.
StatusOr<PhysicalPlan> PlanSelect(const SelectStmt& stmt, const Database& db);

/// Parse + plan in one call.
StatusOr<PhysicalPlan> PlanSql(const std::string& query, const Database& db);

/// Result rows that outlive their query: `strings` owns the bytes of every
/// VARCHAR in `rows`, so the rows stay valid after the plan, its spill
/// manager and the session are gone (DESIGN.md §2, "String ownership").
struct QueryRows {
  std::vector<Row> rows;
  std::shared_ptr<const StringArena> strings;
};

/// Parse + plan + execute, returning the result rows.
StatusOr<QueryRows> ExecuteSql(const std::string& query, const Database& db);

}  // namespace sql
}  // namespace qprog

#endif  // QPROG_SQL_PLANNER_H_
