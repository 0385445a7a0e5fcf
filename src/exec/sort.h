// Sort: the blocking order-by operator (also used beneath merge joins and
// stream aggregates). Consumes its whole input on first Next, then emits.
//
// Memory-adaptive: with a SpillManager attached, a buffer that would exceed
// the guard's soft budget is handed off as a spill run, and once any run
// exists the final emit phase becomes a k-way merge of sorted runs read back
// from disk (classic external run-merge sort). Without a manager — or
// without a guard — behavior is the original in-memory sort.
//
// One spill path at every pool size (DESIGN.md §10): the query thread
// creates each run and moves the buffer into a TaskGroup task that sorts,
// writes and seals it — on a WorkerPool thread when one is attached, inline
// at Submit when not. Either way the task's spill I/O folds back in run
// order at the same barriers, so rows, total(Q) and the trace are
// byte-identical at every pool size, pool 0 included. The merge is one
// level, on the query thread: a stable smallest-head-wins pass over every
// run.

#ifndef QPROG_EXEC_SORT_H_
#define QPROG_EXEC_SORT_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/spill.h"
#include "expr/expr.h"

namespace qprog {

/// One sort key. NULLs order lowest (first under ascending).
struct SortKey {
  ExprPtr expr;
  bool descending = false;

  SortKey() = default;
  SortKey(ExprPtr e, bool desc = false)  // NOLINT(runtime/explicit)
      : expr(std::move(e)), descending(desc) {}
};

class Sort : public PhysicalOperator {
 public:
  Sort(OperatorPtr child, std::vector<SortKey> keys);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kSort; }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  size_t num_children() const override { return 1; }
  PhysicalOperator* child(size_t) override { return child_.get(); }
  std::string label() const override;
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

  /// True once this execution flushed at least one spill run.
  bool spilled() const { return !runs_.empty(); }

 private:
  /// One input of the k-way merge: the head row of one sorted run.
  struct MergeSource {
    Row row;
    Row key;  // precomputed sort-key tuple for `row`
    bool valid = false;
  };

  /// Buffers the input, handing each soft-budget-sized buffer to a run
  /// task, then either sorts the rows in memory or opens the merge.
  void Materialize(ExecContext* ctx);
  /// Sorts `*rows` in place by keys_ (stable).
  void SortRows(std::vector<Row>* rows) const;
  Row MakeKey(const Row& row) const;
  /// Strict "a sorts before b" over precomputed key tuples.
  bool KeyLess(const Row& a, const Row& b) const;
  /// Refills merge source `i` from its run (invalidates it at end of run).
  bool FillSource(ExecContext* ctx, size_t i);
  bool NextMerged(ExecContext* ctx, Row* out);

  OperatorPtr child_;
  std::vector<SortKey> keys_;

  bool materialized_ = false;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
  uint64_t charged_ = 0;  // rows charged to the context's buffer budget

  // External-sort state (empty/false when the input fit in memory). The row
  // counter is query-thread-only: run tasks report theirs through the fold,
  // so FillProgressState never reads a SpillRun a task may be writing.
  std::vector<SpillRunPtr> runs_;
  std::vector<MergeSource> merge_;
  bool merging_ = false;
  uint64_t spilled_rows_ = 0;  // input rows in folded runs
};

}  // namespace qprog

#endif  // QPROG_EXEC_SORT_H_
