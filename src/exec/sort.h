// Sort: the blocking order-by operator (also used beneath merge joins and
// stream aggregates). Consumes its whole input on first Next, then emits.
//
// Memory-adaptive: with a SpillManager attached, a buffer that would exceed
// the guard's soft budget is sorted and written out as a spill run before
// the next row is buffered, and once any run exists the final emit phase
// becomes a k-way merge of sorted runs read back from disk (classic
// external run-merge sort). Without a manager — or without a guard —
// behavior is the original in-memory sort. Everything runs on the query
// thread (DESIGN.md §10); the merge is one level, a stable
// smallest-head-wins pass over every run.

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

  /// Buffers the input, sorting and writing each soft-budget-sized buffer
  /// out as a run, then either sorts the rows in memory or opens the merge.
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

  // External-sort state (empty/false when the input fit in memory).
  std::vector<SpillRunPtr> runs_;
  std::vector<MergeSource> merge_;
  bool merging_ = false;
  uint64_t spilled_rows_ = 0;  // input rows in sealed runs
};

}  // namespace qprog

#endif  // QPROG_EXEC_SORT_H_
