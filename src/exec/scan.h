// Leaf access paths: sequential scan and index seek.

#ifndef QPROG_EXEC_SCAN_H_
#define QPROG_EXEC_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "expr/expr.h"
#include "index/ordered_index.h"
#include "storage/table.h"
#include "types/string_arena.h"

namespace qprog {

/// Sequential scan over a table, with an optional pushed-down residual
/// predicate (a predicate evaluated inside the scan does not produce getnext
/// calls for rejected rows — it changes the work model exactly as a merged
/// scan+filter does in a commercial engine). Rows are built from the table's
/// columns predicate-first: only the columns the predicate reads are filled
/// in before it runs, and the emitted ones only for rows that pass. The scan
/// emits the table's columns that PruneColumns kept (all, until then); the
/// predicate stays in table coordinates, so a column only it reads is read
/// for it and never emitted.
class SeqScan : public PhysicalOperator {
 public:
  /// `table` must outlive the operator; `predicate` may be null.
  explicit SeqScan(const Table* table, ExprPtr predicate = nullptr);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kSeqScan; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 0; }
  PhysicalOperator* child(size_t) override { return nullptr; }
  std::string label() const override;
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

  const Table* table() const { return table_; }
  bool has_predicate() const { return predicate_ != nullptr; }

 private:
  /// Splits the emitted positions by whether the predicate read them.
  void PlanColumns();

  const Table* table_;
  ExprPtr predicate_;
  std::vector<size_t> predicate_columns_;  // table columns it reads
  std::vector<size_t> columns_;  // table column of each output position
  Schema schema_;                // the table's fields at columns_
  std::vector<size_t> copied_;   // output positions the predicate read
  std::vector<size_t> read_;     // output positions read for passing rows
  Row predicate_row_;     // table-wide; only predicate_columns_ are filled
  Row scratch_;           // the row being built; swapped into the output
  uint64_t cursor_ = 0;   // next table row to examine
  uint64_t emitted_ = 0;  // rows produced to the parent
};

/// Index seek over an ordered index. Two modes:
///  * Rebindable equality seek — the inner side of an index-nested-loops
///    join; the parent calls Rebind(key) before draining matches.
///  * Static range seek — a leaf access path with fixed bounds.
/// Produces the indexed table's columns that PruneColumns kept (all, until
/// then).
class IndexSeek : public PhysicalOperator {
 public:
  /// Rebindable equality-seek (INL inner side).
  explicit IndexSeek(const OrderedIndex* index);

  /// Static range seek. NULL `lo`/`hi` Values with the unbounded flags make
  /// either end open. VARCHAR bounds are copied into the seek.
  IndexSeek(const OrderedIndex* index, Value lo, bool lo_inclusive,
            bool lo_unbounded, Value hi, bool hi_inclusive, bool hi_unbounded);

  /// Repositions an equality seek on a new key. Resets the cursor.
  void Rebind(const Value& key);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kIndexSeek; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 0; }
  PhysicalOperator* child(size_t) override { return nullptr; }
  std::string label() const override;
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

  const OrderedIndex* index() const { return index_; }

 private:
  const OrderedIndex* index_;
  std::vector<size_t> columns_;  // table column of each output position
  Schema schema_;                // the table's fields at columns_
  bool range_mode_ = false;
  StringArena bounds_;  // owns lo_'s and hi_'s VARCHAR bytes
  Value lo_;
  bool lo_inclusive_ = false, lo_unbounded_ = true;
  Value hi_;
  bool hi_inclusive_ = false, hi_unbounded_ = true;

  OrderedIndex::EntryRange current_{};
  size_t pos_ = 0;
  bool opened_ = false;
};

}  // namespace qprog

#endif  // QPROG_EXEC_SCAN_H_
