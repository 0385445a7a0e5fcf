// PhysicalOperator: the iterator (Volcano) operator interface, instrumented
// for the paper's getnext model of work, plus the narrow state accessors the
// progress subsystem needs to maintain cardinality bounds (Section 5.1).

#ifndef QPROG_EXEC_OPERATOR_H_
#define QPROG_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "expr/expr.h"
#include "types/schema.h"
#include "types/value.h"

namespace qprog {

enum class OpKind {
  kSeqScan,
  kIndexSeek,
  kFilter,
  kProject,
  kNestedLoopsJoin,
  kIndexNestedLoopsJoin,
  kHashJoin,
  kMergeJoin,
  kSort,
  kHashAggregate,
  kStreamAggregate,
  kLimit,
};

const char* OpKindToString(OpKind kind);

/// True for operators performing nested iteration (⋈NL, ⋈INL, index-seek).
/// A plan free of these is "scan-based" in the paper's sense (Section 5.4).
bool IsNestedIterationKind(OpKind kind);

/// Execution-state snapshot consumed by the cardinality-bounds tracker.
/// Fields are meaningful only for the operator kinds that set them.
struct ProgressState {
  uint64_t rows_produced = 0;  // filled in by the tracker from counters
  bool finished = false;       // operator has returned its last row

  // SeqScan: rows examined so far and table size; `exact_total` is the
  // final production when it is known a priori (unfiltered scan).
  uint64_t input_examined = 0;
  uint64_t base_rows = 0;
  double exact_total = -1.0;

  // IndexSeek: worst-case matches for a single probe.
  uint64_t max_per_probe = 0;

  // HashJoin / aggregates: whether the blocking phase has completed, and
  // hash-table facts learned from it.
  bool build_done = false;
  uint64_t build_rows = 0;        // hash join: rows inserted into the table
  uint64_t max_multiplicity = 0;  // hash join: largest bucket
  uint64_t groups_so_far = 0;     // aggregates: distinct groups seen
  bool scalar_aggregate = false;  // aggregate without GROUP BY (always 1 row)

  // Limit: remaining output budget.
  uint64_t limit_remaining = 0;
  bool has_limit = false;

  // Spilling (any blocking operator): extra work units already spent on
  // spill I/O at this node, and spill work not yet performed (in work
  // units: unfinished writes plus unstarted re-reads). Both are counted
  // into [LB, UB] — spill passes revise total(Q) upward mid-query.
  uint64_t spill_work_done = 0;   // set by the base FillProgressState
  uint64_t spill_rows_pending = 0;
  /// Sets spill_rows_pending for a node that has appended `rows_written`
  /// rows to spill runs so far, at every level. Each is written once and
  /// read back exactly once, so the node's total spill work is twice that.
  /// Deriving the pending share from the same work counter a checkpoint just
  /// advanced keeps (done + pending) consistent at every sampling instant: a
  /// checkpoint can fire from inside a read, after the work is counted but
  /// before any operator-side cursor moves, so a separate rows-read counter
  /// would double-count the in-flight row.
  void SetSpillPending(uint64_t rows_written) {
    const uint64_t total = 2 * rows_written;
    spill_rows_pending = total > spill_work_done ? total - spill_work_done : 0;
  }
  // HashAggregate only: spilled *rows* not yet re-aggregated. A row count,
  // not work units — feeds the group-cardinality upper bound (each unread
  // row may still open a fresh group), where spill_rows_pending would
  // overstate the unseen input.
  uint64_t spill_rows_unread = 0;
};

/// Base class for all physical operators. Operators own their children.
/// Lifecycle: construct -> (PhysicalPlan::Finalize assigns node ids) ->
/// Open -> Next* -> Close. Open fully resets state, so plans are rerunnable.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  // The public iterator interface is a set of non-virtual wrappers around
  // DoOpen/DoNext/DoClose: with no telemetry attached they add exactly one
  // null-pointer branch (the zero-cost contract); with a TelemetryCollector
  // attached they time the call and record per-node stats (e2ebench's
  // obs.trace_overhead reports that cost end to end). Parents call these
  // wrappers on their children, so instrumentation covers the whole tree.

  void Open(ExecContext* ctx) {
    if (ctx->telemetry() == nullptr) [[likely]] {
      DoOpen(ctx);
    } else {
      OpenInstrumented(ctx);
    }
  }

  /// Produces the next row into `*out`; false at end of stream. A row
  /// returned here is one getnext call in the paper's work model (counted
  /// via Emit()).
  bool Next(ExecContext* ctx, Row* out) {
    if (ctx->telemetry() == nullptr) [[likely]] {
      return DoNext(ctx, out);
    }
    return NextInstrumented(ctx, out);
  }

  void Close(ExecContext* ctx) {
    if (ctx->telemetry() == nullptr) [[likely]] {
      DoClose(ctx);
    } else {
      CloseInstrumented(ctx);
    }
  }

  virtual OpKind kind() const = 0;
  virtual const Schema& output_schema() const = 0;

  virtual size_t num_children() const = 0;
  virtual PhysicalOperator* child(size_t i) = 0;
  const PhysicalOperator* child(size_t i) const {
    return const_cast<PhysicalOperator*>(this)->child(i);
  }

  /// One-line label for plan printing, e.g. "HashJoin(inner, linear)".
  virtual std::string label() const;

  /// True when Open() fully resets state so the operator can be re-executed
  /// (all built-in operators). Sources that consume an external stream
  /// return false; ProgressMonitor::RunWithApproxCheckpoints needs the whole
  /// plan rewindable for its throwaway learning run and reports a clear
  /// Status otherwise.
  virtual bool SupportsRewind() const { return true; }

  /// Column pruning (DESIGN.md §2), run once by PhysicalPlan's constructor
  /// before node ids are assigned. Narrows this subtree's output to the
  /// columns flagged in `needed` (one flag per output column; it may keep
  /// more) and returns each old output column's new position, or
  /// kDroppedColumn. An override asks its children for the columns its
  /// parent needs plus those its own expressions read, then remaps those
  /// expressions onto the children's narrowed outputs. This default keeps
  /// every column and asks each child for all of its own: correct for any
  /// operator, just not narrowed.
  virtual std::vector<size_t> PruneColumns(const std::vector<bool>& needed);

  /// Fills the bounds-tracker snapshot. Subclasses override to publish the
  /// fields relevant to their kind; `rows_produced`/`finished` are set here.
  virtual void FillProgressState(const ExecContext& ctx,
                                 ProgressState* state) const;

  // -- plan wiring (set by PhysicalPlan::Finalize) --------------------------
  int node_id() const { return node_id_; }
  bool is_root() const { return is_root_; }
  void set_node_id(int id) { node_id_ = id; }
  void set_is_root(bool r) { is_root_ = r; }

  // -- planner metadata ------------------------------------------------------
  /// Optimizer estimate of this node's total production; < 0 when unknown.
  /// Feeds the dne estimator's driver totals, never the bounds tracker.
  double estimated_rows() const { return estimated_rows_; }
  void set_estimated_rows(double rows) { estimated_rows_ = rows; }

  /// Linear operator flag (Section 5.4): production is at most the largest
  /// input. Read only for joins (the bounds walker and join labels), so set
  /// it only on joins known to be foreign-key (linear) joins; σ/π/γ/sort are
  /// bounded by their input without it.
  bool is_linear() const { return is_linear_; }
  void set_is_linear(bool linear) { is_linear_ = linear; }

 protected:
  PhysicalOperator() = default;

  /// The iterator implementation, provided by each operator. Same contract
  /// as the public wrappers; implementations call Open/Next/Close (the
  /// wrappers) on their children, never Do* directly.
  virtual void DoOpen(ExecContext* ctx) = 0;
  virtual bool DoNext(ExecContext* ctx, Row* out) = 0;
  virtual void DoClose(ExecContext* ctx) = 0;

  /// Counts the row this operator is about to return. Every Next
  /// implementation calls this exactly once per produced row.
  void Emit(ExecContext* ctx) const { ctx->CountRow(node_id_, is_root_); }

  /// True once the operator has reported end-of-stream.
  bool finished_ = false;

 private:
  // Timed paths, out of line (operator.cc); only taken with telemetry.
  void OpenInstrumented(ExecContext* ctx);
  bool NextInstrumented(ExecContext* ctx, Row* out);
  void CloseInstrumented(ExecContext* ctx);

  int node_id_ = -1;
  bool is_root_ = false;
  double estimated_rows_ = -1.0;
  bool is_linear_ = false;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

/// The column map that keeps all `width` columns where they are.
std::vector<size_t> IdentityColumnMap(size_t width);

/// Asks `op` for every output column its consumer reads: `needed` plus the
/// columns `exprs` read. Remaps `exprs` onto the narrowed output and returns
/// `op`'s column map.
std::vector<size_t> PruneInput(PhysicalOperator* op, std::vector<bool> needed,
                               const std::vector<Expr*>& exprs);

}  // namespace qprog

#endif  // QPROG_EXEC_OPERATOR_H_
