// Grace hash partitioning, shared by HashJoin and HashAggregate (DESIGN.md
// §9, §10). An operator whose hash table outgrows the guard's soft budget
// routes rows to kSpillFanout depth-0 partition runs; this module owns
// everything that happens to those runs afterwards:
//
//  * routing: depth-salted GracePartitionOf, so rows that collided at level
//    d spread across the children at level d+1;
//  * refinement: every partition whose first side still exceeds the kill
//    headroom is re-split under the next level's salt, down to
//    kMaxGraceDepth, into a flat list of leaves in depth-first order. A leaf
//    that no salt can split (single-key skew) or that is still oversized at
//    the depth cap is the one policy the operators choose: the join, which
//    holds rows, aborts with kResourceExhausted; the aggregate, which holds
//    groups, admits the leaf alone and leaves the kill tripwire to decide;
//  * the driver choice: UsePooledLeafReplay, the one place either operator
//    decides between its serial leaf loop and the pooled replay;
//  * the pooled replay: one task per leaf, keyed by the leaf's data identity,
//    each writing its output rows to a vector of its own; results fold in
//    leaf order;
//  * the drain that streams those outputs in leaf order.
//
// The operators keep what differs: how a leaf's rows are built, probed or
// aggregated (the serial replay loops and the task bodies) and the per-leaf
// facts they fold back (largest bucket, group counts, rows read).

#ifndef QPROG_EXEC_GRACE_H_
#define QPROG_EXEC_GRACE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/exec_context.h"
#include "exec/query_guard.h"
#include "exec/spill.h"
#include "expr/expr.h"
#include "types/value.h"

namespace qprog {

class TaskContext;

/// Partitions per Grace pass (depth 0 and every re-split).
inline constexpr int kSpillFanout = 8;
/// Deepest re-split level. A leaf still oversized here gets the operator's
/// OversizedLeaf policy instead of another pass.
inline constexpr int kMaxGraceDepth = 4;

/// The Grace partition of a routing key at recursion `level`. Level 0 uses
/// the raw row hash; deeper levels remix it with a level-dependent salt.
/// Rows that share a hash (single-key skew) land together at every level.
size_t GracePartitionOf(const Row& key, int level);

/// One side of a partitioned input (the aggregate has one, the join two:
/// build, then probe). The first side sizes every leaf.
struct GraceSide {
  const std::vector<ExprPtr>* keys;  // routing key over this side's rows
  const char* phase;                 // spill phase of this side's runs
};

/// What refinement does with a leaf that is over the kill headroom and
/// cannot be split further (single-key skew, or the depth cap).
enum class OversizedLeaf {
  kAbort,       // raise kResourceExhausted (the join: it holds rows)
  kAdmitAlone,  // keep it as a leaf (the aggregate: it holds groups)
};

/// One leaf of the partition tree: a sealed run per side, plus its place in
/// the tree. `path` packs the child index chosen at each level, 3 bits per
/// level, level 0 lowest; with `depth` it is the leaf task's data identity.
struct GraceLeaf {
  std::vector<SpillRunPtr> runs;
  int depth = 0;
  uint64_t path = 0;
};

/// True when a Grace operator should replay its leaves through
/// GracePartitions::RunLeaves: a worker pool is attached and the guard sets
/// no kill threshold. Under a finite kill threshold the operator's serial
/// streaming loop runs at every pool size; it holds one leaf at a time and
/// enforces the threshold row by row against the plan account, so rows,
/// total(Q) and traces do not depend on the pool (DESIGN.md §10).
inline bool UsePooledLeafReplay(const ExecContext& ctx) {
  return ctx.worker_pool() != nullptr &&
         ctx.KillHeadroom() == QueryGuard::kNoLimit;
}

/// One operator's Grace state: the depth-0 partitions, the refined leaves,
/// the spill-row counters behind the pending identity, and the pooled
/// outputs with their drain cursor. Query thread only, except the leaf
/// tasks that RunLeaves hands a leaf and an output vector each.
class GracePartitions {
 public:
  /// Runs on a worker for one leaf; appends the leaf's output rows to `out`.
  using LeafTask =
      std::function<void(TaskContext* tc, size_t leaf, std::vector<Row>* out)>;

  GracePartitions(std::vector<GraceSide> sides, OversizedLeaf oversized);

  /// Drops every run and output and zeroes the counters (operator Open).
  void Reset();
  /// Drops every run and output, deleting their temp files, but keeps the
  /// counters a final progress sample reads (operator Close).
  void DropRuns();

  /// Creates `side`'s kSpillFanout depth-0 runs if none exist yet.
  bool EnsurePartitions(ExecContext* ctx, int node, size_t side);
  /// Routes `row` (routing key `key`) into `side`'s depth-0 partition.
  bool Append(ExecContext* ctx, int node, size_t side, const Row& key,
              const Row& row);

  /// Seals the depth-0 partitions and flattens them into leaves(),
  /// re-splitting every partition whose first side exceeds the kill
  /// headroom. Re-split runs are created on the query thread, so their
  /// spill_begin events (carrying the depth) stay on the deterministic
  /// trace. Returns ctx->ok().
  bool Refine(ExecContext* ctx, int node);
  std::vector<GraceLeaf>& leaves() { return leaves_; }

  /// Runs `task` once per leaf on the context's worker pool, then folds the
  /// tasks in leaf order, calling `fold(leaf)` after each fold and deleting
  /// the leaf's runs. Only when UsePooledLeafReplay(*ctx): the outputs are
  /// held whole and uncharged until NextOutput drains them. Returns
  /// ctx->ok(); on success pooled() turns true.
  bool RunLeaves(ExecContext* ctx, uint64_t task_tag, const LeafTask& task,
                 const std::function<void(size_t leaf)>& fold);
  bool pooled() const { return pooled_; }
  /// Streams the next pooled output row in leaf order, freeing each leaf's
  /// rows once they are drained. False at the end of output or on error.
  bool NextOutput(ExecContext* ctx, Row* out);

  /// Rows appended to partition runs at every depth, and rows read back
  /// from them (re-split or replayed). Every appended row is read back once,
  /// so 2x rows_written() is the node's total spill work.
  uint64_t rows_written() const { return rows_written_; }
  uint64_t rows_read() const { return rows_read_; }
  /// The rows-read counter, for the operator's leaf replay to advance.
  uint64_t* mutable_rows_read() { return &rows_read_; }

 private:
  /// Accepts `runs` as a leaf, or re-splits them into kSpillFanout children
  /// under the next level's salt and recurses.
  bool RefineOne(ExecContext* ctx, int node, std::vector<SpillRunPtr> runs,
                 int depth, uint64_t path, uint64_t capacity);

  std::vector<GraceSide> sides_;
  OversizedLeaf oversized_;
  std::vector<std::vector<SpillRunPtr>> parts_;  // [side][partition]
  std::vector<GraceLeaf> leaves_;
  uint64_t rows_written_ = 0;
  uint64_t rows_read_ = 0;

  bool pooled_ = false;
  std::vector<std::vector<Row>> outs_;  // pooled output, one per leaf
  size_t out_leaf_ = 0;  // leaf currently draining
  size_t out_pos_ = 0;   // next row within its prefix
};

}  // namespace qprog

#endif  // QPROG_EXEC_GRACE_H_
