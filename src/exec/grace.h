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
//    groups, admits the leaf alone and leaves the kill tripwire to decide.
//
// The operators keep what differs: their leaf loop, the only leaf replay at
// every pool size. It replays the leaves one at a time on the query thread
// (rebuilding and probing a join leaf's table, re-aggregating an aggregate
// leaf's groups) and charges what a leaf holds through
// ExecContext::ChargeLeafRows.

#ifndef QPROG_EXEC_GRACE_H_
#define QPROG_EXEC_GRACE_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"
#include "exec/spill.h"
#include "expr/expr.h"
#include "types/value.h"

namespace qprog {

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

/// One leaf of the partition tree: a sealed run per side.
struct GraceLeaf {
  std::vector<SpillRunPtr> runs;
};

/// One operator's Grace state: the depth-0 partitions, the refined leaves
/// and the spill-row counters behind the pending identity. Query thread
/// only.
class GracePartitions {
 public:
  GracePartitions(std::vector<GraceSide> sides, OversizedLeaf oversized);

  /// Drops every run and zeroes the counters (operator Open).
  void Reset();
  /// Drops every run, deleting its temp file, but keeps the counters a final
  /// progress sample reads (operator Close).
  void DropRuns();

  /// Creates `side`'s kSpillFanout depth-0 runs if none exist yet.
  bool EnsurePartitions(ExecContext* ctx, int node, size_t side);
  /// Routes `row` (routing key `key`) into `side`'s depth-0 partition.
  bool Append(ExecContext* ctx, int node, size_t side, const Row& key,
              const Row& row);

  /// Seals the depth-0 partitions and flattens them into leaves(),
  /// re-splitting every partition whose first side exceeds the kill
  /// headroom a leaf loads into: the headroom now plus `released_first`,
  /// the rows the operator releases before it loads its first leaf (the
  /// aggregate's resident groups). Re-split runs are created on the query
  /// thread, so their spill_begin events (carrying the depth) stay on the
  /// deterministic trace. Returns ctx->ok().
  bool Refine(ExecContext* ctx, int node, uint64_t released_first);
  std::vector<GraceLeaf>& leaves() { return leaves_; }

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
                 int depth, uint64_t capacity);

  std::vector<GraceSide> sides_;
  OversizedLeaf oversized_;
  std::vector<std::vector<SpillRunPtr>> parts_;  // [side][partition]
  std::vector<GraceLeaf> leaves_;
  uint64_t rows_written_ = 0;
  uint64_t rows_read_ = 0;
};

}  // namespace qprog

#endif  // QPROG_EXEC_GRACE_H_
