// Join operators: nested loops (⋈NL), index nested loops (⋈INL), hash
// (⋈hash) and merge (⋈merge) — the paper's operator set (Section 2.1).
//
// Conventions shared by all joins here:
//  * child(0) is the *preserved / streamed* side ("left"): the outer input
//    for NL/INL, the probe input for hash join. child(1) is the inner /
//    build input.  (For HashJoin the build child is still *executed* first.)
//  * Output schema is left ++ right for inner/outer joins and just the left
//    schema for semi/anti joins.
//  * NULL join keys never match (SQL equi-join semantics).

#ifndef QPROG_EXEC_JOIN_H_
#define QPROG_EXEC_JOIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "exec/scan.h"
#include "exec/spill.h"
#include "expr/expr.h"

namespace qprog {

class TaskContext;
class WorkerPool;
struct OrderedTaskBudget;

enum class JoinType {
  kInner,
  kLeftOuter,  // left (streamed) side preserved
  kLeftSemi,
  kLeftAnti,
};

const char* JoinTypeToString(JoinType type);

/// ⋈NL: re-opens the inner child for every outer row; arbitrary predicate.
class NestedLoopsJoin : public PhysicalOperator {
 public:
  /// `predicate` is evaluated over the concatenated (outer ++ inner) row;
  /// nullptr means cross product.
  NestedLoopsJoin(OperatorPtr outer, OperatorPtr inner, ExprPtr predicate,
                  JoinType join_type = JoinType::kInner);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kNestedLoopsJoin; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 2; }
  PhysicalOperator* child(size_t i) override {
    return i == 0 ? outer_.get() : inner_.get();
  }
  std::string label() const override;

  JoinType join_type() const { return join_type_; }

 private:
  bool AdvanceOuter(ExecContext* ctx);

  OperatorPtr outer_;
  OperatorPtr inner_;
  ExprPtr predicate_;
  JoinType join_type_;
  Schema schema_;

  Row outer_row_;
  bool outer_valid_ = false;
  bool outer_matched_ = false;
};

/// ⋈INL: for each outer row, rebinds an IndexSeek on the join key. The
/// IndexSeek is a real plan node — its rows are getnext calls, exactly the
/// accounting in the paper's Examples 1 and 2.
class IndexNestedLoopsJoin : public PhysicalOperator {
 public:
  /// `outer_key` is evaluated on outer rows to produce the seek key.
  /// `residual` (optional) is evaluated over (outer ++ inner).
  IndexNestedLoopsJoin(OperatorPtr outer, std::unique_ptr<IndexSeek> inner,
                       ExprPtr outer_key, JoinType join_type = JoinType::kInner,
                       ExprPtr residual = nullptr);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kIndexNestedLoopsJoin; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 2; }
  PhysicalOperator* child(size_t i) override {
    return i == 0 ? outer_.get() : static_cast<PhysicalOperator*>(inner_.get());
  }
  std::string label() const override;

  JoinType join_type() const { return join_type_; }

 private:
  bool AdvanceOuter(ExecContext* ctx);

  OperatorPtr outer_;
  std::unique_ptr<IndexSeek> inner_;
  ExprPtr outer_key_;
  JoinType join_type_;
  ExprPtr residual_;
  Schema schema_;

  Row outer_row_;
  bool outer_valid_ = false;
  bool outer_matched_ = false;
};

/// ⋈hash: blocking build over child(1), streaming probe over child(0).
///
/// Memory-adaptive (Grace hash join): when the build table would exceed the
/// guard's soft budget and a SpillManager is attached, both inputs are hash-
/// partitioned to spill runs by join key and the join runs partition by
/// partition, rebuilding a table that is ~1/kSpillFanout the size.
/// Partitioning is *recursive*: a build partition that still exceeds the
/// guard's kill headroom after one fanout-kSpillFanout pass is re-partitioned
/// with a fresh per-level hash salt (both sides, on the query thread, so run
/// identity stays deterministic), down to kMaxGraceDepth levels. The join
/// then runs over the flattened leaf list in depth-first order. Only a
/// partition whose rows all share one key/hash (no salt can spread it) or
/// one still oversized at the depth cap aborts with kResourceExhausted.
///
/// Parallel (DESIGN.md §10): with a WorkerPool attached, the Grace path
/// fans out twice. Partition writes go through a PartitionWriter that
/// batches rows per partition and appends each batch on a worker, one lane
/// per partition so a run's writes stay ordered without locks. Then the
/// kSpillFanout partition pairs are joined concurrently — each task owns
/// its partition's build table and spill reads — and the query thread folds
/// results in partition order, so output rows match the serial replay
/// byte-for-byte at every pool size. Under a finite kill threshold the
/// concurrent joins share one buffered-row budget (ordered all-or-nothing
/// admission per partition) and bound their in-memory output to a fixed
/// per-partition allowance, overflowing the rest to unaccounted side runs —
/// aggregate memory honors the guard's contract just like the serial replay.
class HashJoin : public PhysicalOperator {
 public:
  /// Equi-join on `probe_keys` (over probe rows) == `build_keys` (over build
  /// rows); `residual` (optional) is evaluated over (probe ++ build).
  HashJoin(OperatorPtr probe, OperatorPtr build,
           std::vector<ExprPtr> probe_keys, std::vector<ExprPtr> build_keys,
           JoinType join_type = JoinType::kInner, ExprPtr residual = nullptr);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kHashJoin; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 2; }
  PhysicalOperator* child(size_t i) override {
    return i == 0 ? probe_.get() : build_.get();
  }
  std::string label() const override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

  JoinType join_type() const { return join_type_; }

  /// True once this execution degraded to Grace partitioning.
  bool spilled() const { return spilled_; }

  static constexpr int kSpillFanout = 8;
  /// Deepest Grace re-partitioning level. A partition still exceeding the
  /// kill headroom after kMaxGraceDepth re-salted passes aborts cleanly with
  /// kResourceExhausted instead of partitioning forever.
  static constexpr int kMaxGraceDepth = 4;

 private:
  /// Batches Grace partition writes into worker tasks, one lane per
  /// partition (defined in join.cc; pool-backed executions only).
  class PartitionWriter;
  /// One parallel partition join's results, filled by a worker task. Output
  /// rows up to the budget's allowance stay in `rows`; the remainder
  /// overflows to an unaccounted side run so a high-multiplicity join's
  /// output never breaks the bounded-memory contract.
  /// One leaf of the (possibly recursive) Grace partition tree: a sealed
  /// build/probe run pair ready to be joined. `depth` is the number of
  /// re-partitioning passes that produced it (0 = first pass); `path` packs
  /// the child index chosen at each level, 3 bits per level, level 0 lowest —
  /// together they identify the leaf in the worker-pool task key, so forked
  /// fault schedules and fold order stay data-derived under recursion.
  struct GraceLeaf {
    SpillRunPtr build;
    SpillRunPtr probe;
    int depth = 0;
    uint64_t path = 0;
  };
  struct PartitionJoinOut {
    size_t part = 0;          // leaf index (== admission order)
    uint64_t reserved = 0;    // budget rows held while the task runs
    std::vector<Row> rows;    // in-memory output prefix (<= allowance)
    SpillRunPtr overflow;     // output beyond the allowance, if any
    bool overflow_open = false;
    uint64_t charged_rows = 0;  // prefix rows charged to the plan account
    uint64_t max_bucket = 0;
  };

  void BuildTable(ExecContext* ctx);
  bool AdvanceProbe(ExecContext* ctx);
  /// Evaluates `keys` over `row`; sets *has_null when any key value is NULL.
  Row KeyOf(const Row& row, const std::vector<ExprPtr>& keys,
            bool* has_null) const;
  /// Dumps the in-memory build table into kSpillFanout partition runs and
  /// switches to Grace mode.
  bool SpillBuildTable(ExecContext* ctx, PartitionWriter* writer);
  /// Creates all kSpillFanout runs in `parts` if none exist yet.
  bool EnsureRuns(ExecContext* ctx, std::vector<SpillRunPtr>* parts,
                  const char* phase);
  /// Routes `row` to its hash partition: directly into the run when `writer`
  /// is null (serial path), else buffered through the writer.
  bool AppendToPartition(ExecContext* ctx, std::vector<SpillRunPtr>* parts,
                         const char* phase, const Row& key, const Row& row,
                         PartitionWriter* writer);
  /// Drains the probe child into probe partition runs (Grace mode only).
  void PartitionProbe(ExecContext* ctx);
  /// Flattens the first-pass partition pairs into grace_leaves_, recursively
  /// re-partitioning any build partition that exceeds the guard's kill
  /// headroom (query thread only; see the class comment). Returns ctx->ok().
  bool RefinePartitions(ExecContext* ctx);
  /// Recursion step of RefinePartitions: either accepts (build, probe) as a
  /// leaf or redistributes both runs into kSpillFanout children under the
  /// next level's salt and recurses. `capacity` is the kill headroom in rows
  /// (QueryGuard::kNoLimit disables refinement).
  bool RefineOne(ExecContext* ctx, SpillRunPtr build, SpillRunPtr probe,
                 int depth, uint64_t path, uint64_t capacity);
  /// Joins all grace_leaves_ pairs on the pool, folding results
  /// into par_outs_ in leaf order. Returns ctx->ok().
  bool ParallelJoinPartitions(ExecContext* ctx, WorkerPool* pool);
  /// Worker-side body of one partition join: admits `out->part` against the
  /// shared budget, rebuilds the partition's table from `build_run`, probes
  /// it with `probe_run`, collects output in `out` (overflowing to a side
  /// run past the budget's allowance), and releases the unretained budget.
  void JoinPartitionTask(TaskContext* tc, SpillRun* build_run,
                         SpillRun* probe_run, SpillManager* spill,
                         OrderedTaskBudget* budget,
                         PartitionJoinOut* out) const;
  /// Streams the next parallel-join output row: each partition's in-memory
  /// prefix, then its overflow side run, releasing the partition's charge as
  /// it drains. Returns false at end of output or on error.
  bool NextParallelOutput(ExecContext* ctx, Row* out);
  /// Rebuilds the hash table from grace_leaves_[part_idx_].build and rewinds
  /// the matching probe run.
  bool LoadPartition(ExecContext* ctx);
  void UnloadPartition(ExecContext* ctx);
  /// Next probe row: the probe child in memory mode, the current probe
  /// partition in Grace mode.
  bool PullProbe(ExecContext* ctx, Row* row);

  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<ExprPtr> probe_keys_;
  std::vector<ExprPtr> build_keys_;
  JoinType join_type_;
  ExprPtr residual_;
  Schema schema_;

  bool build_done_ = false;
  std::unordered_map<Row, std::vector<Row>, RowHash, RowEq> table_;
  uint64_t build_rows_ = 0;
  uint64_t max_bucket_ = 0;
  uint64_t charged_ = 0;  // rows charged to the context's buffer budget

  Row probe_row_;
  bool probe_valid_ = false;
  bool probe_matched_ = false;
  const std::vector<Row>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;

  // Grace-mode state (unused until the build overflows the soft budget).
  // The row counters are query-thread-only: worker tasks report theirs
  // through the fold, so FillProgressState never reads a SpillRun that a
  // task may own (see exec_context.h's threading contract).
  bool spilled_ = false;
  bool probe_partitioned_ = false;
  std::vector<SpillRunPtr> build_parts_;
  std::vector<SpillRunPtr> probe_parts_;
  // Flattened partition-tree leaves (filled by RefinePartitions; the replay
  // loops — serial and parallel — iterate these, not build_parts_).
  std::vector<GraceLeaf> grace_leaves_;
  int part_idx_ = 0;
  bool part_loaded_ = false;
  uint64_t grace_rows_written_ = 0;  // rows appended to partition runs,
                                     // at every recursion level

  // Parallel-join state: per-partition outputs of ParallelJoinPartitions,
  // drained by DoNext in partition order (matches the serial replay order) —
  // in-memory prefix first, then the partition's overflow side run.
  bool parallel_joined_ = false;
  std::vector<PartitionJoinOut> par_outs_;
  size_t par_part_ = 0;  // partition currently draining
  size_t par_pos_ = 0;   // next row within that partition's prefix
};

/// ⋈merge: inner equi-join over inputs sorted ascending on the key
/// expressions. Buffers each right-side key group to handle duplicates.
class MergeJoin : public PhysicalOperator {
 public:
  MergeJoin(OperatorPtr left, OperatorPtr right, std::vector<ExprPtr> left_keys,
            std::vector<ExprPtr> right_keys);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kMergeJoin; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 2; }
  PhysicalOperator* child(size_t i) override {
    return i == 0 ? left_.get() : right_.get();
  }
  std::string label() const override;

 private:
  Row KeyOf(const Row& row, const std::vector<ExprPtr>& keys) const;
  bool PullLeft(ExecContext* ctx);
  bool PullRight(ExecContext* ctx);
  static bool KeyHasNull(const Row& key);
  static int CompareKeys(const Row& a, const Row& b);

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  Schema schema_;

  Row left_row_, right_row_;
  Row left_key_, right_key_;
  bool left_valid_ = false, right_valid_ = false;

  std::vector<Row> group_;
  Row group_key_;
  bool group_active_ = false;
  size_t group_pos_ = 0;
  uint64_t charged_ = 0;  // buffered group rows charged to the budget
};

}  // namespace qprog

#endif  // QPROG_EXEC_JOIN_H_
