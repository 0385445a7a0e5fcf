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
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/grace.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "expr/expr.h"

namespace qprog {

class TaskContext;
class WorkContext;

enum class JoinType {
  kInner,
  kLeftOuter,  // left (streamed) side preserved
  kLeftSemi,
  kLeftAnti,
};

const char* JoinTypeToString(JoinType type);

/// The one meaning of each join type, shared by NL, INL and every HashJoin
/// probe. Read a preserved row into row() — storage reused from row to row —
/// Start() it, Offer() it candidates until done() or they run out, then
/// Finish() it. Each call writes *out only when it returns true.
class JoinMatcher {
 public:
  /// `residual` (optional) is evaluated over (left ++ right).
  JoinMatcher(JoinType type, const Expr* residual, size_t right_arity)
      : type_(type), residual_(residual), right_arity_(right_arity) {}

  JoinType type() const { return type_; }
  Row* row() { return &left_; }
  void Start() { matched_ = done_ = false; }
  /// True once a semi or anti join has seen its first match.
  bool done() const { return done_; }
  /// True with the joined (inner/outer) or bare (semi) row on a match.
  bool Offer(const Row& right, Row* out);
  /// True with the unmatched form — null-padded for left-outer, bare for
  /// anti — when no candidate matched.
  bool Finish(Row* out);

 private:
  JoinType type_;
  const Expr* residual_;
  size_t right_arity_;
  Row left_, joined_;
  bool matched_ = false, done_ = false;
};

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

  JoinType join_type() const { return match_.type(); }

 private:
  OperatorPtr outer_;
  OperatorPtr inner_;
  ExprPtr predicate_;
  Schema schema_;
  JoinMatcher match_;
  Row inner_row_;
  bool outer_valid_ = false;
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

  JoinType join_type() const { return match_.type(); }

 private:
  OperatorPtr outer_;
  std::unique_ptr<IndexSeek> inner_;
  ExprPtr outer_key_;
  ExprPtr residual_;
  Schema schema_;
  JoinMatcher match_;
  Row inner_row_;
  bool outer_valid_ = false;
};

/// ⋈hash: blocking build over child(1), streaming probe over child(0).
///
/// Memory-adaptive (Grace hash join): when the build table would exceed the
/// guard's soft budget and a SpillManager is attached, both inputs are hash-
/// partitioned to spill runs by join key and the join runs leaf by leaf over
/// the partition tree that exec/grace.h refines (DESIGN.md §9). The join
/// holds rows, so a leaf that stays over the kill headroom — single-key skew,
/// or the depth cap — aborts with kResourceExhausted.
///
/// Parallel (DESIGN.md §10): partition writes go through
/// GracePartitions::Append on the query thread at every pool size, as
/// HashAggregate's do. With a WorkerPool attached and no kill threshold
/// (UsePooledLeafReplay), only the leaves are joined concurrently, through
/// GracePartitions::RunLeaves, each task owning its leaf's build table and
/// spill reads; under a kill threshold the serial loop runs at every pool
/// size. Output rows match the serial replay byte-for-byte at every pool
/// size: both drivers rebuild a leaf's table through the same
/// BuildLeafTable and probe it through a JoinMatcher.
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

  JoinType join_type() const { return match_.type(); }

  /// True once this execution degraded to Grace partitioning.
  bool spilled() const { return spilled_; }

 private:
  using JoinTable = std::unordered_map<Row, std::vector<Row>, RowHash, RowEq>;

  void BuildTable(ExecContext* ctx);
  /// The build rows of `table` whose key equals `probe_row`'s: none for a
  /// NULL key.
  std::span<const Row> BucketOf(const JoinTable& table,
                                const Row& probe_row) const;
  /// Dumps the in-memory build table into the build partitions and switches
  /// to Grace mode.
  bool SpillBuildTable(ExecContext* ctx);
  /// Drains the probe child into probe partition runs (Grace mode only).
  void PartitionProbe(ExecContext* ctx);
  /// The Grace leaf body both replay drivers share: rebuilds `table` from
  /// `build_run`, charging each row on `wc` against the kill threshold only.
  /// `*charged` (rows charged) and `*max_bucket` advance row by row, so a
  /// checkpoint mid-leaf sees them current. Returns wc->ok().
  bool BuildLeafTable(WorkContext* wc, SpillRun* build_run, JoinTable* table,
                      uint64_t* charged, uint64_t* max_bucket) const;
  /// Worker-side body of one leaf join: rebuilds the leaf's table, probes it
  /// with its probe run and appends the joined rows to `out`.
  void JoinPartitionTask(TaskContext* tc, const GraceLeaf& leaf,
                         std::vector<Row>* out, uint64_t* max_bucket) const;
  /// Rebuilds the hash table from leaf part_idx_'s build run and rewinds the
  /// matching probe run.
  bool LoadPartition(ExecContext* ctx);
  void UnloadPartition(ExecContext* ctx);
  /// Next probe row: the probe child in memory mode, the current probe
  /// partition in Grace mode.
  bool PullProbe(ExecContext* ctx, Row* row);

  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<ExprPtr> probe_keys_;
  std::vector<ExprPtr> build_keys_;
  ExprPtr residual_;
  Schema schema_;

  bool build_done_ = false;
  JoinTable table_;
  uint64_t build_rows_ = 0;
  uint64_t max_bucket_ = 0;
  uint64_t charged_ = 0;  // rows charged to the context's buffer budget

  JoinMatcher match_;  // the in-memory and serial Grace probe
  bool probe_valid_ = false;
  std::span<const Row> bucket_;  // candidates not yet offered

  // Grace-mode state (unused until the build overflows the soft budget).
  // Side 0 is the build input, side 1 the probe input.
  bool spilled_ = false;
  bool probe_partitioned_ = false;
  GracePartitions grace_;
  int part_idx_ = 0;  // leaf the serial replay is on
  bool part_loaded_ = false;
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
  bool PullLeft(ExecContext* ctx);
  bool PullRight(ExecContext* ctx);
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
