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

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/grace.h"
#include "exec/key_directory.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "expr/expr.h"

namespace qprog {

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
  bool Offer(std::span<const Value> right, Row* out);
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

/// HashJoin's build table (DESIGN.md §9), flat. Build rows are copied into
/// chunks of Value cells — trivially copyable, so a VARCHAR cell keeps
/// viewing the bytes its owner already holds — and the rows of one key are
/// chained in insertion order. A KeyDirectory numbers the distinct keys,
/// and each number has its chain's head, tail and row count. Chunks start
/// at kFirstChunkCells and double up to kChunkCells (16 KiB: on the fleet
/// benchmark a 64 KiB cap read a higher peak RSS), so a five-row build
/// holds one 1 KiB chunk; a row wider than kChunkCells gets a chunk to
/// itself. Nothing is freed row by row.
class JoinTable {
 public:
  /// A row's handle: its chunk in the high 32 bits, its slot in the low.
  using RowId = uint64_t;
  static constexpr RowId kNoRow = ~RowId{0};
  /// Cells in the first chunk, and the cap the doubling stops at.
  static constexpr size_t kFirstChunkCells = 64;
  static constexpr size_t kChunkCells = 1024;

  /// Every key has `key_width` values, every row `row_width`.
  JoinTable(size_t key_width, size_t row_width)
      : keys_(key_width), row_width_(row_width) {}

  /// Appends `row` to `key`'s chain; returns the key's row count.
  uint64_t Insert(const Row& key, std::span<const Value> row);
  /// The first row of `key`'s chain, or kNoRow.
  RowId Find(const Row& key) const;
  /// The row after `id` in its key's chain, or kNoRow.
  RowId next(RowId id) const {
    return chunks_[id >> 32].next[id & 0xFFFFFFFFu];
  }
  std::span<const Value> row(RowId id) const {
    return {chunks_[id >> 32].cells.get() + (id & 0xFFFFFFFFu) * row_width_,
            row_width_};
  }

  size_t num_keys() const { return keys_.size(); }
  /// Chunks allocated, in use or kept for reuse.
  size_t num_chunks() const { return chunks_.size(); }

  /// Calls `fn(key, row)` for every row: keys in first-insertion order,
  /// each key's rows in chain order. Stops at, and returns false on, the
  /// first call that returns false.
  template <typename Fn>
  bool ForEach(Fn&& fn) const {
    for (size_t k = 0; k < keys_.size(); ++k) {
      for (RowId id = chains_[k].head; id != kNoRow; id = next(id)) {
        if (!fn(keys_.key(k), row(id))) return false;
      }
    }
    return true;
  }

  /// Forgets every key and row but keeps the chunks and the directory's
  /// capacity, for the next Grace leaf.
  void Clear();
  /// Forgets everything and frees the memory (operator Open and Close).
  void Release();

 private:
  struct Chunk {
    std::unique_ptr<Value[]> cells;  // rows * row_width_ cells
    std::unique_ptr<RowId[]> next;   // each row's chain successor
    size_t rows = 0;
  };
  struct Chain {
    RowId head, tail;
    uint64_t rows;
  };
  /// Copies `row` into the next free chunk slot; returns its handle.
  RowId AppendRow(std::span<const Value> row);

  KeyDirectory keys_;
  std::vector<Chain> chains_;  // one per key number
  size_t row_width_;
  std::vector<Chunk> chunks_;
  size_t chunks_used_ = 0;  // chunks_[chunks_used_ - 1] takes the next row
  size_t chunk_fill_ = 0;   // rows in that chunk
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
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;

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
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;

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
/// The join uses no worker pool: partition writes and the leaf loop run on
/// the query thread, so rows, total(Q) and traces are the same at every
/// pool size (DESIGN.md §10). A rebuilt leaf table is charged through
/// ExecContext::ChargeLeafRows: against the kill threshold row by row, and
/// outside the soft budget.
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
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

  JoinType join_type() const { return match_.type(); }

  /// True once this execution degraded to Grace partitioning.
  bool spilled() const { return spilled_; }

 private:
  void BuildTable(ExecContext* ctx);
  /// The first build row of `table` whose key equals `probe_row`'s, which
  /// is evaluated into `*key`: kNoRow for a NULL key.
  JoinTable::RowId BucketOf(const JoinTable& table, const Row& probe_row,
                            Row* key) const;
  /// Dumps the in-memory build table into the build partitions and switches
  /// to Grace mode.
  bool SpillBuildTable(ExecContext* ctx);
  /// Drains the probe child into probe partition runs (Grace mode only).
  void PartitionProbe(ExecContext* ctx);
  /// Rebuilds table_ from `build_run`, charging each row as a leaf row.
  /// charged_ and max_bucket_ advance row by row, so a checkpoint mid-leaf
  /// sees them current. Returns ctx->ok().
  bool BuildLeafTable(ExecContext* ctx, SpillRun* build_run);
  /// Rebuilds the hash table from leaf part_idx_'s build run and rewinds the
  /// matching probe run.
  bool LoadPartition(ExecContext* ctx);
  void UnloadPartition(ExecContext* ctx);
  /// Returns charged_ to the context: leaf rows once spilled_, build rows
  /// before.
  void ReleaseCharge(ExecContext* ctx);
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
  Row key_;  // build or probe key of the query thread's current row
  JoinTable table_;
  uint64_t build_rows_ = 0;
  uint64_t max_bucket_ = 0;
  // Rows charged to the context's buffer budget: the in-memory build table,
  // or once spilled_, the current leaf's table (ChargeLeafRows).
  uint64_t charged_ = 0;

  JoinMatcher match_;  // the in-memory and Grace leaf probe
  bool probe_valid_ = false;
  JoinTable::RowId bucket_ = JoinTable::kNoRow;  // next candidate to offer

  // Grace-mode state (unused until the build overflows the soft budget).
  // Side 0 is the build input, side 1 the probe input.
  bool spilled_ = false;
  bool probe_partitioned_ = false;
  GracePartitions grace_;
  int part_idx_ = 0;  // leaf the leaf loop is on
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
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;

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
