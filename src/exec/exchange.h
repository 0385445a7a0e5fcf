// Exchange: the repartition boundary that lets whole pipelines run
// partitioned end-to-end (partitioned scan → filter → partial aggregate →
// exchange(hash on group key) → final aggregate), plus the partial/final
// aggregate pair that decomposes a hash aggregation across it.
//
// An Exchange owns N producer subtrees (its children) and hash-routes every
// producer row to one of M consumer buckets on its key columns. With a
// WorkerPool attached to the context, the N producers run as one task per
// partition; without one, they run inline on the query thread — the
// reference serial semantics.
//
// Determinism contract (DESIGN.md §16), extending the sharded-then-folded
// rules of §10:
//  * Pooled producers never touch the ExecContext. Each task runs its
//    producer subtree against a private per-task context (counters sized to
//    the subtree, fault injector = the task's deterministic fork, no guard /
//    telemetry / spill), and records routed rows bucket-by-bucket in arrival
//    order. After the barrier the query thread folds partitions in partition
//    order: it replays each producer subtree's per-node getnext counts into
//    the ExecContext (so observer checkpoints, guard budgets and work-indexed
//    cancels land at the exact scheduled crossings — pool-size-invariant),
//    charges the partition's routed rows against the buffer budget (spilling
//    the buckets to per-bucket runs when the soft budget fills), and emits
//    the partition_close trace event. Rows, counters and traces are
//    therefore byte-identical across pool sizes.
//  * Per-partition getnext accounting sums at the exchange boundary: every
//    producer node's counter lands in the same ExecContext slots the serial
//    plan would use, so `dne` driver totals and the bounds walker's
//    [LB, UB] stay exact for partitioned plans.
//  * Consumer buckets drain in bucket order 0..M-1, each bucket holding its
//    rows in (partition, arrival) order — a total order derived from data,
//    never from scheduling.
//
// Producer task keys: kExchangeProduceTaskTag (exec/worker_pool.h) | the
// producer partition index.

#ifndef QPROG_EXEC_EXCHANGE_H_
#define QPROG_EXEC_EXCHANGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/aggregate.h"
#include "exec/operator.h"
#include "exec/spill.h"
#include "expr/expr.h"

namespace qprog {

class WorkerPool;

/// Hash-repartitions N producer partitions (children) into M consumer
/// buckets. Blocking: the first Next() materializes every producer, then
/// the operator streams buckets 0..M-1 in order. Memory-adaptive: routed
/// rows are charged per producer partition via ChargeBufferedRowsOrSpill;
/// when the soft budget fills (including mid-run governor revocations), the
/// buckets flush to one spill run per bucket and later partitions route to
/// disk, each spilled row costing one write and one re-read work unit — the
/// same dynamic-total(Q) revision every other spilling operator makes.
class Exchange : public PhysicalOperator {
 public:
  /// `producers` are the partition subtrees (at least one); all must share
  /// an output schema. `key_cols` are output-column indices hashed for
  /// routing (empty = everything routes to bucket 0). `num_consumers` M is
  /// clamped to >= 1.
  Exchange(std::vector<OperatorPtr> producers, std::vector<size_t> key_cols,
           size_t num_consumers);
  ~Exchange() override;

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kExchange; }
  const Schema& output_schema() const override {
    return producers_[0]->output_schema();
  }
  size_t num_children() const override { return producers_.size(); }
  PhysicalOperator* child(size_t i) override { return producers_[i].get(); }
  std::string label() const override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

  size_t num_producers() const { return producers_.size(); }
  size_t num_consumers() const { return num_consumers_; }
  /// True once this execution flushed buckets to spill runs.
  bool spilled() const { return spilled_; }

 private:
  /// Rows one producer routed, bucket-by-bucket, plus the fold bookkeeping.
  struct PartitionOut {
    std::vector<std::vector<Row>> buckets;  // M bucket vectors, arrival order
    uint64_t rows = 0;                      // total routed rows
  };

  /// Runs every producer and fills the consumer buckets. False on error.
  bool Materialize(ExecContext* ctx);
  /// Inline reference path: producers run on the query thread against `ctx`
  /// itself (live counters, main fault injector).
  bool MaterializeSerial(ExecContext* ctx);
  /// Pooled path: one task per producer on private contexts; folds in
  /// partition order (see the determinism contract above).
  bool MaterializePooled(ExecContext* ctx, WorkerPool* pool);
  /// Task body: runs `producer` to completion against `prod_ctx`, routing
  /// rows into `out` and consulting the exchange.send fault site per row.
  void ProduceTask(class TaskContext* tc, ExecContext* prod_ctx,
                   PhysicalOperator* producer, PartitionOut* out) const;
  /// Query-thread fold of one partition's routed rows: charge against the
  /// buffer budget, append to the in-memory buckets or spill runs, emit the
  /// partition_close trace event. False on error.
  bool FoldPartition(ExecContext* ctx, size_t partition, PartitionOut* out);
  /// Flushes the in-memory buckets to per-bucket spill runs and releases
  /// their charge; subsequent partitions route straight to the runs.
  bool SwitchToSpill(ExecContext* ctx);

  size_t BucketOf(const Row& row) const;
  /// Largest node id in any producer subtree + 1 — the counter span a
  /// private producer context needs.
  size_t SubtreeCounterSpan() const;

  std::vector<OperatorPtr> producers_;
  std::vector<size_t> key_cols_;
  size_t num_consumers_;

  bool materialized_ = false;
  std::vector<std::vector<Row>> buckets_;   // in-memory consumer partitions
  std::vector<SpillRunPtr> bucket_runs_;    // per-bucket runs once spilled
  bool spilled_ = false;
  uint64_t charged_ = 0;       // rows charged to the buffer budget
  uint64_t routed_rows_ = 0;   // total rows accepted across partitions
  uint64_t rows_spilled_ = 0;  // rows appended to bucket runs
  uint64_t rows_replayed_ = 0; // rows re-read from bucket runs

  // Drain cursor.
  size_t drain_bucket_ = 0;
  size_t drain_pos_ = 0;
  bool drain_open_ = false;  // current bucket's run is open for reading
};

/// Per-partition (pre-exchange) half of a decomposed hash aggregation:
/// groups its input and emits one row per group carrying the *partial
/// state* of each aggregate — layout: the G group columns, then per
/// aggregate one column (COUNT: the partial count; SUM: the partial sum or
/// NULL when no non-null input; MIN/MAX: the partial extremum or NULL) —
/// except AVG, which carries two ("<name>_sum", "<name>_count").
/// COUNT(DISTINCT) is not decomposable this way and is rejected.
///
/// Buffered groups are intentionally *not* charged against the buffer
/// budget here: every group becomes exactly one routed row that the parent
/// Exchange charges (and can spill), so the account stays single-entry.
/// Reports kind() == kHashAggregate so the bounds walker's and pipeline
/// decomposition's aggregate reasoning applies unchanged.
class PartialAggregate : public PhysicalOperator {
 public:
  PartialAggregate(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                   std::vector<std::string> group_names,
                   std::vector<AggregateDesc> aggregates);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kHashAggregate; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 1; }
  PhysicalOperator* child(size_t) override { return child_.get(); }
  std::string label() const override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

  /// Partial-state columns contributed by one aggregate (2 for AVG, else 1).
  static size_t StateWidth(AggFunc func) {
    return func == AggFunc::kAvg ? 2 : 1;
  }
  /// True when every aggregate in `descs` can be decomposed into a
  /// partial/final pair across an exchange.
  static bool Decomposable(const std::vector<AggregateDesc>& descs);

 private:
  void Build(ExecContext* ctx);

  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateDesc> aggregates_;
  Schema schema_;

  bool built_ = false;
  std::unordered_map<Row, size_t, RowHash, RowEq> group_index_;
  std::vector<Row> group_keys_;  // first-seen order
  std::vector<std::vector<AggAccumulator>> group_states_;
  size_t cursor_ = 0;
};

/// Post-exchange half: merges partial-state rows (grouped by their first G
/// columns — the exchange routed each group key to exactly one bucket) and
/// emits final aggregate values. Output order is *sorted by group key*
/// (NULLs first): a canonical order that is identical across pool sizes AND
/// partition counts, unlike first-seen order, which would depend on the
/// partition layout.
class FinalAggregate : public PhysicalOperator {
 public:
  /// `child` produces partial rows (normally an Exchange). `num_group_cols`
  /// G is the group-key prefix width; `group_names` its output names;
  /// `aggregates` the original descriptors (their `arg` exprs are unused
  /// here — merging reads the partial-state columns positionally).
  FinalAggregate(OperatorPtr child, size_t num_group_cols,
                 std::vector<std::string> group_names,
                 std::vector<AggregateDesc> aggregates);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kHashAggregate; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 1; }
  PhysicalOperator* child(size_t) override { return child_.get(); }
  std::string label() const override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

 private:
  /// Running merged state for one aggregate within one group.
  struct MergedAgg {
    int64_t count = 0;     // COUNT / AVG denominators
    double sum = 0.0;      // SUM / AVG numerators
    Value extremum;        // MIN / MAX
    bool seen = false;     // any non-null partial folded in
  };

  void Build(ExecContext* ctx);
  void MergeRow(const Row& row, std::vector<MergedAgg>* states) const;
  Value FinalValue(AggFunc func, const MergedAgg& m) const;

  OperatorPtr child_;
  size_t num_group_cols_;
  std::vector<AggregateDesc> aggregates_;
  Schema schema_;

  bool built_ = false;
  std::vector<Row> results_;  // final rows, sorted by group key
  size_t cursor_ = 0;
  uint64_t charged_ = 0;  // groups charged against the kill threshold
};

}  // namespace qprog

#endif  // QPROG_EXEC_EXCHANGE_H_
