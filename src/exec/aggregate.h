// Aggregation operators: HashAggregate (γ, blocking build then emit) and
// StreamAggregate (input pre-sorted on the grouping keys, streaming).

#ifndef QPROG_EXEC_AGGREGATE_H_
#define QPROG_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/grace.h"
#include "exec/key_directory.h"
#include "exec/operator.h"
#include "expr/expr.h"

namespace qprog {

class WorkContext;

enum class AggFunc {
  kCount,  // COUNT(*) when arg is null, else COUNT(arg)
  kSum,
  kAvg,
  kMin,
  kMax,
  kCountDistinct,
};

const char* AggFuncToString(AggFunc func);

/// One aggregate in the output list.
struct AggregateDesc {
  AggFunc func = AggFunc::kCount;
  ExprPtr arg;  // null for COUNT(*)
  std::string output_name;

  AggregateDesc() = default;
  AggregateDesc(AggFunc f, ExprPtr a, std::string name)
      : func(f), arg(std::move(a)), output_name(std::move(name)) {}
};

/// Running state for one aggregate within one group.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFunc func) : func_(func) {}
  void Add(const Value& v);
  void AddCountStar() { ++count_; }
  Value Result() const;

 private:
  struct ValueHasher {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.EqualsForGrouping(b);
    }
  };

  AggFunc func_;
  uint64_t count_ = 0;  // non-null inputs seen
  double sum_ = 0.0;
  Value min_, max_;
  std::unordered_set<Value, ValueHasher, ValueEq> distinct_;
};

/// γ via hashing. Output schema: group columns (named by `group_names`),
/// then one column per aggregate. Groups are emitted in first-seen order
/// (deterministic). A grouping-free ("scalar") aggregate emits exactly one
/// row even over empty input.
///
/// Memory-adaptive: when the group table would exceed the guard's soft
/// budget and a SpillManager is attached, rows for *unseen* keys are routed
/// raw to Grace partitions on disk (groups already in memory keep
/// accumulating there — no work is thrown away). After the build the
/// partitions are refined into leaves by exec/grace.h (DESIGN.md §9); after
/// the in-memory groups are emitted, each leaf is re-read and aggregated in
/// turn. Keys never straddle memory and disk, so no group is double-counted.
/// The aggregate holds groups, not rows, so a leaf that stays over the kill
/// headroom — single-key skew, or the depth cap — is admitted alone, and the
/// per-group kill-threshold charge stays the tripwire if it does not fit.
///
/// With a WorkerPool attached and no kill threshold (UsePooledLeafReplay),
/// the leaf replay runs as one task per leaf through
/// GracePartitions::RunLeaves instead of the serial loop; under a kill
/// threshold the serial loop runs at every pool size. Output rows are
/// identical to the serial replay at every pool size. Both drivers
/// re-aggregate a leaf through the same AggregateLeaf.
class HashAggregate : public PhysicalOperator {
 public:
  HashAggregate(OperatorPtr child, std::vector<ExprPtr> group_exprs,
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
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

  /// True once this execution spilled unseen-key rows to partitions.
  bool spilled() const { return spilled_; }

 private:
  /// Groups in first-seen order: each key held once, numbered by the
  /// directory, and group g's states at states[g].
  struct GroupTable {
    explicit GroupTable(size_t key_width) : keys(key_width) {}
    KeyDirectory keys;
    std::vector<std::vector<AggAccumulator>> states;

    void Clear() {
      keys.Clear();
      states.clear();
    }
    void Release() {
      keys.Release();
      states = {};
    }
  };

  void Build(ExecContext* ctx);
  /// Drops the emitted in-memory groups and releases their charge, before
  /// the spilled leaves are replayed.
  void ReleaseResidentGroups(ExecContext* ctx);
  /// Aggregates leaf `part_next_` into a fresh group table and resets
  /// the emit cursor over it.
  bool LoadNextPartition(ExecContext* ctx);
  /// The Grace leaf body both replay drivers share: re-aggregates `run` into
  /// `groups`, charging each new group on `wc` against the kill threshold
  /// only. `*charged` (groups charged) and `*rows_read` advance row by row,
  /// so a checkpoint mid-leaf sees them current. Returns wc->ok().
  bool AggregateLeaf(WorkContext* wc, SpillRun* run, GroupTable* groups,
                     uint64_t* charged, uint64_t* rows_read) const;

  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateDesc> aggregates_;
  Schema schema_;

  bool built_ = false;
  GroupTable groups_;
  size_t cursor_ = 0;
  uint64_t charged_ = 0;  // groups charged to the context's buffer budget

  // Partition-spill state (unused until the group table overflows). The
  // partition counters never read SpillRun counters — a task may own the
  // runs — and rows written minus rows read is the rows sitting in leaves.
  bool spilled_ = false;
  GracePartitions grace_;
  size_t part_next_ = 0;       // next leaf to replay serially
  uint64_t prior_groups_ = 0;  // groups emitted before the current table
  uint64_t par_groups_ = 0;    // groups discovered by folded replay tasks
};

/// γ over an input already sorted by the grouping expressions; emits each
/// group as soon as it closes (non-blocking between groups).
class StreamAggregate : public PhysicalOperator {
 public:
  StreamAggregate(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                  std::vector<std::string> group_names,
                  std::vector<AggregateDesc> aggregates);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kStreamAggregate; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 1; }
  PhysicalOperator* child(size_t) override { return child_.get(); }
  std::string label() const override;
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

 private:
  void Accumulate(const Row& row);
  Row EmitGroup();

  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateDesc> aggregates_;
  Schema schema_;

  bool group_open_ = false;
  bool input_done_ = false;
  bool any_input_ = false;
  uint64_t groups_emitted_ = 0;
  Row current_key_;
  Row key_;  // the current input row's key, evaluated in place
  std::vector<AggAccumulator> current_state_;
  Row pending_row_;
  bool pending_valid_ = false;
};

}  // namespace qprog

#endif  // QPROG_EXEC_AGGREGATE_H_
