#include "exec/aggregate.h"

#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/fault_injector.h"

namespace qprog {

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kCountDistinct:
      return "count-distinct";
  }
  return "?";
}

// --------------------------------------------------------------------------
// AggAccumulator

void AggAccumulator::Add(const Value& v) {
  if (v.is_null()) return;  // SQL aggregates skip NULLs
  ++count_;
  switch (func_) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      sum_ += v.AsDouble();
      break;
    case AggFunc::kMin:
      if (min_.is_null() || v.Compare(min_) < 0) min_ = v;
      break;
    case AggFunc::kMax:
      if (max_.is_null() || v.Compare(max_) > 0) max_ = v;
      break;
    case AggFunc::kCountDistinct:
      distinct_.insert(v);
      break;
  }
}

Value AggAccumulator::Result() const {
  switch (func_) {
    case AggFunc::kCount:
      return Value::Int64(static_cast<int64_t>(count_));
    case AggFunc::kSum:
      return count_ == 0 ? Value::Null() : Value::Double(sum_);
    case AggFunc::kAvg:
      return count_ == 0 ? Value::Null()
                         : Value::Double(sum_ / static_cast<double>(count_));
    case AggFunc::kMin:
      return min_;
    case AggFunc::kMax:
      return max_;
    case AggFunc::kCountDistinct:
      return Value::Int64(static_cast<int64_t>(distinct_.size()));
  }
  return Value::Null();
}

namespace {

Schema MakeAggSchema(const std::vector<std::string>& group_names,
                     const std::vector<AggregateDesc>& aggregates) {
  std::vector<Field> fields;
  fields.reserve(group_names.size() + aggregates.size());
  for (const std::string& name : group_names) {
    fields.emplace_back(name, TypeId::kNull);
  }
  for (const AggregateDesc& agg : aggregates) {
    fields.emplace_back(agg.output_name, TypeId::kNull);
  }
  return Schema(std::move(fields));
}

std::vector<AggAccumulator> MakeStates(
    const std::vector<AggregateDesc>& aggregates) {
  std::vector<AggAccumulator> states;
  states.reserve(aggregates.size());
  for (const AggregateDesc& agg : aggregates) {
    states.emplace_back(agg.func);
  }
  return states;
}

void AccumulateRow(const std::vector<AggregateDesc>& aggregates,
                   std::vector<AggAccumulator>* states, const Row& row) {
  for (size_t i = 0; i < aggregates.size(); ++i) {
    const AggregateDesc& agg = aggregates[i];
    if (agg.arg == nullptr) {
      QPROG_DCHECK(agg.func == AggFunc::kCount);
      (*states)[i].AddCountStar();
    } else {
      (*states)[i].Add(agg.arg->Eval(row));
    }
  }
}

/// Narrows an aggregate's input to what its group and argument expressions
/// read, and remaps them. The aggregate's own outputs stay whole.
std::vector<size_t> PruneAggregateInput(
    PhysicalOperator* child, const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggregateDesc>& aggregates) {
  std::vector<Expr*> exprs;
  for (const ExprPtr& e : group_exprs) exprs.push_back(e.get());
  for (const AggregateDesc& agg : aggregates) {
    if (agg.arg != nullptr) exprs.push_back(agg.arg.get());
  }
  PruneInput(child,
             std::vector<bool>(child->output_schema().num_fields(), false),
             exprs);
  return IdentityColumnMap(group_exprs.size() + aggregates.size());
}

Row ResultRow(std::span<const Value> key,
              const std::vector<AggAccumulator>& states) {
  Row out;
  out.reserve(key.size() + states.size());
  out.insert(out.end(), key.begin(), key.end());
  for (const AggAccumulator& acc : states) out.push_back(acc.Result());
  return out;
}

}  // namespace

// --------------------------------------------------------------------------
// HashAggregate

HashAggregate::HashAggregate(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                             std::vector<std::string> group_names,
                             std::vector<AggregateDesc> aggregates)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)),
      schema_(MakeAggSchema(group_names, aggregates_)),
      groups_(group_exprs_.size()),
      grace_({{&group_exprs_, "hashagg.build"}}, OversizedLeaf::kAdmitAlone) {
  QPROG_CHECK(child_ != nullptr);
  QPROG_CHECK(group_names.size() == group_exprs_.size());
}

void HashAggregate::DoOpen(ExecContext* ctx) {
  finished_ = false;
  built_ = false;
  ReleaseResidentGroups(ctx);
  spilled_ = false;
  grace_.Reset();
  part_next_ = 0;
  prior_groups_ = 0;
  child_->Open(ctx);
}

void HashAggregate::Build(ExecContext* ctx) {
  Row row, key;
  bool any_input = false;
  while (ctx->ok() && child_->Next(ctx, &row)) {
    if (ctx->ConsultFault(faults::kHashAggregateBuild, node_id())) return;
    any_input = true;
    EvalKey(group_exprs_, row, &key);
    const size_t group = groups_.keys.Find(key);
    if (group != KeyDirectory::kNotFound) {
      // Known group: keep accumulating in memory, spilled or not.
      AccumulateRow(aggregates_, &groups_.states[group], row);
      continue;
    }
    if (spilled_) {
      // New key after the overflow: its raw rows go to a partition.
      if (!grace_.Append(ctx, node_id(), 0, key, row)) return;
      continue;
    }
    ChargeVerdict verdict = ctx->ChargeBufferedRowsOrSpill(1);
    if (verdict == ChargeVerdict::kFailed) return;
    if (verdict == ChargeVerdict::kSpill && !group_exprs_.empty()) {
      spilled_ = true;
      if (!grace_.Append(ctx, node_id(), 0, key, row)) return;
      continue;
    }
    if (verdict == ChargeVerdict::kSpill) {
      // Scalar aggregate: a single group is the minimum working set and
      // there is nothing to spill, so charge it against the kill threshold
      // like a reloaded partition rather than aborting on a soft budget
      // that other operators may be holding.
      if (!ctx->ChargeBufferedRowsPostSpill(1)) return;
    }
    ++charged_;
    groups_.keys.Insert(key);
    groups_.states.push_back(MakeStates(aggregates_));
    AccumulateRow(aggregates_, &groups_.states.back(), row);
  }
  if (!ctx->ok()) return;  // partial aggregation: do not emit
  // The resident groups are emitted, then released before the first leaf
  // loads (LoadNextPartition), so the leaves are sized against the headroom
  // they leave behind.
  if (spilled_ && !grace_.Refine(ctx, node_id(), charged_)) return;
  // A scalar aggregate produces one row even over empty input.
  if (group_exprs_.empty() && !any_input) {
    groups_.keys.Insert(Row());
    groups_.states.push_back(MakeStates(aggregates_));
  }
  built_ = true;
}

void HashAggregate::ReleaseResidentGroups(ExecContext* ctx) {
  prior_groups_ += groups_.keys.size();
  groups_.Clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  ctx->ReleaseLeafRows(leaf_charged_);
  leaf_charged_ = 0;
  cursor_ = 0;
}

bool HashAggregate::AggregateLeaf(ExecContext* ctx, SpillRun* run) {
  if (!run->OpenRead(ctx, node_id())) return false;
  Row row, key;
  uint64_t* rows_read = grace_.mutable_rows_read();
  while (run->ReadNext(ctx, node_id(), &row)) {
    EvalKey(group_exprs_, row, &key);
    const size_t group = groups_.keys.Insert(key);
    if (group == groups_.states.size()) {
      // One leaf's groups answer to the kill threshold only.
      if (!ctx->ChargeLeafRows(1)) return false;
      ++leaf_charged_;
      groups_.states.push_back(MakeStates(aggregates_));
    }
    AccumulateRow(aggregates_, &groups_.states[group], row);
    ++*rows_read;
  }
  return ctx->ok();
}

bool HashAggregate::LoadNextPartition(ExecContext* ctx) {
  ReleaseResidentGroups(ctx);
  GraceLeaf& leaf = grace_.leaves()[part_next_];
  if (!AggregateLeaf(ctx, leaf.runs[0].get())) return false;
  leaf.runs.clear();  // delete this leaf's temp file
  ++part_next_;
  return true;
}

bool HashAggregate::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok()) return false;
  if (!built_) {
    Build(ctx);
    if (!ctx->ok()) return false;
  }
  for (;;) {
    if (!ctx->ok()) return false;
    if (cursor_ < groups_.keys.size()) {
      *out = ResultRow(groups_.keys.key(cursor_), groups_.states[cursor_]);
      ++cursor_;
      Emit(ctx);
      return true;
    }
    if (!spilled_ || part_next_ >= grace_.leaves().size()) {
      finished_ = true;
      return false;
    }
    if (!LoadNextPartition(ctx)) return false;
  }
}

void HashAggregate::DoClose(ExecContext* ctx) {
  child_->Close(ctx);
  groups_.Release();
  grace_.DropRuns();  // deletes any remaining spill temp files
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  ctx->ReleaseLeafRows(leaf_charged_);
  leaf_charged_ = 0;
}

std::string HashAggregate::label() const {
  return StringPrintf("HashAggregate(%zu groups cols, %zu aggs)",
                      group_exprs_.size(), aggregates_.size());
}

std::vector<size_t> HashAggregate::PruneColumns(const std::vector<bool>&) {
  return PruneAggregateInput(child_.get(), group_exprs_, aggregates_);
}

void HashAggregate::FillProgressState(const ExecContext& ctx,
                                      ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  // Spilled runs keep the conservative !build_done path: group counts are
  // not final until every partition has been re-aggregated.
  state->build_done = built_ && !spilled_;
  state->groups_so_far = prior_groups_ + groups_.keys.size();
  state->scalar_aggregate = group_exprs_.empty();
  state->SetSpillPending(grace_.rows_written());
  // Row count for the group-cardinality bound: spilled rows that have not
  // been re-aggregated yet (each may still open a fresh group). Appends
  // minus reads — a re-partitioned row moves both counters, so this is
  // exactly the rows sitting unread in leaves. Distinct from
  // spill_rows_pending, which is in *work units* and would overstate the
  // unseen rows by the unfinished write pass.
  const uint64_t written = grace_.rows_written();
  const uint64_t read = grace_.rows_read();
  state->spill_rows_unread = written > read ? written - read : 0;
}

// --------------------------------------------------------------------------
// StreamAggregate

StreamAggregate::StreamAggregate(OperatorPtr child,
                                 std::vector<ExprPtr> group_exprs,
                                 std::vector<std::string> group_names,
                                 std::vector<AggregateDesc> aggregates)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)),
      schema_(MakeAggSchema(group_names, aggregates_)) {
  QPROG_CHECK(child_ != nullptr);
  QPROG_CHECK(group_names.size() == group_exprs_.size());
}

void StreamAggregate::DoOpen(ExecContext* ctx) {
  finished_ = false;
  group_open_ = false;
  input_done_ = false;
  any_input_ = false;
  groups_emitted_ = 0;
  pending_valid_ = false;
  child_->Open(ctx);
}

void StreamAggregate::Accumulate(const Row& row) {
  AccumulateRow(aggregates_, &current_state_, row);
}

Row StreamAggregate::EmitGroup() {
  ++groups_emitted_;
  group_open_ = false;
  return ResultRow(current_key_, current_state_);
}

bool StreamAggregate::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() ||
      ctx->ConsultFault(faults::kStreamAggregateNext, node_id())) {
    return false;
  }
  if (input_done_ && !group_open_) {
    // Scalar aggregate over empty input still yields one row.
    if (group_exprs_.empty() && !any_input_ && groups_emitted_ == 0) {
      current_key_.clear();
      current_state_ = MakeStates(aggregates_);
      ++groups_emitted_;
      *out = ResultRow(current_key_, current_state_);
      Emit(ctx);
      return true;
    }
    finished_ = true;
    return false;
  }
  for (;;) {
    Row row;
    bool have_row;
    if (pending_valid_) {
      row = std::move(pending_row_);
      pending_valid_ = false;
      have_row = true;
    } else {
      have_row = child_->Next(ctx, &row);
    }
    if (!have_row) {
      if (!ctx->ok()) return false;  // child stopped on error: no final group
      input_done_ = true;
      if (group_open_) {
        *out = EmitGroup();
        Emit(ctx);
        return true;
      }
      return Next(ctx, out);  // handles the empty-scalar case above
    }
    any_input_ = true;
    EvalKey(group_exprs_, row, &key_);
    if (!group_open_) {
      current_key_.swap(key_);
      current_state_ = MakeStates(aggregates_);
      group_open_ = true;
      Accumulate(row);
      continue;
    }
    if (RowEq()(key_, current_key_)) {
      Accumulate(row);
      continue;
    }
    // Group boundary: emit the finished group, stash the new row.
    pending_row_ = std::move(row);
    pending_valid_ = true;
    Row result = EmitGroup();
    current_key_.swap(key_);
    *out = std::move(result);
    Emit(ctx);
    return true;
  }
}

void StreamAggregate::DoClose(ExecContext* ctx) { child_->Close(ctx); }

std::string StreamAggregate::label() const {
  return StringPrintf("StreamAggregate(%zu group cols, %zu aggs)",
                      group_exprs_.size(), aggregates_.size());
}

std::vector<size_t> StreamAggregate::PruneColumns(const std::vector<bool>&) {
  return PruneAggregateInput(child_.get(), group_exprs_, aggregates_);
}

void StreamAggregate::FillProgressState(const ExecContext& ctx,
                                        ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  state->groups_so_far = groups_emitted_ + (group_open_ ? 1 : 0);
  state->scalar_aggregate = group_exprs_.empty();
  state->build_done = input_done_;
}

}  // namespace qprog
