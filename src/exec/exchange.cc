#include "exec/exchange.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/exec_context.h"
#include "exec/fault_injector.h"
#include "exec/worker_pool.h"
#include "obs/trace.h"

namespace qprog {

namespace {

// A producer partition's forked fault schedule is a pure function of its
// data identity — identical at every pool size.
uint64_t ExchangeTaskKey(size_t partition) {
  return kExchangeProduceTaskTag | static_cast<uint64_t>(partition);
}

void MaxNodeId(const PhysicalOperator* op, int* max_id) {
  if (op->node_id() > *max_id) *max_id = op->node_id();
  for (size_t i = 0; i < op->num_children(); ++i) {
    MaxNodeId(op->child(i), max_id);
  }
}

// Replays one producer subtree's per-node getnext counts from `prod_ctx`
// into `ctx`, pre-order (the serial engine's attribution order). Burst
// counting fires the observer once per crossed interval with the scheduled
// crossing point, so checkpoints land where serial counting would put them.
void ReplayCounts(const PhysicalOperator* op, const ExecContext& prod_ctx,
                  ExecContext* ctx) {
  uint64_t n = prod_ctx.rows_produced(op->node_id());
  if (n > 0) ctx->CountRows(op->node_id(), n, /*is_root=*/false);
  if (!ctx->ok()) return;
  for (size_t i = 0; i < op->num_children(); ++i) {
    ReplayCounts(op->child(i), prod_ctx, ctx);
    if (!ctx->ok()) return;
  }
}

}  // namespace

// --------------------------------------------------------------------------
// Exchange

Exchange::Exchange(std::vector<OperatorPtr> producers,
                   std::vector<size_t> key_cols, size_t num_consumers)
    : producers_(std::move(producers)),
      key_cols_(std::move(key_cols)),
      num_consumers_(num_consumers < 1 ? 1 : num_consumers) {
  QPROG_CHECK(!producers_.empty());
}

Exchange::~Exchange() = default;

void Exchange::DoOpen(ExecContext* ctx) {
  // Lazy: producers open inside Materialize (inline or on their tasks), so
  // Open only resets state for a rewind.
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  materialized_ = false;
  spilled_ = false;
  buckets_.clear();
  bucket_runs_.clear();
  routed_rows_ = 0;
  rows_spilled_ = 0;
  rows_replayed_ = 0;
  drain_bucket_ = 0;
  drain_pos_ = 0;
  drain_open_ = false;
  finished_ = false;
}

size_t Exchange::BucketOf(const Row& row) const {
  if (num_consumers_ == 1) return 0;
  // FNV-1a-style mix over the key columns' grouping hashes: stable across
  // runs, partition layouts and pool sizes (it sees only data).
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t c : key_cols_) {
    h ^= static_cast<uint64_t>(row[c].Hash());
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h % num_consumers_);
}

size_t Exchange::SubtreeCounterSpan() const {
  int max_id = node_id();
  for (const OperatorPtr& p : producers_) MaxNodeId(p.get(), &max_id);
  return static_cast<size_t>(max_id) + 1;
}

bool Exchange::SwitchToSpill(ExecContext* ctx) {
  SpillManager* spill = ctx->spill_manager();
  QPROG_CHECK(spill != nullptr);
  bucket_runs_.resize(num_consumers_);
  for (size_t b = 0; b < num_consumers_; ++b) {
    bucket_runs_[b] = spill->CreateRun(ctx, node_id(), "exchange.part");
    if (bucket_runs_[b] == nullptr) return false;
  }
  // Flush the in-memory buckets in bucket order; every flushed row is one
  // spill-work unit (and will cost one more when re-read), revising
  // total(Q) upward exactly like the other spilling operators.
  for (size_t b = 0; b < num_consumers_; ++b) {
    for (const Row& row : buckets_[b]) {
      if (!bucket_runs_[b]->Append(ctx, node_id(), row)) return false;
      ++rows_spilled_;
    }
    buckets_[b].clear();
    buckets_[b].shrink_to_fit();
  }
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  spilled_ = true;
  return true;
}

bool Exchange::FoldPartition(ExecContext* ctx, size_t partition,
                             PartitionOut* out) {
  if (!spilled_) {
    ChargeVerdict verdict = ctx->ChargeBufferedRowsOrSpill(out->rows);
    if (verdict == ChargeVerdict::kFailed) return false;
    if (verdict == ChargeVerdict::kSpill) {
      if (!SwitchToSpill(ctx)) return false;
    } else {
      charged_ += out->rows;
    }
  }
  for (size_t b = 0; b < num_consumers_; ++b) {
    std::vector<Row>& src = out->buckets[b];
    if (spilled_) {
      for (Row& row : src) {
        if (!bucket_runs_[b]->Append(ctx, node_id(), row)) return false;
        ++rows_spilled_;
      }
    } else {
      buckets_[b].insert(buckets_[b].end(),
                         std::make_move_iterator(src.begin()),
                         std::make_move_iterator(src.end()));
    }
    src.clear();
  }
  routed_rows_ += out->rows;
  if (ctx->telemetry() != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kExchangePartition;
    ev.work = ctx->work();
    ev.node = node_id();
    ev.a = static_cast<double>(partition);
    ev.b = static_cast<double>(out->rows);
    ctx->telemetry()->Emit(std::move(ev));
  }
  return ctx->ok();
}

void Exchange::ProduceTask(TaskContext* tc, ExecContext* prod_ctx,
                           PhysicalOperator* producer,
                           PartitionOut* out) const {
  producer->Open(prod_ctx);
  Row row;
  while (prod_ctx->ok() && tc->ok() && producer->Next(prod_ctx, &row)) {
    // One exchange.send consult per routed row, on the partition's forked
    // injector — the schedule is partition-keyed, not thread-keyed.
    if (prod_ctx->ConsultFault(faults::kExchangeSend, node_id())) break;
    size_t b = BucketOf(row);
    out->buckets[b].push_back(std::move(row));
    ++out->rows;
  }
  producer->Close(prod_ctx);
  if (!prod_ctx->ok()) tc->RaiseError(prod_ctx->status());
}

bool Exchange::MaterializePooled(ExecContext* ctx, WorkerPool* pool) {
  const size_t n = producers_.size();
  // Per-task state is created on the query thread (TaskContext forks the
  // fault injector there; run/trace identity must not depend on workers).
  std::vector<std::unique_ptr<TaskContext>> tcs;
  std::vector<std::unique_ptr<ExecContext>> prod_ctxs;
  std::vector<PartitionOut> outs(n);
  tcs.reserve(n);
  prod_ctxs.reserve(n);
  const size_t span = SubtreeCounterSpan();
  for (size_t p = 0; p < n; ++p) {
    tcs.push_back(std::make_unique<TaskContext>(ctx, ExchangeTaskKey(p)));
    auto prod_ctx = std::make_unique<ExecContext>();
    prod_ctx->set_fault_injector(tcs.back()->io_fault_injector());
    prod_ctx->Reset(span);
    prod_ctxs.push_back(std::move(prod_ctx));
    outs[p].buckets.resize(num_consumers_);
  }
  Status escaped;
  {
    TaskGroup group(pool);
    for (size_t p = 0; p < n; ++p) {
      TaskContext* tc = tcs[p].get();
      ExecContext* prod_ctx = prod_ctxs[p].get();
      PhysicalOperator* producer = producers_[p].get();
      PartitionOut* out = &outs[p];
      group.Submit([this, tc, prod_ctx, producer, out]() {
        ProduceTask(tc, prod_ctx, producer, out);
      });
    }
    escaped = group.Wait();
  }
  // Fold in partition order. Counts replay first (firing checkpoints /
  // guard trips at the exact scheduled crossings), then the partition's
  // rows are charged and appended; a partition whose replay or charge
  // fails ends the fold — later partitions' rows are never admitted, which
  // is exactly where the serial engine would have stopped.
  for (size_t p = 0; p < n; ++p) {
    if (!ctx->ok()) break;
    ReplayCounts(producers_[p].get(), *prod_ctxs[p], ctx);
    if (!ctx->ok()) break;
    if (tcs[p]->failed()) {
      tcs[p]->FoldInto(ctx);
      break;
    }
    if (!FoldPartition(ctx, p, &outs[p])) break;
  }
  if (ctx->ok() && !escaped.ok()) ctx->RaiseError(escaped);
  return ctx->ok();
}

bool Exchange::MaterializeSerial(ExecContext* ctx) {
  for (size_t p = 0; p < producers_.size(); ++p) {
    if (!ctx->ok()) return false;
    PhysicalOperator* producer = producers_[p].get();
    PartitionOut out;
    out.buckets.resize(num_consumers_);
    producer->Open(ctx);
    Row row;
    while (ctx->ok() && producer->Next(ctx, &row)) {
      if (ctx->ConsultFault(faults::kExchangeSend, node_id())) break;
      size_t b = BucketOf(row);
      out.buckets[b].push_back(std::move(row));
      ++out.rows;
    }
    producer->Close(ctx);
    if (!ctx->ok()) return false;
    if (!FoldPartition(ctx, p, &out)) return false;
  }
  return ctx->ok();
}

bool Exchange::Materialize(ExecContext* ctx) {
  if (ctx->telemetry() != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kExchangeBegin;
    ev.work = ctx->work();
    ev.node = node_id();
    ev.a = static_cast<double>(producers_.size());
    ev.b = static_cast<double>(num_consumers_);
    ctx->telemetry()->Emit(std::move(ev));
  }
  buckets_.assign(num_consumers_, {});
  WorkerPool* pool = ctx->worker_pool();
  bool ok = pool != nullptr ? MaterializePooled(ctx, pool)
                            : MaterializeSerial(ctx);
  if (ok && spilled_) {
    for (size_t b = 0; b < num_consumers_; ++b) {
      if (!bucket_runs_[b]->FinishWrite(ctx, node_id())) return false;
    }
  }
  materialized_ = ok;
  return ok;
}

bool Exchange::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kExchangeRecv, node_id())) {
    return false;
  }
  if (!materialized_ && !Materialize(ctx)) return false;
  while (drain_bucket_ < num_consumers_) {
    if (spilled_) {
      SpillRun* run = bucket_runs_[drain_bucket_].get();
      if (!drain_open_) {
        if (!run->OpenRead(ctx, node_id())) return false;
        drain_open_ = true;
      }
      Row row;
      if (run->ReadNext(ctx, node_id(), &row)) {
        ++rows_replayed_;
        *out = std::move(row);
        Emit(ctx);
        return true;
      }
      if (!ctx->ok()) return false;
      drain_open_ = false;
      ++drain_bucket_;
      continue;
    }
    std::vector<Row>& bucket = buckets_[drain_bucket_];
    if (drain_pos_ < bucket.size()) {
      *out = bucket[drain_pos_++];
      Emit(ctx);
      return true;
    }
    drain_pos_ = 0;
    ++drain_bucket_;
  }
  finished_ = true;
  return false;
}

void Exchange::DoClose(ExecContext* ctx) {
  // Producers open and close inside Materialize (inline or on their tasks);
  // Close here only drops buffered state. Runs delete their temp files on
  // destruction, so an aborted run leaks nothing.
  buckets_.clear();
  bucket_runs_.clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
}

std::string Exchange::label() const {
  return StringPrintf("Exchange(%zu->%zu%s)", producers_.size(),
                      num_consumers_, spilled_ ? ", spilled" : "");
}

void Exchange::FillProgressState(const ExecContext& ctx,
                                 ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  state->build_done = materialized_;
  state->build_rows = routed_rows_;
  // Every spilled-but-unread row still owes one re-read pass.
  state->spill_rows_pending = rows_spilled_ - rows_replayed_;
}

// --------------------------------------------------------------------------
// PartialAggregate

namespace {

Schema MakePartialSchema(const std::vector<std::string>& group_names,
                         const std::vector<AggregateDesc>& aggregates) {
  std::vector<Field> fields;
  for (const std::string& name : group_names) {
    fields.emplace_back(name, TypeId::kNull);
  }
  for (const AggregateDesc& agg : aggregates) {
    if (agg.func == AggFunc::kAvg) {
      fields.emplace_back(agg.output_name + "_sum", TypeId::kNull);
      fields.emplace_back(agg.output_name + "_count", TypeId::kNull);
    } else {
      fields.emplace_back(agg.output_name, TypeId::kNull);
    }
  }
  return Schema(std::move(fields));
}

Schema MakeFinalSchema(const std::vector<std::string>& group_names,
                       const std::vector<AggregateDesc>& aggregates) {
  std::vector<Field> fields;
  for (const std::string& name : group_names) {
    fields.emplace_back(name, TypeId::kNull);
  }
  for (const AggregateDesc& agg : aggregates) {
    fields.emplace_back(agg.output_name, TypeId::kNull);
  }
  return Schema(std::move(fields));
}

/// NULLs-first lexicographic group-key order: the canonical output order of
/// a decomposed aggregation (Value::Compare refuses NULLs, so handle them
/// explicitly; keys are unique, so ties never reach the tail).
bool GroupKeyLess(const Row& a, const Row& b, size_t num_group_cols) {
  for (size_t i = 0; i < num_group_cols; ++i) {
    const Value& va = a[i];
    const Value& vb = b[i];
    if (va.is_null() || vb.is_null()) {
      if (va.is_null() && vb.is_null()) continue;
      return va.is_null();
    }
    int c = va.Compare(vb);
    if (c != 0) return c < 0;
  }
  return false;
}

}  // namespace

PartialAggregate::PartialAggregate(OperatorPtr child,
                                   std::vector<ExprPtr> group_exprs,
                                   std::vector<std::string> group_names,
                                   std::vector<AggregateDesc> aggregates)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)),
      schema_(MakePartialSchema(group_names, aggregates_)) {
  QPROG_CHECK_MSG(Decomposable(aggregates_),
                  "PartialAggregate: COUNT(DISTINCT) is not decomposable");
}

bool PartialAggregate::Decomposable(const std::vector<AggregateDesc>& descs) {
  for (const AggregateDesc& d : descs) {
    if (d.func == AggFunc::kCountDistinct) return false;
  }
  return true;
}

void PartialAggregate::DoOpen(ExecContext* ctx) {
  child_->Open(ctx);
  built_ = false;
  group_index_.clear();
  group_keys_.clear();
  group_states_.clear();
  cursor_ = 0;
  finished_ = false;
}

void PartialAggregate::Build(ExecContext* ctx) {
  ctx->ConsultFault(faults::kHashAggregateBuild, node_id());
  Row row;
  while (ctx->ok() && child_->Next(ctx, &row)) {
    Row key;
    key.reserve(group_exprs_.size());
    for (const ExprPtr& e : group_exprs_) key.push_back(e->Eval(row));
    auto [it, inserted] = group_index_.try_emplace(key, group_keys_.size());
    if (inserted) {
      group_keys_.push_back(std::move(key));
      // One accumulator per partial-state *column*: AVG keeps a (kSum,
      // kCount) pair whose Result()s are exactly its two partial columns.
      std::vector<AggAccumulator> states;
      for (const AggregateDesc& agg : aggregates_) {
        if (agg.func == AggFunc::kAvg) {
          states.emplace_back(AggFunc::kSum);
          states.emplace_back(AggFunc::kCount);
        } else {
          states.emplace_back(agg.func);
        }
      }
      group_states_.push_back(std::move(states));
    }
    std::vector<AggAccumulator>& states = group_states_[it->second];
    size_t col = 0;
    for (const AggregateDesc& agg : aggregates_) {
      if (agg.arg == nullptr) {
        states[col].AddCountStar();
      } else {
        Value v = agg.arg->Eval(row);
        for (size_t w = 0; w < StateWidth(agg.func); ++w) {
          states[col + w].Add(v);
        }
      }
      col += StateWidth(agg.func);
    }
  }
  built_ = true;
}

bool PartialAggregate::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok()) return false;
  if (!built_) {
    Build(ctx);
    if (!ctx->ok()) return false;
  }
  if (cursor_ >= group_keys_.size()) {
    finished_ = true;
    return false;
  }
  const Row& key = group_keys_[cursor_];
  const std::vector<AggAccumulator>& states = group_states_[cursor_];
  ++cursor_;
  Row result;
  result.reserve(schema_.num_fields());
  result.insert(result.end(), key.begin(), key.end());
  for (const AggAccumulator& acc : states) result.push_back(acc.Result());
  *out = std::move(result);
  Emit(ctx);
  return true;
}

void PartialAggregate::DoClose(ExecContext* ctx) {
  child_->Close(ctx);
  group_index_.clear();
  group_keys_.clear();
  group_states_.clear();
}

std::string PartialAggregate::label() const {
  std::vector<std::string> parts;
  for (const AggregateDesc& agg : aggregates_) {
    parts.push_back(AggFuncToString(agg.func));
  }
  return StringPrintf("PartialAggregate(%zu keys; %s)", group_exprs_.size(),
                      JoinStrings(parts, ",").c_str());
}

void PartialAggregate::FillProgressState(const ExecContext& ctx,
                                         ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  state->build_done = built_;
  state->groups_so_far = group_keys_.size();
}

// --------------------------------------------------------------------------
// FinalAggregate

FinalAggregate::FinalAggregate(OperatorPtr child, size_t num_group_cols,
                               std::vector<std::string> group_names,
                               std::vector<AggregateDesc> aggregates)
    : child_(std::move(child)),
      num_group_cols_(num_group_cols),
      aggregates_(std::move(aggregates)),
      schema_(MakeFinalSchema(group_names, aggregates_)) {
  QPROG_CHECK_MSG(PartialAggregate::Decomposable(aggregates_),
                  "FinalAggregate: COUNT(DISTINCT) is not decomposable");
}

void FinalAggregate::DoOpen(ExecContext* ctx) {
  child_->Open(ctx);
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  built_ = false;
  results_.clear();
  cursor_ = 0;
  finished_ = false;
}

void FinalAggregate::MergeRow(const Row& row,
                              std::vector<MergedAgg>* states) const {
  size_t col = num_group_cols_;
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    MergedAgg& m = (*states)[i];
    switch (aggregates_[i].func) {
      case AggFunc::kCount:
        m.count += row[col].int64_value();
        break;
      case AggFunc::kSum:
        if (!row[col].is_null()) {
          m.sum += row[col].AsDouble();
          m.seen = true;
        }
        break;
      case AggFunc::kAvg: {
        // Partial layout: (<name>_sum, <name>_count); sum is NULL exactly
        // when count is zero.
        int64_t cnt = row[col + 1].int64_value();
        if (cnt > 0) {
          m.sum += row[col].AsDouble();
          m.count += cnt;
        }
        break;
      }
      case AggFunc::kMin:
        if (!row[col].is_null() &&
            (!m.seen || row[col].Compare(m.extremum) < 0)) {
          m.extremum = row[col];
          m.seen = true;
        }
        break;
      case AggFunc::kMax:
        if (!row[col].is_null() &&
            (!m.seen || row[col].Compare(m.extremum) > 0)) {
          m.extremum = row[col];
          m.seen = true;
        }
        break;
      case AggFunc::kCountDistinct:
        QPROG_CHECK_MSG(false, "unreachable: rejected at construction");
        break;
    }
    col += PartialAggregate::StateWidth(aggregates_[i].func);
  }
}

Value FinalAggregate::FinalValue(AggFunc func, const MergedAgg& m) const {
  switch (func) {
    case AggFunc::kCount:
      return Value::Int64(m.count);
    case AggFunc::kSum:
      return m.seen ? Value::Double(m.sum) : Value::Null();
    case AggFunc::kAvg:
      return m.count > 0
                 ? Value::Double(m.sum / static_cast<double>(m.count))
                 : Value::Null();
    case AggFunc::kMin:
    case AggFunc::kMax:
      return m.seen ? m.extremum : Value::Null();
    case AggFunc::kCountDistinct:
      break;
  }
  return Value::Null();
}

void FinalAggregate::Build(ExecContext* ctx) {
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  std::vector<Row> keys;
  std::vector<std::vector<MergedAgg>> states;
  Row row;
  while (ctx->ok() && child_->Next(ctx, &row)) {
    Row key(row.begin(), row.begin() + static_cast<long>(num_group_cols_));
    auto [it, inserted] = index.try_emplace(key, keys.size());
    if (inserted) {
      // One group = one result row held to the end: the post-spill charge
      // (kill threshold only) is the memory tripwire, matching the parallel
      // aggregate replay's per-task contract — the soft budget already did
      // its job at the exchange.
      if (!ctx->ChargeBufferedRowsPostSpill(1)) return;
      ++charged_;
      keys.push_back(std::move(key));
      states.emplace_back(aggregates_.size());
    }
    MergeRow(row, &states[it->second]);
  }
  if (!ctx->ok()) return;
  results_.reserve(keys.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    Row result;
    result.reserve(schema_.num_fields());
    result.insert(result.end(), keys[g].begin(), keys[g].end());
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      result.push_back(FinalValue(aggregates_[i].func, states[g][i]));
    }
    results_.push_back(std::move(result));
  }
  std::sort(results_.begin(), results_.end(),
            [this](const Row& a, const Row& b) {
              return GroupKeyLess(a, b, num_group_cols_);
            });
  built_ = true;
}

bool FinalAggregate::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok()) return false;
  if (!built_) {
    Build(ctx);
    if (!ctx->ok()) return false;
  }
  if (cursor_ >= results_.size()) {
    finished_ = true;
    return false;
  }
  *out = results_[cursor_++];
  Emit(ctx);
  return true;
}

void FinalAggregate::DoClose(ExecContext* ctx) {
  child_->Close(ctx);
  results_.clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
}

std::string FinalAggregate::label() const {
  std::vector<std::string> parts;
  for (const AggregateDesc& agg : aggregates_) {
    parts.push_back(AggFuncToString(agg.func));
  }
  return StringPrintf("FinalAggregate(%zu keys; %s)", num_group_cols_,
                      JoinStrings(parts, ",").c_str());
}

void FinalAggregate::FillProgressState(const ExecContext& ctx,
                                       ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  state->build_done = built_;
  state->groups_so_far = results_.size();
}

}  // namespace qprog
