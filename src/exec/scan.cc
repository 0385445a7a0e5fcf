#include "exec/scan.h"

#include "common/strings.h"
#include "exec/fault_injector.h"

namespace qprog {

// --------------------------------------------------------------------------
// SeqScan

SeqScan::SeqScan(const Table* table, ExprPtr predicate)
    : table_(table),
      predicate_(std::move(predicate)),
      begin_(0),
      end_(table->num_rows()) {}

SeqScan::SeqScan(const Table* table, ExprPtr predicate, uint64_t begin,
                 uint64_t end)
    : table_(table), predicate_(std::move(predicate)), begin_(begin),
      end_(end) {
  QPROG_CHECK(begin_ <= end_ && end_ <= table_->num_rows());
}

void SeqScan::DoOpen(ExecContext* ctx) {
  cursor_ = begin_;
  emitted_ = 0;
  finished_ = false;
  ctx->ConsultFault(faults::kSeqScanOpen, node_id());
}

bool SeqScan::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kSeqScanNext, node_id())) {
    return false;
  }
  while (cursor_ < end_) {
    const Row& row = table_->row(cursor_++);
    // Every examined row is one getnext at the leaf, merged predicate or
    // not — the accounting that makes the paper's Table 2 mu >= 1 (each
    // base tuple must be read once; Section 5.2's LB >= sum of leaf
    // cardinalities).
    ctx->CountRow(node_id(), is_root());
    if (!ctx->ok()) return false;  // guard tripped while counting
    if (predicate_ != nullptr) {
      Value keep = predicate_->Eval(row);
      if (keep.is_null() || !keep.bool_value()) continue;
    }
    ++emitted_;
    *out = row;
    return true;
  }
  finished_ = true;
  return false;
}

void SeqScan::DoClose(ExecContext*) {}

std::string SeqScan::label() const {
  std::string range;
  if (partitioned()) {
    range = StringPrintf(", rows=[%llu,%llu)",
                         static_cast<unsigned long long>(begin_),
                         static_cast<unsigned long long>(end_));
  }
  if (predicate_ != nullptr) {
    return StringPrintf("SeqScan(%s, pred=%s%s)", table_->name().c_str(),
                        predicate_->ToString().c_str(), range.c_str());
  }
  return StringPrintf("SeqScan(%s%s)", table_->name().c_str(), range.c_str());
}

void SeqScan::FillProgressState(const ExecContext& ctx,
                                ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  // The node's work counter tallies examined rows; production (what the
  // parent consumes) is the emitted count. A partitioned scan reports
  // partition-relative values so the exchange's sum over producers equals
  // the serial scan's totals.
  state->rows_produced = emitted_;
  state->input_examined = cursor_ - begin_;
  state->base_rows = partition_rows();
  if (predicate_ == nullptr) {
    state->exact_total = static_cast<double>(partition_rows());
  }
}

// --------------------------------------------------------------------------
// IndexSeek

IndexSeek::IndexSeek(const OrderedIndex* index) : index_(index) {}

IndexSeek::IndexSeek(const OrderedIndex* index, Value lo, bool lo_inclusive,
                     bool lo_unbounded, Value hi, bool hi_inclusive,
                     bool hi_unbounded)
    : index_(index),
      range_mode_(true),
      lo_(std::move(lo)),
      lo_inclusive_(lo_inclusive),
      lo_unbounded_(lo_unbounded),
      hi_(std::move(hi)),
      hi_inclusive_(hi_inclusive),
      hi_unbounded_(hi_unbounded) {}

void IndexSeek::Rebind(const Value& key) {
  current_ = index_->EqualRange(key);
  pos_ = 0;
}

void IndexSeek::DoOpen(ExecContext*) {
  finished_ = false;
  opened_ = true;
  if (range_mode_) {
    current_ = index_->Range(lo_, lo_inclusive_, lo_unbounded_, hi_,
                             hi_inclusive_, hi_unbounded_);
  } else {
    current_ = {};
  }
  pos_ = 0;
}

bool IndexSeek::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kIndexSeekNext, node_id())) {
    return false;
  }
  if (pos_ >= current_.size()) {
    if (range_mode_) finished_ = true;
    return false;
  }
  uint64_t row_id = current_.begin[pos_++];
  *out = index_->table()->row(row_id);
  Emit(ctx);
  return true;
}

void IndexSeek::DoClose(ExecContext*) {}

std::string IndexSeek::label() const {
  return StringPrintf("IndexSeek(%s.%s%s)", index_->table()->name().c_str(),
                      index_->table()
                          ->schema()
                          .field(index_->column())
                          .name.c_str(),
                      range_mode_ ? ", range" : "");
}

void IndexSeek::FillProgressState(const ExecContext& ctx,
                                  ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  state->base_rows = index_->num_entries();
  state->max_per_probe = index_->max_key_multiplicity();
  if (range_mode_ && opened_) {
    // A static range seek's total production is the size of the range,
    // known exactly once Open has positioned the cursor.
    state->exact_total = static_cast<double>(current_.size());
  }
}

}  // namespace qprog
