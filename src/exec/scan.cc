#include "exec/scan.h"

#include <algorithm>

#include "common/strings.h"
#include "exec/fault_injector.h"

namespace qprog {

namespace {

/// Keeps the entries of `*columns` (a leaf's table column per output
/// position) that `needed` flags; returns each old position's new one.
std::vector<size_t> KeepNeeded(const std::vector<bool>& needed,
                               std::vector<size_t>* columns) {
  std::vector<size_t> map(columns->size(), kDroppedColumn);
  std::vector<size_t> kept;
  for (size_t j = 0; j < columns->size(); ++j) {
    if (!needed[j]) continue;
    map[j] = kept.size();
    kept.push_back((*columns)[j]);
  }
  *columns = std::move(kept);
  return map;
}

}  // namespace

// --------------------------------------------------------------------------
// SeqScan

SeqScan::SeqScan(const Table* table, ExprPtr predicate)
    : table_(table),
      predicate_(std::move(predicate)),
      columns_(IdentityColumnMap(table_->schema().num_fields())) {
  if (predicate_ != nullptr) {
    predicate_columns_ = ReferencedColumns(*predicate_);
    predicate_row_.resize(table_->schema().num_fields());
  }
  PlanColumns();
}

void SeqScan::PlanColumns() {
  schema_ = table_->schema().Select(columns_);
  copied_.clear();
  read_.clear();
  for (size_t j = 0; j < columns_.size(); ++j) {
    const bool by_predicate = std::binary_search(
        predicate_columns_.begin(), predicate_columns_.end(), columns_[j]);
    (by_predicate ? copied_ : read_).push_back(j);
  }
}

std::vector<size_t> SeqScan::PruneColumns(const std::vector<bool>& needed) {
  std::vector<size_t> map = KeepNeeded(needed, &columns_);
  PlanColumns();
  return map;
}

void SeqScan::DoOpen(ExecContext* ctx) {
  cursor_ = 0;
  emitted_ = 0;
  finished_ = false;
  ctx->ConsultFault(faults::kSeqScanOpen, node_id());
}

bool SeqScan::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kSeqScanNext, node_id())) {
    return false;
  }
  scratch_.resize(columns_.size());
  while (cursor_ < table_->num_rows()) {
    const uint64_t row = cursor_++;
    // Every examined row is one getnext at the leaf, merged predicate or
    // not — the accounting that makes the paper's Table 2 mu >= 1 (each
    // base tuple must be read once; Section 5.2's LB >= sum of leaf
    // cardinalities).
    ctx->CountRow(node_id(), is_root());
    if (!ctx->ok()) return false;  // guard tripped while counting
    if (predicate_ != nullptr) {
      table_->ReadColumns(row, predicate_columns_, &predicate_row_);
      Value keep = predicate_->Eval(predicate_row_);
      if (keep.is_null() || !keep.bool_value()) continue;
      for (size_t j : copied_) scratch_[j] = predicate_row_[columns_[j]];
    }
    for (size_t j : read_) scratch_[j] = table_->at(row, columns_[j]);
    ++emitted_;
    // The caller's buffer becomes the next scratch row, so neither side
    // reallocates once both are warm, and `out` is untouched on false.
    out->swap(scratch_);
    return true;
  }
  finished_ = true;
  return false;
}

void SeqScan::DoClose(ExecContext*) {}

std::string SeqScan::label() const {
  if (predicate_ != nullptr) {
    return StringPrintf("SeqScan(%s, pred=%s)", table_->name().c_str(),
                        predicate_->ToString().c_str());
  }
  return StringPrintf("SeqScan(%s)", table_->name().c_str());
}

void SeqScan::FillProgressState(const ExecContext& ctx,
                                ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  // The node's work counter tallies examined rows; production (what the
  // parent consumes) is the emitted count.
  state->rows_produced = emitted_;
  state->input_examined = cursor_;
  state->base_rows = table_->num_rows();
  if (predicate_ == nullptr) {
    state->exact_total = static_cast<double>(table_->num_rows());
  }
}

// --------------------------------------------------------------------------
// IndexSeek

IndexSeek::IndexSeek(const OrderedIndex* index)
    : index_(index),
      columns_(IdentityColumnMap(index_->table()->schema().num_fields())),
      schema_(index_->table()->schema()) {}

IndexSeek::IndexSeek(const OrderedIndex* index, Value lo, bool lo_inclusive,
                     bool lo_unbounded, Value hi, bool hi_inclusive,
                     bool hi_unbounded)
    : index_(index),
      columns_(IdentityColumnMap(index_->table()->schema().num_fields())),
      schema_(index_->table()->schema()),
      range_mode_(true),
      lo_(bounds_.Own(lo)),
      lo_inclusive_(lo_inclusive),
      lo_unbounded_(lo_unbounded),
      hi_(bounds_.Own(hi)),
      hi_inclusive_(hi_inclusive),
      hi_unbounded_(hi_unbounded) {}

std::vector<size_t> IndexSeek::PruneColumns(const std::vector<bool>& needed) {
  std::vector<size_t> map = KeepNeeded(needed, &columns_);
  schema_ = index_->table()->schema().Select(columns_);
  return map;
}

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
  const uint64_t row_id = current_.begin[pos_++];
  out->resize(columns_.size());
  for (size_t j = 0; j < columns_.size(); ++j) {
    (*out)[j] = index_->table()->at(row_id, columns_[j]);
  }
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
