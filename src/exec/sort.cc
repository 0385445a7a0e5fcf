#include "exec/sort.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/fault_injector.h"

namespace qprog {

Sort::Sort(OperatorPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {
  QPROG_CHECK(child_ != nullptr);
  QPROG_CHECK(!keys_.empty());
}

void Sort::DoOpen(ExecContext* ctx) {
  finished_ = false;
  materialized_ = false;
  rows_.clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  cursor_ = 0;
  runs_.clear();
  merge_.clear();
  merging_ = false;
  spilled_rows_ = 0;
  if (ctx->ConsultFault(faults::kSortOpen, node_id())) return;
  child_->Open(ctx);
}

Row Sort::MakeKey(const Row& row) const {
  Row key;
  key.reserve(keys_.size());
  for (const SortKey& k : keys_) key.push_back(k.expr->Eval(row));
  return key;
}

bool Sort::KeyLess(const Row& a, const Row& b) const {
  for (size_t k = 0; k < keys_.size(); ++k) {
    const Value& va = a[k];
    const Value& vb = b[k];
    int cmp;
    if (va.is_null() || vb.is_null()) {
      // NULLs order lowest.
      cmp = (va.is_null() ? 0 : 1) - (vb.is_null() ? 0 : 1);
    } else {
      cmp = va.Compare(vb);
    }
    if (cmp != 0) return keys_[k].descending ? cmp > 0 : cmp < 0;
  }
  return false;
}

void Sort::SortRows(std::vector<Row>* rows) const {
  // Precompute the key tuple per row, then sort indices.
  std::vector<Row> key_rows(rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    key_rows[i] = MakeKey((*rows)[i]);
  }
  std::vector<size_t> order(rows->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return KeyLess(key_rows[a], key_rows[b]);
  });
  std::vector<Row> sorted;
  sorted.reserve(rows->size());
  for (size_t i : order) sorted.push_back(std::move((*rows)[i]));
  *rows = std::move(sorted);
}

void Sort::Materialize(ExecContext* ctx) {
  // Run formation: when the next row would pass the soft budget, the buffer
  // is sorted and written out as one sealed run, and its charge released
  // before the next charge, so every run boundary depends on the data alone.
  // The operator's row counter advances only once a run is sealed, so a
  // checkpoint firing mid-write sees pending rows that undercount (sound: LB
  // stays a lower bound) and Curr/LB/UB stay monotone.
  auto flush_buffer = [&]() -> bool {
    SpillRunPtr run =
        ctx->spill_manager()->CreateRun(ctx, node_id(), "sort.run");
    if (run == nullptr) return false;
    SortRows(&rows_);
    for (const Row& row : rows_) {
      if (!run->Append(ctx, node_id(), row)) return false;
    }
    if (!ctx->ok() || !run->FinishWrite(ctx, node_id())) return false;
    spilled_rows_ += rows_.size();
    runs_.push_back(std::move(run));
    rows_.clear();
    ctx->ReleaseBufferedRows(charged_);
    charged_ = 0;
    return true;
  };

  Row row;
  while (ctx->ok() && child_->Next(ctx, &row)) {
    if (ctx->ConsultFault(faults::kSortBuild, node_id())) return;
    ChargeVerdict verdict = ctx->ChargeBufferedRowsOrSpill(1);
    if (verdict == ChargeVerdict::kFailed) return;
    if (verdict == ChargeVerdict::kSpill) {
      if (!rows_.empty() && !flush_buffer()) return;
      // The buffer is now empty and one row of headroom is this operator's
      // minimum working set. Other operators may legitimately hold the whole
      // soft budget (reloaded partitions answer to the kill threshold only),
      // so this charge does too — starvation must not abort a spilling sort.
      if (!ctx->ChargeBufferedRowsPostSpill(1)) return;
    }
    ++charged_;
    rows_.push_back(std::move(row));
  }
  if (!ctx->ok()) return;  // partial input: do not sort or emit

  if (runs_.empty()) {
    SortRows(&rows_);
    materialized_ = true;
    return;
  }
  // At least one run exists: flush the tail buffer too, so emission is a
  // uniform k-way merge of sorted runs.
  if (!rows_.empty() && !flush_buffer()) return;
  merge_.resize(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (!runs_[i]->OpenRead(ctx, node_id())) return;
    if (!FillSource(ctx, i)) return;
  }
  merging_ = true;
  materialized_ = true;
}

bool Sort::FillSource(ExecContext* ctx, size_t i) {
  MergeSource& src = merge_[i];
  bool had_row = src.valid;
  src.valid = false;
  Row row;
  if (runs_[i]->ReadNext(ctx, node_id(), &row)) {
    src.row = std::move(row);
    src.key = MakeKey(src.row);
    src.valid = true;
    if (!had_row) {
      // The merge holds one buffered row per live run — charged against the
      // kill threshold only; the soft budget already triggered the spill.
      if (!ctx->ChargeBufferedRowsPostSpill(1)) return false;
      ++charged_;
    }
    return true;
  }
  if (had_row && charged_ > 0) {
    ctx->ReleaseBufferedRows(1);
    --charged_;
  }
  return ctx->ok();
}

bool Sort::NextMerged(ExecContext* ctx, Row* out) {
  // Smallest head wins; a strict comparison keeps ties on the earliest run,
  // which preserves input order (runs were flushed in input order and each
  // run is stable-sorted) — the merge stays a stable sort.
  int best = -1;
  for (size_t i = 0; i < merge_.size(); ++i) {
    if (!merge_[i].valid) continue;
    if (best < 0 || KeyLess(merge_[i].key, merge_[static_cast<size_t>(best)].key)) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) {
    finished_ = ctx->ok();
    return false;
  }
  *out = std::move(merge_[static_cast<size_t>(best)].row);
  if (!FillSource(ctx, static_cast<size_t>(best))) return false;
  if (!ctx->ok()) return false;
  Emit(ctx);
  return true;
}

bool Sort::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok()) return false;
  if (!materialized_) {
    Materialize(ctx);
    if (!ctx->ok()) return false;
  }
  if (merging_) return NextMerged(ctx, out);
  if (cursor_ >= rows_.size()) {
    finished_ = true;
    return false;
  }
  *out = rows_[cursor_++];
  Emit(ctx);
  return true;
}

void Sort::DoClose(ExecContext* ctx) {
  child_->Close(ctx);
  rows_.clear();
  merge_.clear();
  runs_.clear();  // deletes any remaining spill temp files
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
}

std::string Sort::label() const {
  std::vector<std::string> parts;
  parts.reserve(keys_.size());
  for (const SortKey& k : keys_) {
    parts.push_back(k.expr->ToString() + (k.descending ? " DESC" : ""));
  }
  return StringPrintf("Sort(%s)", JoinStrings(parts, ", ").c_str());
}

std::vector<size_t> Sort::PruneColumns(const std::vector<bool>& needed) {
  // Sorts, spills and emits its input rows, so they carry the key columns.
  std::vector<Expr*> exprs;
  for (const SortKey& k : keys_) exprs.push_back(k.expr.get());
  return PruneInput(child_.get(), needed, exprs);
}

void Sort::FillProgressState(const ExecContext& ctx,
                             ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  state->build_done = materialized_;
  state->build_rows = merging_ ? spilled_rows_ : rows_.size();
  state->SetSpillPending(spilled_rows_);
}

}  // namespace qprog
