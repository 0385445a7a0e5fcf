#include "exec/join.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/fault_injector.h"

namespace qprog {

namespace {

// Grace sides: the build input sizes every leaf, so it goes first.
constexpr size_t kBuildSide = 0;
constexpr size_t kProbeSide = 1;

/// Inner and left-outer joins emit left ++ right; semi and anti joins emit
/// the left row alone.
bool EmitsRight(JoinType type) {
  return type == JoinType::kInner || type == JoinType::kLeftOuter;
}

Schema JoinOutputSchema(const Schema& left, const Schema& right,
                        JoinType type) {
  if (!EmitsRight(type)) return left;
  return Schema::Concat(left, right);
}

/// Column pruning for every join: splits `needed` (one flag per output
/// column) across the two inputs, adds the columns each side's expressions
/// and the residual (over left ++ right) read, narrows both inputs and
/// remaps those expressions. Returns the join's column map.
std::vector<size_t> PruneJoinInputs(PhysicalOperator* left,
                                    PhysicalOperator* right, JoinType type,
                                    const std::vector<Expr*>& left_exprs,
                                    const std::vector<Expr*>& right_exprs,
                                    Expr* residual,
                                    const std::vector<bool>& needed) {
  const size_t left_width = left->output_schema().num_fields();
  std::vector<bool> both(left_width + right->output_schema().num_fields());
  std::copy(needed.begin(), needed.end(), both.begin());
  if (residual != nullptr) MarkReferencedColumns(*residual, &both);
  const auto split = both.begin() + static_cast<ptrdiff_t>(left_width);
  std::vector<size_t> map = PruneInput(
      left, std::vector<bool>(both.begin(), split), left_exprs);
  const std::vector<size_t> right_map = PruneInput(
      right, std::vector<bool>(split, both.end()), right_exprs);
  const size_t narrowed_left = left->output_schema().num_fields();
  for (size_t c : right_map) {
    map.push_back(c == kDroppedColumn ? c : narrowed_left + c);
  }
  if (residual != nullptr) RemapColumns(residual, map);
  if (!EmitsRight(type)) map.resize(left_width);
  return map;
}

}  // namespace

const char* JoinTypeToString(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeftOuter:
      return "left-outer";
    case JoinType::kLeftSemi:
      return "left-semi";
    case JoinType::kLeftAnti:
      return "left-anti";
  }
  return "?";
}

// --------------------------------------------------------------------------
// JoinMatcher

bool JoinMatcher::Offer(std::span<const Value> right, Row* out) {
  joined_.assign(left_.begin(), left_.end());
  joined_.insert(joined_.end(), right.begin(), right.end());
  if (residual_ != nullptr) {
    Value v = residual_->Eval(joined_);
    if (v.is_null() || !v.bool_value()) return false;
  }
  matched_ = true;
  switch (type_) {
    case JoinType::kInner:
    case JoinType::kLeftOuter:
      out->swap(joined_);
      return true;
    case JoinType::kLeftSemi:
      done_ = true;  // one output per preserved row
      *out = left_;
      return true;
    case JoinType::kLeftAnti:
      done_ = true;  // a match disqualifies the preserved row
      return false;
  }
  return false;
}

bool JoinMatcher::Finish(Row* out) {
  if (matched_ || type_ == JoinType::kInner || type_ == JoinType::kLeftSemi) {
    return false;
  }
  out->assign(left_.begin(), left_.end());
  if (type_ == JoinType::kLeftOuter) out->resize(left_.size() + right_arity_);
  return true;
}

// --------------------------------------------------------------------------
// JoinTable

JoinTable::RowId JoinTable::AppendRow(std::span<const Value> row) {
  QPROG_DCHECK(row.size() == row_width_);
  if (chunks_used_ == 0 || chunk_fill_ == chunks_[chunks_used_ - 1].rows) {
    if (chunks_used_ == chunks_.size()) {
      // Double from kFirstChunkCells up to kChunkCells (the shift is capped
      // only to stay defined); at least one row.
      const size_t doublings = std::min<size_t>(chunks_.size(), 16);
      const size_t cells =
          std::min(kChunkCells, kFirstChunkCells << doublings);
      Chunk chunk;
      chunk.rows =
          std::max<size_t>(1, cells / std::max<size_t>(row_width_, 1));
      chunk.cells = std::make_unique<Value[]>(chunk.rows * row_width_);
      chunk.next = std::make_unique<RowId[]>(chunk.rows);
      QPROG_CHECK(chunks_.size() < (size_t{1} << 32));
      chunks_.push_back(std::move(chunk));
    }
    ++chunks_used_;
    chunk_fill_ = 0;
  }
  Chunk& chunk = chunks_[chunks_used_ - 1];
  std::copy(row.begin(), row.end(),
            chunk.cells.get() + chunk_fill_ * row_width_);
  chunk.next[chunk_fill_] = kNoRow;
  return (static_cast<RowId>(chunks_used_ - 1) << 32) | chunk_fill_++;
}

uint64_t JoinTable::Insert(const Row& key, std::span<const Value> row) {
  const RowId id = AppendRow(row);
  const size_t k = keys_.Insert(key);
  if (k == chains_.size()) {
    chains_.push_back(Chain{id, id, 1});
    return 1;
  }
  Chain& chain = chains_[k];
  chunks_[chain.tail >> 32].next[chain.tail & 0xFFFFFFFFu] = id;
  chain.tail = id;
  return ++chain.rows;
}

JoinTable::RowId JoinTable::Find(const Row& key) const {
  const size_t k = keys_.Find(key);
  return k == KeyDirectory::kNotFound ? kNoRow : chains_[k].head;
}

void JoinTable::Clear() {
  chunks_used_ = 0;
  chunk_fill_ = 0;
  keys_.Clear();
  chains_.clear();
}

void JoinTable::Release() {
  Clear();
  chunks_ = std::vector<Chunk>();
  keys_.Release();
  chains_ = std::vector<Chain>();
}

// --------------------------------------------------------------------------
// NestedLoopsJoin

NestedLoopsJoin::NestedLoopsJoin(OperatorPtr outer, OperatorPtr inner,
                                 ExprPtr predicate, JoinType join_type)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      predicate_(std::move(predicate)),
      schema_(JoinOutputSchema(outer_->output_schema(), inner_->output_schema(),
                               join_type)),
      match_(join_type, predicate_.get(),
             inner_->output_schema().num_fields()) {}

void NestedLoopsJoin::DoOpen(ExecContext* ctx) {
  finished_ = false;
  outer_valid_ = false;
  outer_->Open(ctx);
}

bool NestedLoopsJoin::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() ||
      ctx->ConsultFault(faults::kNestedLoopsJoinNext, node_id())) {
    return false;
  }
  for (;;) {
    if (!ctx->ok()) return false;
    if (!outer_valid_) {
      if (!outer_->Next(ctx, match_.row())) {
        if (ctx->ok()) finished_ = true;
        return false;
      }
      outer_valid_ = true;
      match_.Start();
      inner_->Open(ctx);  // rescan the inner input
    }
    // done() first: every inner Next is counted work.
    while (!match_.done() && inner_->Next(ctx, &inner_row_)) {
      if (match_.Offer(inner_row_, out)) {
        Emit(ctx);
        return true;
      }
    }
    if (!ctx->ok()) return false;  // inner stopped on error, not exhaustion
    outer_valid_ = false;
    if (match_.Finish(out)) {
      Emit(ctx);
      return true;
    }
  }
}

void NestedLoopsJoin::DoClose(ExecContext* ctx) {
  outer_->Close(ctx);
  inner_->Close(ctx);
}

std::vector<size_t> NestedLoopsJoin::PruneColumns(
    const std::vector<bool>& needed) {
  std::vector<size_t> map = PruneJoinInputs(
      outer_.get(), inner_.get(), join_type(), {}, {}, predicate_.get(),
      needed);
  schema_ = JoinOutputSchema(outer_->output_schema(), inner_->output_schema(),
                             join_type());
  match_ = JoinMatcher(join_type(), predicate_.get(),
                       inner_->output_schema().num_fields());
  return map;
}

std::string NestedLoopsJoin::label() const {
  return StringPrintf("NestedLoopsJoin(%s%s)", JoinTypeToString(join_type()),
                      predicate_ != nullptr
                          ? (", " + predicate_->ToString()).c_str()
                          : "");
}

// --------------------------------------------------------------------------
// IndexNestedLoopsJoin

IndexNestedLoopsJoin::IndexNestedLoopsJoin(OperatorPtr outer,
                                           std::unique_ptr<IndexSeek> inner,
                                           ExprPtr outer_key,
                                           JoinType join_type, ExprPtr residual)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_key_(std::move(outer_key)),
      residual_(std::move(residual)),
      schema_(JoinOutputSchema(outer_->output_schema(), inner_->output_schema(),
                               join_type)),
      match_(join_type, residual_.get(),
             inner_->output_schema().num_fields()) {}

void IndexNestedLoopsJoin::DoOpen(ExecContext* ctx) {
  finished_ = false;
  outer_valid_ = false;
  outer_->Open(ctx);
  inner_->Open(ctx);
}

bool IndexNestedLoopsJoin::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() ||
      ctx->ConsultFault(faults::kIndexNestedLoopsJoinNext, node_id())) {
    return false;
  }
  for (;;) {
    if (!ctx->ok()) return false;
    if (!outer_valid_) {
      if (!outer_->Next(ctx, match_.row())) {
        if (ctx->ok()) finished_ = true;
        return false;
      }
      outer_valid_ = true;
      match_.Start();
      inner_->Rebind(outer_key_->Eval(*match_.row()));
    }
    // done() first: every IndexSeek Next is counted work.
    while (!match_.done() && inner_->Next(ctx, &inner_row_)) {
      if (match_.Offer(inner_row_, out)) {
        Emit(ctx);
        return true;
      }
    }
    if (!ctx->ok()) return false;
    outer_valid_ = false;
    if (match_.Finish(out)) {
      Emit(ctx);
      return true;
    }
  }
}

void IndexNestedLoopsJoin::DoClose(ExecContext* ctx) {
  outer_->Close(ctx);
  inner_->Close(ctx);
}

std::vector<size_t> IndexNestedLoopsJoin::PruneColumns(
    const std::vector<bool>& needed) {
  // The seek key is the index's own column, so the inner side is asked
  // only for what the output and the residual read.
  std::vector<size_t> map =
      PruneJoinInputs(outer_.get(), inner_.get(), join_type(),
                      {outer_key_.get()}, {}, residual_.get(), needed);
  schema_ = JoinOutputSchema(outer_->output_schema(), inner_->output_schema(),
                             join_type());
  match_ = JoinMatcher(join_type(), residual_.get(),
                       inner_->output_schema().num_fields());
  return map;
}

std::string IndexNestedLoopsJoin::label() const {
  return StringPrintf("IndexNestedLoopsJoin(%s, key=%s)",
                      JoinTypeToString(join_type()),
                      outer_key_->ToString().c_str());
}

// --------------------------------------------------------------------------
// HashJoin

HashJoin::HashJoin(OperatorPtr probe, OperatorPtr build,
                   std::vector<ExprPtr> probe_keys,
                   std::vector<ExprPtr> build_keys, JoinType join_type,
                   ExprPtr residual)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      residual_(std::move(residual)),
      schema_(JoinOutputSchema(probe_->output_schema(), build_->output_schema(),
                               join_type)),
      table_(build_keys_.size(), build_->output_schema().num_fields()),
      match_(join_type, residual_.get(),
             build_->output_schema().num_fields()),
      grace_({{&build_keys_, "hashjoin.build"},
              {&probe_keys_, "hashjoin.probe"}},
             OversizedLeaf::kAbort) {
  QPROG_CHECK(probe_keys_.size() == build_keys_.size());
  QPROG_CHECK(!probe_keys_.empty());
}

void HashJoin::DoOpen(ExecContext* ctx) {
  finished_ = false;
  build_done_ = false;
  table_.Release();
  build_rows_ = 0;
  max_bucket_ = 0;
  probe_valid_ = false;
  bucket_ = JoinTable::kNoRow;
  ReleaseCharge(ctx);
  spilled_ = false;
  probe_partitioned_ = false;
  grace_.Reset();
  part_idx_ = 0;
  part_loaded_ = false;
  if (ctx->ConsultFault(faults::kHashJoinOpen, node_id())) return;
  build_->Open(ctx);
  probe_->Open(ctx);
}

JoinTable::RowId HashJoin::BucketOf(const JoinTable& table,
                                    const Row& probe_row, Row* key) const {
  EvalKey(probe_keys_, probe_row, key);
  if (HasNull(*key)) return JoinTable::kNoRow;
  return table.Find(*key);
}

bool HashJoin::SpillBuildTable(ExecContext* ctx) {
  // Key by key in first-insertion order, each key's rows in their chain
  // order: a leaf rebuilt from these runs chains every key's rows exactly
  // as the in-memory table did.
  Row key, row;
  if (!table_.ForEach(
          [&](std::span<const Value> table_key, std::span<const Value> cells) {
            key.assign(table_key.begin(), table_key.end());
            row.assign(cells.begin(), cells.end());
            return grace_.Append(ctx, node_id(), kBuildSide, key, row);
          })) {
    return false;
  }
  table_.Clear();
  ReleaseCharge(ctx);
  max_bucket_ = 0;  // re-learned per leaf during the probe phase
  spilled_ = true;
  return true;
}

void HashJoin::BuildTable(ExecContext* ctx) {
  Row row;
  while (ctx->ok() && build_->Next(ctx, &row)) {
    if (ctx->ConsultFault(faults::kHashJoinBuild, node_id())) return;
    EvalKey(build_keys_, row, &key_);
    if (HasNull(key_)) continue;  // NULL keys never match
    if (spilled_) {
      // Already in Grace mode: route straight to a partition run.
      if (!grace_.Append(ctx, node_id(), kBuildSide, key_, row)) return;
      ++build_rows_;
      continue;
    }
    ChargeVerdict verdict = ctx->ChargeBufferedRowsOrSpill(1);
    if (verdict == ChargeVerdict::kFailed) return;
    if (verdict == ChargeVerdict::kSpill) {
      if (!SpillBuildTable(ctx)) return;
      if (!grace_.Append(ctx, node_id(), kBuildSide, key_, row)) return;
      ++build_rows_;
      continue;
    }
    max_bucket_ = std::max(max_bucket_, table_.Insert(key_, row));
    ++build_rows_;
    ++charged_;
  }
  if (!ctx->ok()) return;  // partial build: not usable for probing
  build_done_ = true;
}

void HashJoin::PartitionProbe(ExecContext* ctx) {
  // Create every probe run up front: a zero-row probe input must still leave
  // probe partitions matching the build partitions, or refinement would
  // index an empty vector.
  if (!grace_.EnsurePartitions(ctx, node_id(), kProbeSide)) return;
  // Route every probe row — including NULL-key rows — through the runs so
  // outer/anti joins still see (and preserve) the unmatched rows when the
  // partition is replayed.
  Row row;
  while (ctx->ok() && probe_->Next(ctx, &row)) {
    EvalKey(probe_keys_, row, &key_);
    if (!grace_.Append(ctx, node_id(), kProbeSide, key_, row)) return;
  }
  if (!ctx->ok()) return;
  probe_partitioned_ = true;
}

bool HashJoin::BuildLeafTable(ExecContext* ctx, SpillRun* build_run) {
  if (!build_run->OpenRead(ctx, node_id())) return false;
  Row row;
  while (build_run->ReadNext(ctx, node_id(), &row)) {
    EvalKey(build_keys_, row, &key_);
    QPROG_DCHECK(!HasNull(key_));  // NULL build keys were never spilled
    // A reloaded leaf answers to the kill threshold only: the soft budget
    // already traded memory for these extra I/O passes.
    if (!ctx->ChargeLeafRows(1)) return false;
    ++charged_;
    max_bucket_ = std::max(max_bucket_, table_.Insert(key_, row));
  }
  return ctx->ok();
}

bool HashJoin::LoadPartition(ExecContext* ctx) {
  GraceLeaf& leaf = grace_.leaves()[static_cast<size_t>(part_idx_)];
  if (!BuildLeafTable(ctx, leaf.runs[kBuildSide].get())) return false;
  if (!leaf.runs[kProbeSide]->OpenRead(ctx, node_id())) return false;
  part_loaded_ = true;
  return true;
}

void HashJoin::UnloadPartition(ExecContext* ctx) {
  table_.Clear();  // keeps the chunks for the next leaf
  ReleaseCharge(ctx);
  grace_.leaves()[static_cast<size_t>(part_idx_)].runs.clear();  // delete files
  ++part_idx_;
  part_loaded_ = false;
}

bool HashJoin::PullProbe(ExecContext* ctx, Row* row) {
  if (!spilled_) return probe_->Next(ctx, row);
  return grace_.leaves()[static_cast<size_t>(part_idx_)]
      .runs[kProbeSide]
      ->ReadNext(ctx, node_id(), row);
}

void HashJoin::ReleaseCharge(ExecContext* ctx) {
  if (spilled_) {
    ctx->ReleaseLeafRows(charged_);
  } else {
    ctx->ReleaseBufferedRows(charged_);
  }
  charged_ = 0;
}

bool HashJoin::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kHashJoinProbe, node_id())) {
    return false;
  }
  if (!build_done_) {
    BuildTable(ctx);
    if (!ctx->ok()) return false;
  }
  if (spilled_ && !probe_partitioned_) {
    PartitionProbe(ctx);
    if (!ctx->ok()) return false;
    // Both sides written: seal and flatten the partition tree, re-splitting
    // any build partition the kill threshold could never admit.
    if (!grace_.Refine(ctx, node_id())) return false;
  }
  for (;;) {
    if (!ctx->ok()) return false;
    if (spilled_ && !part_loaded_) {
      if (part_idx_ >= static_cast<int>(grace_.leaves().size())) {
        finished_ = true;
        return false;
      }
      if (!LoadPartition(ctx)) return false;
    }
    if (!probe_valid_) {
      if (!PullProbe(ctx, match_.row())) {
        if (!ctx->ok()) return false;
        if (spilled_) {
          UnloadPartition(ctx);  // move on to the next partition
          continue;
        }
        finished_ = true;
        return false;
      }
      probe_valid_ = true;
      match_.Start();
      bucket_ = BucketOf(table_, *match_.row(), &key_);
    }
    while (!match_.done() && bucket_ != JoinTable::kNoRow) {
      std::span<const Value> build_row = table_.row(bucket_);
      bucket_ = table_.next(bucket_);
      if (match_.Offer(build_row, out)) {
        Emit(ctx);
        return true;
      }
    }
    probe_valid_ = false;
    if (match_.Finish(out)) {
      Emit(ctx);
      return true;
    }
  }
}

void HashJoin::DoClose(ExecContext* ctx) {
  probe_->Close(ctx);
  build_->Close(ctx);
  table_.Release();
  grace_.DropRuns();  // deletes any remaining spill temp files
  ReleaseCharge(ctx);
}

std::vector<size_t> HashJoin::PruneColumns(const std::vector<bool>& needed) {
  std::vector<Expr*> probe_exprs, build_exprs;
  for (const ExprPtr& e : probe_keys_) probe_exprs.push_back(e.get());
  for (const ExprPtr& e : build_keys_) build_exprs.push_back(e.get());
  std::vector<size_t> map =
      PruneJoinInputs(probe_.get(), build_.get(), join_type(), probe_exprs,
                      build_exprs, residual_.get(), needed);
  const size_t build_width = build_->output_schema().num_fields();
  schema_ = JoinOutputSchema(probe_->output_schema(), build_->output_schema(),
                             join_type());
  table_ = JoinTable(build_keys_.size(), build_width);
  match_ = JoinMatcher(join_type(), residual_.get(), build_width);
  return map;
}

std::string HashJoin::label() const {
  return StringPrintf("HashJoin(%s%s)", JoinTypeToString(join_type()),
                      is_linear() ? ", linear" : "");
}

void HashJoin::FillProgressState(const ExecContext& ctx,
                                 ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  // In Grace mode the build facts the bounds walker relies on (largest
  // bucket, full table) are no longer global, so stay on the conservative
  // !build_done path until every partition has been replayed.
  state->build_done = build_done_ && !spilled_;
  state->build_rows = build_rows_;
  state->max_multiplicity = max_bucket_;
  state->SetSpillPending(grace_.rows_written());
}

// --------------------------------------------------------------------------
// MergeJoin

MergeJoin::MergeJoin(OperatorPtr left, OperatorPtr right,
                     std::vector<ExprPtr> left_keys,
                     std::vector<ExprPtr> right_keys)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      schema_(Schema::Concat(left_->output_schema(), right_->output_schema())) {
  QPROG_CHECK(left_keys_.size() == right_keys_.size());
  QPROG_CHECK(!left_keys_.empty());
}

int MergeJoin::CompareKeys(const Row& a, const Row& b) {
  QPROG_DCHECK(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return 0;
}

bool MergeJoin::PullLeft(ExecContext* ctx) {
  for (;;) {
    if (!left_->Next(ctx, &left_row_)) {
      left_valid_ = false;
      return false;
    }
    EvalKey(left_keys_, left_row_, &left_key_);
    if (!HasNull(left_key_)) {
      left_valid_ = true;
      return true;
    }
  }
}

bool MergeJoin::PullRight(ExecContext* ctx) {
  for (;;) {
    if (!right_->Next(ctx, &right_row_)) {
      right_valid_ = false;
      return false;
    }
    EvalKey(right_keys_, right_row_, &right_key_);
    if (!HasNull(right_key_)) {
      right_valid_ = true;
      return true;
    }
  }
}

void MergeJoin::DoOpen(ExecContext* ctx) {
  finished_ = false;
  left_valid_ = right_valid_ = false;
  group_.clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  group_active_ = false;
  group_pos_ = 0;
  left_->Open(ctx);
  right_->Open(ctx);
  PullLeft(ctx);
  PullRight(ctx);
}

bool MergeJoin::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kMergeJoinNext, node_id())) {
    return false;
  }
  for (;;) {
    if (!ctx->ok()) return false;
    if (group_active_) {
      if (group_pos_ < group_.size()) {
        const Row& right = group_[group_pos_++];
        out->assign(left_row_.begin(), left_row_.end());
        out->insert(out->end(), right.begin(), right.end());
        Emit(ctx);
        return true;
      }
      // Current left row exhausted this group; advance left.
      if (!PullLeft(ctx)) {
        if (ctx->ok()) finished_ = true;
        return false;
      }
      if (CompareKeys(left_key_, group_key_) == 0) {
        group_pos_ = 0;  // replay the buffered group
        continue;
      }
      group_active_ = false;
    }
    if (!left_valid_ || !right_valid_) {
      finished_ = true;
      return false;
    }
    int cmp = CompareKeys(left_key_, right_key_);
    if (cmp < 0) {
      if (!PullLeft(ctx)) {
        if (ctx->ok()) finished_ = true;
        return false;
      }
    } else if (cmp > 0) {
      if (!PullRight(ctx)) {
        if (ctx->ok()) finished_ = true;
        return false;
      }
    } else {
      // Collect the full right group with this key. The buffer is bounded by
      // the largest duplicate-key group; charge it against the budget.
      group_.clear();
      ctx->ReleaseBufferedRows(charged_);
      charged_ = 0;
      group_key_ = right_key_;
      do {
        group_.push_back(right_row_);
        if (!ctx->ChargeBufferedRows(1)) return false;
        ++charged_;
      } while (PullRight(ctx) && CompareKeys(right_key_, group_key_) == 0);
      if (!ctx->ok()) return false;
      group_active_ = true;
      group_pos_ = 0;
    }
  }
}

void MergeJoin::DoClose(ExecContext* ctx) {
  left_->Close(ctx);
  right_->Close(ctx);
  group_.clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
}

std::vector<size_t> MergeJoin::PruneColumns(const std::vector<bool>& needed) {
  std::vector<Expr*> left_exprs, right_exprs;
  for (const ExprPtr& e : left_keys_) left_exprs.push_back(e.get());
  for (const ExprPtr& e : right_keys_) right_exprs.push_back(e.get());
  std::vector<size_t> map =
      PruneJoinInputs(left_.get(), right_.get(), JoinType::kInner, left_exprs,
                      right_exprs, nullptr, needed);
  schema_ = Schema::Concat(left_->output_schema(), right_->output_schema());
  return map;
}

std::string MergeJoin::label() const {
  return StringPrintf("MergeJoin(%zu keys%s)", left_keys_.size(),
                      is_linear() ? ", linear" : "");
}

}  // namespace qprog
