#include "exec/join.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/fault_injector.h"
#include "exec/query_guard.h"
#include "exec/worker_pool.h"

namespace qprog {

namespace {

// Task-key layout for the parallel Grace join (DESIGN.md §10): partition
// write batches are keyed by phase (bit 55: 0 = build, 1 = probe), partition
// index, and a per-partition batch sequence number; partition joins by the
// leaf's recursion depth (bits 48..55) and partition path (3 bits per level,
// level 0 lowest). All data identity, never pool size — the same leaf gets
// the same forked fault schedule whether it came from a depth-0 pass or a
// depth-3 re-split.
constexpr uint64_t kJoinWriteTaskTag = 0x52ULL << 56;
constexpr uint64_t kJoinProbePhaseBit = 1ULL << 55;
constexpr uint64_t kJoinPartitionTaskTag = 0x53ULL << 56;

uint64_t JoinLeafTaskKey(int depth, uint64_t path) {
  return kJoinPartitionTaskTag | (static_cast<uint64_t>(depth) << 48) | path;
}

// Rows buffered per partition before a write batch is handed to a worker,
// and batches in flight before the query thread folds their op-logs. Both
// bound the uncharged write-side overcommit (see DESIGN.md §10).
constexpr size_t kBatchRows = 256;
constexpr size_t kMaxInflightBatches = 16;

// Depth-salted Grace partition routing (exec/spill.h), bound to this join's
// fanout. Level 0 uses the raw row hash (the single-level routing of PR 3);
// deeper levels remix so colliding rows spread — unless they literally share
// a hash (single-key skew), which RefineOne detects as an ineffective split.
size_t JoinPartitionIndex(size_t hash, int level) {
  return GracePartitionIndex(hash, level, HashJoin::kSpillFanout);
}

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Row NullRow(size_t arity) { return Row(arity); }

Schema JoinOutputSchema(const Schema& left, const Schema& right,
                        JoinType type) {
  if (type == JoinType::kLeftSemi || type == JoinType::kLeftAnti) return left;
  return Schema::Concat(left, right);
}

bool PredicatePasses(const Expr* predicate, const Row& row) {
  if (predicate == nullptr) return true;
  Value v = predicate->Eval(row);
  return !v.is_null() && v.bool_value();
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
// NestedLoopsJoin

NestedLoopsJoin::NestedLoopsJoin(OperatorPtr outer, OperatorPtr inner,
                                 ExprPtr predicate, JoinType join_type)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      predicate_(std::move(predicate)),
      join_type_(join_type),
      schema_(JoinOutputSchema(outer_->output_schema(), inner_->output_schema(),
                               join_type)) {}

void NestedLoopsJoin::DoOpen(ExecContext* ctx) {
  finished_ = false;
  outer_valid_ = false;
  outer_matched_ = false;
  outer_->Open(ctx);
}

bool NestedLoopsJoin::AdvanceOuter(ExecContext* ctx) {
  if (!outer_->Next(ctx, &outer_row_)) {
    outer_valid_ = false;
    return false;
  }
  outer_valid_ = true;
  outer_matched_ = false;
  inner_->Open(ctx);  // rescan the inner input
  return true;
}

bool NestedLoopsJoin::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() ||
      ctx->ConsultFault(faults::kNestedLoopsJoinNext, node_id())) {
    return false;
  }
  for (;;) {
    if (!ctx->ok()) return false;
    if (!outer_valid_) {
      if (!AdvanceOuter(ctx)) {
        if (ctx->ok()) finished_ = true;
        return false;
      }
    }
    Row inner_row;
    while (inner_->Next(ctx, &inner_row)) {
      Row joined = ConcatRows(outer_row_, inner_row);
      if (!PredicatePasses(predicate_.get(), joined)) continue;
      outer_matched_ = true;
      if (join_type_ == JoinType::kInner || join_type_ == JoinType::kLeftOuter) {
        *out = std::move(joined);
        Emit(ctx);
        return true;
      }
      if (join_type_ == JoinType::kLeftSemi) {
        *out = outer_row_;
        Emit(ctx);
        outer_valid_ = false;  // one output per outer row
        return true;
      }
      break;  // kLeftAnti: a match disqualifies the outer row
    }
    // Inner exhausted for the current outer row (or anti-match found).
    if (!ctx->ok()) return false;  // inner stopped on error, not exhaustion
    if (!outer_matched_) {
      if (join_type_ == JoinType::kLeftOuter) {
        *out = ConcatRows(outer_row_,
                          NullRow(inner_->output_schema().num_fields()));
        outer_valid_ = false;
        Emit(ctx);
        return true;
      }
      if (join_type_ == JoinType::kLeftAnti) {
        *out = outer_row_;
        outer_valid_ = false;
        Emit(ctx);
        return true;
      }
    }
    outer_valid_ = false;
  }
}

void NestedLoopsJoin::DoClose(ExecContext* ctx) {
  outer_->Close(ctx);
  inner_->Close(ctx);
}

std::string NestedLoopsJoin::label() const {
  return StringPrintf("NestedLoopsJoin(%s%s)", JoinTypeToString(join_type_),
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
      join_type_(join_type),
      residual_(std::move(residual)),
      schema_(JoinOutputSchema(outer_->output_schema(), inner_->output_schema(),
                               join_type)) {}

void IndexNestedLoopsJoin::DoOpen(ExecContext* ctx) {
  finished_ = false;
  outer_valid_ = false;
  outer_matched_ = false;
  outer_->Open(ctx);
  inner_->Open(ctx);
}

bool IndexNestedLoopsJoin::AdvanceOuter(ExecContext* ctx) {
  if (!outer_->Next(ctx, &outer_row_)) {
    outer_valid_ = false;
    return false;
  }
  outer_valid_ = true;
  outer_matched_ = false;
  inner_->Rebind(outer_key_->Eval(outer_row_));
  return true;
}

bool IndexNestedLoopsJoin::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() ||
      ctx->ConsultFault(faults::kIndexNestedLoopsJoinNext, node_id())) {
    return false;
  }
  for (;;) {
    if (!ctx->ok()) return false;
    if (!outer_valid_) {
      if (!AdvanceOuter(ctx)) {
        if (ctx->ok()) finished_ = true;
        return false;
      }
    }
    Row inner_row;
    while (inner_->Next(ctx, &inner_row)) {
      Row joined = ConcatRows(outer_row_, inner_row);
      if (!PredicatePasses(residual_.get(), joined)) continue;
      outer_matched_ = true;
      if (join_type_ == JoinType::kInner || join_type_ == JoinType::kLeftOuter) {
        *out = std::move(joined);
        Emit(ctx);
        return true;
      }
      if (join_type_ == JoinType::kLeftSemi) {
        *out = outer_row_;
        Emit(ctx);
        outer_valid_ = false;
        return true;
      }
      break;  // kLeftAnti
    }
    if (!ctx->ok()) return false;
    if (!outer_matched_) {
      if (join_type_ == JoinType::kLeftOuter) {
        *out = ConcatRows(outer_row_,
                          NullRow(inner_->output_schema().num_fields()));
        outer_valid_ = false;
        Emit(ctx);
        return true;
      }
      if (join_type_ == JoinType::kLeftAnti) {
        *out = outer_row_;
        outer_valid_ = false;
        Emit(ctx);
        return true;
      }
    }
    outer_valid_ = false;
  }
}

void IndexNestedLoopsJoin::DoClose(ExecContext* ctx) {
  outer_->Close(ctx);
  inner_->Close(ctx);
}

std::string IndexNestedLoopsJoin::label() const {
  return StringPrintf("IndexNestedLoopsJoin(%s, key=%s)",
                      JoinTypeToString(join_type_),
                      outer_key_->ToString().c_str());
}

// --------------------------------------------------------------------------
// HashJoin

// The concurrent partition joins share an OrderedTaskBudget
// (exec/worker_pool.h): each leaf's need is known exactly before its task
// runs (the sealed build run's row count, plus the fixed in-memory output
// allowance), output past the allowance overflows to disk instead of waiting
// on a consumer, and an oversized leaf is admitted alone and then trips the
// task's kill tripwire exactly where the serial replay would.

// Pool-backed Grace partition writes. Rows buffer per partition on the query
// thread; every kBatchRows a batch task appends them to the partition's run
// on a worker, submitted into that partition's lane so a run's appends stay
// in input order without a lock. Every kMaxInflightBatches the query thread
// barriers and folds batch op-logs in submission order — a data-derived
// cadence, so spill-work checkpoints land identically at every pool size.
// The operator's grace_rows_written_ advances only after a batch's log is
// folded, keeping (Curr, LB, UB) consistent at mid-fold checkpoints.
class HashJoin::PartitionWriter {
 public:
  PartitionWriter(HashJoin* join, ExecContext* ctx, WorkerPool* pool,
                  std::vector<SpillRunPtr>* parts, uint64_t phase_tag)
      : join_(join), ctx_(ctx), parts_(parts), phase_tag_(phase_tag),
        group_(pool) {}

  /// Buffers `row` for `part`, flushing a batch task when full.
  bool Add(size_t part, const Row& row) {
    // A batch task that hit a write error flags it so the operator stops
    // consuming input now, not up to kMaxInflightBatches batches later (a
    // permanent failure like disk-full would otherwise keep collecting rows
    // into doomed batches). The fold surfaces the task's sticky error.
    if (write_failed_.load(std::memory_order_relaxed)) return FoldBatches();
    buf_[part].push_back(row);
    if (buf_[part].size() >= kBatchRows) return FlushPartition(part);
    return ctx_->ok();
  }

  /// Flushes every residual buffer (partition order), barriers, folds.
  bool Finish() {
    for (size_t p = 0; p < buf_.size(); ++p) {
      if (!buf_[p].empty() && !FlushPartition(p)) return false;
    }
    return FoldBatches();
  }

 private:
  struct PendingBatch {
    std::unique_ptr<TaskContext> tc;
    uint64_t rows = 0;
  };

  bool FlushPartition(size_t part) {
    auto tc = std::make_unique<TaskContext>(
        ctx_, phase_tag_ | (static_cast<uint64_t>(part) << 20) |
                  batch_seq_[part]++);
    TaskContext* tcp = tc.get();
    SpillRun* run = (*parts_)[part].get();
    uint64_t n = buf_[part].size();
    group_.SubmitToLane(
        part, [join = join_, tcp, run, failed = &write_failed_,
               rows = std::move(buf_[part])] {
          for (const Row& row : rows) {
            if (!run->Append(tcp, join->node_id(), row)) {
              failed->store(true, std::memory_order_relaxed);
              return;
            }
          }
        });
    buf_[part] = std::vector<Row>();
    pending_.push_back(PendingBatch{std::move(tc), n});
    if (pending_.size() >= kMaxInflightBatches) return FoldBatches();
    return ctx_->ok();
  }

  bool FoldBatches() {
    Status escaped = group_.Wait();
    for (PendingBatch& b : pending_) {
      if (!ctx_->ok()) break;
      b.tc->FoldInto(ctx_);
      if (!ctx_->ok()) break;
      join_->grace_rows_written_ += b.rows;
    }
    pending_.clear();
    if (ctx_->ok() && !escaped.ok()) ctx_->RaiseError(std::move(escaped));
    return ctx_->ok();
  }

  HashJoin* join_;
  ExecContext* ctx_;
  std::vector<SpillRunPtr>* parts_;
  uint64_t phase_tag_;
  std::array<std::vector<Row>, kSpillFanout> buf_;
  std::array<uint64_t, kSpillFanout> batch_seq_{};
  std::vector<PendingBatch> pending_;
  // Set (relaxed) by a batch task on write failure, polled by Add: a hint to
  // fold early — correctness still comes from the fold's error replay.
  std::atomic<bool> write_failed_{false};
  // Declared last: destroyed first, so the destructor's implicit Wait()
  // drains in-flight tasks while the TaskContexts in pending_ still live.
  TaskGroup group_;
};

HashJoin::HashJoin(OperatorPtr probe, OperatorPtr build,
                   std::vector<ExprPtr> probe_keys,
                   std::vector<ExprPtr> build_keys, JoinType join_type,
                   ExprPtr residual)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      join_type_(join_type),
      residual_(std::move(residual)),
      schema_(JoinOutputSchema(probe_->output_schema(), build_->output_schema(),
                               join_type)) {
  QPROG_CHECK(probe_keys_.size() == build_keys_.size());
  QPROG_CHECK(!probe_keys_.empty());
}

void HashJoin::DoOpen(ExecContext* ctx) {
  finished_ = false;
  build_done_ = false;
  table_.clear();
  build_rows_ = 0;
  max_bucket_ = 0;
  probe_valid_ = false;
  probe_matched_ = false;
  bucket_ = nullptr;
  bucket_pos_ = 0;
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  spilled_ = false;
  probe_partitioned_ = false;
  build_parts_.clear();
  probe_parts_.clear();
  grace_leaves_.clear();
  part_idx_ = 0;
  part_loaded_ = false;
  grace_rows_written_ = 0;
  parallel_joined_ = false;
  par_outs_.clear();
  par_part_ = 0;
  par_pos_ = 0;
  if (ctx->ConsultFault(faults::kHashJoinOpen, node_id())) return;
  build_->Open(ctx);
  probe_->Open(ctx);
}

Row HashJoin::KeyOf(const Row& row, const std::vector<ExprPtr>& keys,
                    bool* has_null) const {
  Row key;
  key.reserve(keys.size());
  *has_null = false;
  for (const ExprPtr& e : keys) {
    Value v = e->Eval(row);
    *has_null = *has_null || v.is_null();
    key.push_back(std::move(v));
  }
  return key;
}

bool HashJoin::EnsureRuns(ExecContext* ctx, std::vector<SpillRunPtr>* parts,
                          const char* phase) {
  if (!parts->empty()) return true;
  parts->reserve(kSpillFanout);
  for (int i = 0; i < kSpillFanout; ++i) {
    SpillRunPtr run = ctx->spill_manager()->CreateRun(ctx, node_id(), phase);
    if (run == nullptr) return false;
    parts->push_back(std::move(run));
  }
  return true;
}

bool HashJoin::AppendToPartition(ExecContext* ctx,
                                 std::vector<SpillRunPtr>* parts,
                                 const char* phase, const Row& key,
                                 const Row& row, PartitionWriter* writer) {
  if (!EnsureRuns(ctx, parts, phase)) return false;
  size_t part = JoinPartitionIndex(RowHash()(key), 0);
  if (writer != nullptr) return writer->Add(part, row);
  if (!(*parts)[part]->Append(ctx, node_id(), row)) return false;
  ++grace_rows_written_;
  return true;
}

bool HashJoin::SpillBuildTable(ExecContext* ctx, PartitionWriter* writer) {
  for (const auto& [key, bucket] : table_) {
    for (const Row& row : bucket) {
      if (!AppendToPartition(ctx, &build_parts_, "hashjoin.build", key, row,
                             writer)) {
        return false;
      }
    }
  }
  table_.clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  max_bucket_ = 0;  // re-learned per partition during the probe phase
  spilled_ = true;
  return true;
}

void HashJoin::BuildTable(ExecContext* ctx) {
  // With a pool attached, Grace partition writes batch through a
  // PartitionWriter (created lazily at the first spill). Charge verdicts are
  // untouched — they fire per input row on the query thread either way — so
  // the spill decision sequence is identical to the serial engine's.
  std::unique_ptr<PartitionWriter> writer;
  auto grace_writer = [&]() -> PartitionWriter* {
    if (ctx->worker_pool() == nullptr) return nullptr;
    if (writer == nullptr) {
      writer = std::make_unique<PartitionWriter>(
          this, ctx, ctx->worker_pool(), &build_parts_, kJoinWriteTaskTag);
    }
    return writer.get();
  };
  Row row;
  while (ctx->ok() && build_->Next(ctx, &row)) {
    if (ctx->ConsultFault(faults::kHashJoinBuild, node_id())) return;
    bool has_null = false;
    Row key = KeyOf(row, build_keys_, &has_null);
    if (has_null) continue;  // NULL keys never match
    if (spilled_) {
      // Already in Grace mode: route straight to a partition run.
      if (!AppendToPartition(ctx, &build_parts_, "hashjoin.build", key, row,
                             grace_writer())) {
        return;
      }
      ++build_rows_;
      continue;
    }
    ChargeVerdict verdict = ctx->ChargeBufferedRowsOrSpill(1);
    if (verdict == ChargeVerdict::kFailed) return;
    if (verdict == ChargeVerdict::kSpill) {
      if (!SpillBuildTable(ctx, grace_writer())) return;
      if (!AppendToPartition(ctx, &build_parts_, "hashjoin.build", key, row,
                             grace_writer())) {
        return;
      }
      ++build_rows_;
      continue;
    }
    auto& bucket = table_[std::move(key)];
    bucket.push_back(std::move(row));
    ++build_rows_;
    ++charged_;
    max_bucket_ = std::max<uint64_t>(max_bucket_, bucket.size());
  }
  if (!ctx->ok()) return;  // partial build: not usable for probing
  if (writer != nullptr && !writer->Finish()) return;
  build_done_ = true;
}

void HashJoin::PartitionProbe(ExecContext* ctx) {
  // Create every probe run up front: a zero-row probe input must still leave
  // probe_parts_ mirroring build_parts_, or the partition replay loop would
  // index an empty vector.
  if (!EnsureRuns(ctx, &probe_parts_, "hashjoin.probe")) return;
  std::unique_ptr<PartitionWriter> writer;
  if (ctx->worker_pool() != nullptr) {
    writer = std::make_unique<PartitionWriter>(
        this, ctx, ctx->worker_pool(), &probe_parts_,
        kJoinWriteTaskTag | kJoinProbePhaseBit);
  }
  // Route every probe row — including NULL-key rows — through the runs so
  // outer/anti joins still see (and preserve) the unmatched rows when the
  // partition is replayed.
  Row row;
  while (ctx->ok() && probe_->Next(ctx, &row)) {
    bool has_null = false;
    Row key = KeyOf(row, probe_keys_, &has_null);
    if (!AppendToPartition(ctx, &probe_parts_, "hashjoin.probe", key, row,
                           writer.get())) {
      return;
    }
  }
  if (!ctx->ok()) return;
  if (writer != nullptr && !writer->Finish()) return;
  for (auto& run : build_parts_) {
    if (!run->FinishWrite(ctx, node_id())) return;
  }
  for (auto& run : probe_parts_) {
    if (!run->FinishWrite(ctx, node_id())) return;
  }
  probe_partitioned_ = true;
}

bool HashJoin::RefinePartitions(ExecContext* ctx) {
  // Capacity is the kill headroom above what the plan already holds at this
  // instant — the same geometry ParallelJoinPartitions uses for admission
  // and the serial LoadPartition enforces per row. A leaf at or under it
  // can (barring later base growth) be rebuilt in memory; anything larger
  // is re-split rather than loaded into a certain kill trip.
  const QueryGuard* guard = ctx->guard();
  const uint64_t kill = guard != nullptr ? guard->max_buffered_rows_kill()
                                         : QueryGuard::kNoLimit;
  uint64_t capacity = QueryGuard::kNoLimit;
  if (kill != QueryGuard::kNoLimit) {
    capacity = kill - std::min(kill, ctx->buffered_rows());
  }
  grace_leaves_.clear();
  grace_leaves_.reserve(kSpillFanout);
  for (int p = 0; p < kSpillFanout; ++p) {
    if (!RefineOne(ctx, std::move(build_parts_[static_cast<size_t>(p)]),
                   std::move(probe_parts_[static_cast<size_t>(p)]), 0,
                   static_cast<uint64_t>(p), capacity)) {
      return false;
    }
  }
  build_parts_.clear();
  probe_parts_.clear();
  return ctx->ok();
}

bool HashJoin::RefineOne(ExecContext* ctx, SpillRunPtr build, SpillRunPtr probe,
                         int depth, uint64_t path, uint64_t capacity) {
  if (build->rows_written() <= capacity) {
    grace_leaves_.push_back(
        GraceLeaf{std::move(build), std::move(probe), depth, path});
    return true;
  }
  if (depth >= kMaxGraceDepth) {
    ctx->RaiseError(qprog::ResourceExhausted(StringPrintf(
        "build partition of %llu rows still exceeds the kill headroom of "
        "%llu rows at Grace recursion depth %d; input too skewed to process "
        "under this budget",
        static_cast<unsigned long long>(build->rows_written()),
        static_cast<unsigned long long>(capacity), depth)));
    return false;
  }
  // Redistribute both runs into kSpillFanout children under the next level's
  // salt. Query thread only: run creation order (and the spill_begin events
  // carrying the new depth) must stay part of the deterministic trace. Every
  // re-read and re-write below is accounted spill work, so total(Q) grows by
  // exactly two units per re-partitioned row and the 2*written-done pending
  // identity holds at every checkpoint mid-refinement.
  const int child_depth = depth + 1;
  const uint64_t parent_rows = build->rows_written();
  std::vector<SpillRunPtr> child_build;
  std::vector<SpillRunPtr> child_probe;
  child_build.reserve(kSpillFanout);
  child_probe.reserve(kSpillFanout);
  for (int i = 0; i < kSpillFanout; ++i) {
    SpillRunPtr run = ctx->spill_manager()->CreateRun(ctx, node_id(),
                                                      "hashjoin.build",
                                                      child_depth);
    if (run == nullptr) return false;
    child_build.push_back(std::move(run));
  }
  for (int i = 0; i < kSpillFanout; ++i) {
    SpillRunPtr run = ctx->spill_manager()->CreateRun(ctx, node_id(),
                                                      "hashjoin.probe",
                                                      child_depth);
    if (run == nullptr) return false;
    child_probe.push_back(std::move(run));
  }
  Row row;
  if (!build->OpenRead(ctx, node_id())) return false;
  while (build->ReadNext(ctx, node_id(), &row)) {
    bool has_null = false;
    Row key = KeyOf(row, build_keys_, &has_null);
    QPROG_DCHECK(!has_null);  // NULL build keys were never spilled
    size_t part = JoinPartitionIndex(RowHash()(key), child_depth);
    if (!child_build[part]->Append(ctx, node_id(), row)) return false;
    ++grace_rows_written_;
  }
  if (!ctx->ok()) return false;
  build.reset();  // parent temp file gone before the tree grows further
  uint64_t biggest_child = 0;
  for (auto& run : child_build) {
    biggest_child = std::max(biggest_child, run->rows_written());
    if (!run->FinishWrite(ctx, node_id())) return false;
  }
  if (biggest_child >= parent_rows) {
    // The salt moved nothing: every row shares one key (or one hash value).
    // No recursion depth will ever spread this partition, so stop here
    // instead of burning kMaxGraceDepth futile passes.
    ctx->RaiseError(qprog::ResourceExhausted(StringPrintf(
        "build partition of %llu rows exceeds the kill headroom of %llu rows "
        "and cannot be subdivided (single-key skew); input too skewed to "
        "process under this budget",
        static_cast<unsigned long long>(parent_rows),
        static_cast<unsigned long long>(capacity))));
    return false;
  }
  if (!probe->OpenRead(ctx, node_id())) return false;
  while (probe->ReadNext(ctx, node_id(), &row)) {
    bool has_null = false;
    Row key = KeyOf(row, probe_keys_, &has_null);
    size_t part = JoinPartitionIndex(RowHash()(key), child_depth);
    if (!child_probe[part]->Append(ctx, node_id(), row)) return false;
    ++grace_rows_written_;
  }
  if (!ctx->ok()) return false;
  probe.reset();
  for (auto& run : child_probe) {
    if (!run->FinishWrite(ctx, node_id())) return false;
  }
  for (int i = 0; i < kSpillFanout; ++i) {
    if (!RefineOne(ctx, std::move(child_build[static_cast<size_t>(i)]),
                   std::move(child_probe[static_cast<size_t>(i)]), child_depth,
                   path | (static_cast<uint64_t>(i) << (3 * child_depth)),
                   capacity)) {
      return false;
    }
  }
  return true;
}

bool HashJoin::LoadPartition(ExecContext* ctx) {
  SpillRun* build_run = grace_leaves_[static_cast<size_t>(part_idx_)].build.get();
  if (!build_run->OpenRead(ctx, node_id())) return false;
  Row row;
  while (build_run->ReadNext(ctx, node_id(), &row)) {
    bool has_null = false;
    Row key = KeyOf(row, build_keys_, &has_null);
    QPROG_DCHECK(!has_null);  // NULL build keys were never spilled
    // A reloaded partition answers to the kill threshold only: the soft
    // budget already traded memory for these extra I/O passes.
    if (!ctx->ChargeBufferedRowsPostSpill(1)) return false;
    auto& bucket = table_[std::move(key)];
    bucket.push_back(std::move(row));
    ++charged_;
    max_bucket_ = std::max<uint64_t>(max_bucket_, bucket.size());
  }
  if (!ctx->ok()) return false;
  if (!grace_leaves_[static_cast<size_t>(part_idx_)].probe->OpenRead(
          ctx, node_id())) {
    return false;
  }
  part_loaded_ = true;
  return true;
}

void HashJoin::UnloadPartition(ExecContext* ctx) {
  table_.clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  grace_leaves_[static_cast<size_t>(part_idx_)].build.reset();  // delete files
  grace_leaves_[static_cast<size_t>(part_idx_)].probe.reset();
  ++part_idx_;
  part_loaded_ = false;
}

bool HashJoin::PullProbe(ExecContext* ctx, Row* row) {
  if (!spilled_) return probe_->Next(ctx, row);
  return grace_leaves_[static_cast<size_t>(part_idx_)].probe->ReadNext(
      ctx, node_id(), row);
}

bool HashJoin::ParallelJoinPartitions(ExecContext* ctx, WorkerPool* pool) {
  // Budget geometry, all computed on the query thread before any task runs:
  // capacity is the kill headroom above what the plan already holds, and the
  // output allowance splits half of it evenly across partitions (the other
  // half carries the partition build tables). Every term is data-derived, so
  // the in-memory/overflow split is identical at every pool size.
  const QueryGuard* guard = ctx->guard();
  const uint64_t kill = guard != nullptr ? guard->max_buffered_rows_kill()
                                         : QueryGuard::kNoLimit;
  const bool unlimited = kill == QueryGuard::kNoLimit;
  const uint64_t base = ctx->buffered_rows();
  const uint64_t capacity = unlimited ? 0 : kill - std::min(kill, base);
  const size_t num_leaves = grace_leaves_.size();
  const uint64_t allowance =
      unlimited ? std::numeric_limits<uint64_t>::max()
                : capacity / (2 * std::max<uint64_t>(num_leaves, 1));
  OrderedTaskBudget budget(unlimited, capacity, allowance);
  par_outs_.clear();
  par_outs_.resize(num_leaves);
  std::vector<std::unique_ptr<TaskContext>> tcs;
  tcs.reserve(num_leaves);
  {
    TaskGroup group(pool);
    for (size_t p = 0; p < num_leaves; ++p) {
      const GraceLeaf& leaf = grace_leaves_[p];
      auto tc = std::make_unique<TaskContext>(
          ctx, JoinLeafTaskKey(leaf.depth, leaf.path));
      TaskContext* tcp = tc.get();
      SpillRun* build_run = leaf.build.get();
      SpillRun* probe_run = leaf.probe.get();
      PartitionJoinOut* out = &par_outs_[p];
      out->part = p;
      // The build run sealed on the query thread, so its row count is exact:
      // reserve the whole partition table plus the output allowance, capped
      // at capacity so an oversized partition can still be admitted alone
      // (its task then trips the kill tripwire, as the serial replay would).
      out->reserved =
          unlimited ? 0
                    : std::min<uint64_t>(build_run->rows_written() + allowance,
                                         capacity);
      group.Submit([this, tcp, build_run, probe_run,
                    spill = ctx->spill_manager(), budget_ptr = &budget, out] {
        JoinPartitionTask(tcp, build_run, probe_run, spill, budget_ptr, out);
      });
      tcs.push_back(std::move(tc));
    }
    Status escaped = group.Wait();
    for (size_t p = 0; p < num_leaves; ++p) {
      if (!ctx->ok()) break;
      tcs[p]->FoldInto(ctx);
      if (!ctx->ok()) break;
      // Post-barrier run-counter reads are safe: the barrier handed the runs
      // back to the query thread.
      max_bucket_ = std::max(max_bucket_, par_outs_[p].max_bucket);
      grace_leaves_[p].build.reset();  // delete temp files
      grace_leaves_[p].probe.reset();
    }
    if (ctx->ok() && !escaped.ok()) ctx->RaiseError(std::move(escaped));
  }
  part_idx_ = static_cast<int>(num_leaves);  // every leaf consumed
  if (!ctx->ok()) return false;
  // Move the retained in-memory prefixes into the plan-wide account, where
  // they stay visible to the guard until NextParallelOutput drains them.
  // Cannot trip the kill threshold: admission kept the sum within capacity.
  if (!unlimited) {
    uint64_t prefix_total = 0;
    for (PartitionJoinOut& po : par_outs_) {
      po.charged_rows = po.rows.size();
      prefix_total += po.charged_rows;
    }
    if (!ctx->ChargeBufferedRowsPostSpill(prefix_total)) return false;
    charged_ += prefix_total;
  }
  return ctx->ok();
}

void HashJoin::JoinPartitionTask(TaskContext* tc, SpillRun* build_run,
                                 SpillRun* probe_run, SpillManager* spill,
                                 OrderedTaskBudget* budget,
                                 PartitionJoinOut* out) const {
  // The task owns its partition end to end: a private hash table, the
  // partition's spill reads, and the output buffer. It runs only once the
  // shared budget admits its reservation, so the *sum* of concurrent
  // partition memory stays under the guard's kill threshold; the per-task
  // kill-threshold charge below mirrors the serial LoadPartition charge —
  // each reloaded partition answers to the same tripwire.
  if (!budget->Admit(out->part, out->reserved, tc)) return;
  // Output rows land in memory up to the allowance; the rest go to an
  // unaccounted side run created lazily here (thread-safe, trace-silent).
  auto emit = [&](Row&& joined) -> bool {
    if (out->rows.size() < budget->out_allowance) {
      out->rows.push_back(std::move(joined));
      return true;
    }
    if (out->overflow == nullptr) {
      out->overflow = spill->CreateSideRun(tc, node_id());
      if (out->overflow == nullptr) return false;
    }
    return out->overflow->Append(tc, node_id(), joined);
  };
  std::unordered_map<Row, std::vector<Row>, RowHash, RowEq> table;
  Row row;
  bool ok = build_run->OpenRead(tc, node_id());
  while (ok && build_run->ReadNext(tc, node_id(), &row)) {
    bool has_null = false;
    Row key = KeyOf(row, build_keys_, &has_null);
    QPROG_DCHECK(!has_null);  // NULL build keys were never spilled
    if (!tc->ChargeBufferedRowsPostSpill(1)) {
      ok = false;
      break;
    }
    auto& bucket = table[std::move(key)];
    bucket.push_back(std::move(row));
    out->max_bucket = std::max<uint64_t>(out->max_bucket, bucket.size());
  }
  ok = ok && tc->ok() && probe_run->OpenRead(tc, node_id());
  while (ok && probe_run->ReadNext(tc, node_id(), &row)) {
    bool has_null = false;
    Row key = KeyOf(row, probe_keys_, &has_null);
    const std::vector<Row>* bucket = nullptr;
    if (!has_null) {
      auto it = table.find(key);
      if (it != table.end()) bucket = &it->second;
    }
    // Match logic mirrors DoNext's serial loop row for row, so the folded
    // output (partition order, probe order within each) is byte-identical
    // to the serial partition replay.
    bool matched = false;
    if (bucket != nullptr) {
      for (const Row& build_row : *bucket) {
        Row joined = ConcatRows(row, build_row);
        if (!PredicatePasses(residual_.get(), joined)) continue;
        matched = true;
        if (join_type_ == JoinType::kInner ||
            join_type_ == JoinType::kLeftOuter) {
          if (!emit(std::move(joined))) {
            ok = false;
            break;
          }
          continue;
        }
        if (join_type_ == JoinType::kLeftSemi && !emit(Row(row))) ok = false;
        break;  // semi: one output per probe row; anti: match disqualifies
      }
    }
    if (ok && !matched) {
      if (join_type_ == JoinType::kLeftOuter) {
        ok = emit(
            ConcatRows(row, NullRow(build_->output_schema().num_fields())));
      } else if (join_type_ == JoinType::kLeftAnti) {
        ok = emit(Row(row));
      }
    }
  }
  if (tc->ok() && out->overflow != nullptr) {
    out->overflow->FinishWrite(tc, node_id());
  }
  // Hand back the slack between the reservation and the rows the partition
  // actually keeps in memory; the prefix itself stays reserved until the
  // query thread charges it to the plan account after the fold.
  uint64_t kept = std::min<uint64_t>(out->rows.size(), out->reserved);
  budget->Retain(kept);
  budget->Release(out->reserved - kept);
}

bool HashJoin::NextParallelOutput(ExecContext* ctx, Row* out) {
  while (ctx->ok() && par_part_ < par_outs_.size()) {
    PartitionJoinOut& po = par_outs_[par_part_];
    if (par_pos_ < po.rows.size()) {
      *out = std::move(po.rows[par_pos_++]);
      Emit(ctx);
      return true;
    }
    if (po.overflow != nullptr) {
      if (!po.overflow_open) {
        if (!po.overflow->OpenRead(ctx, node_id())) return false;
        po.overflow_open = true;
      }
      if (po.overflow->ReadNext(ctx, node_id(), out)) {
        Emit(ctx);
        return true;
      }
      if (!ctx->ok()) return false;
      po.overflow.reset();  // end of side run: delete the temp file now
    }
    // Partition fully drained: give back its in-memory prefix.
    po.rows = std::vector<Row>();
    ctx->ReleaseBufferedRows(po.charged_rows);
    charged_ -= std::min<uint64_t>(charged_, po.charged_rows);
    po.charged_rows = 0;
    par_pos_ = 0;
    ++par_part_;
  }
  if (!ctx->ok()) return false;
  finished_ = true;
  return false;
}

bool HashJoin::AdvanceProbe(ExecContext* ctx) {
  for (;;) {
    if (!PullProbe(ctx, &probe_row_)) {
      probe_valid_ = false;
      return false;
    }
    probe_valid_ = true;
    probe_matched_ = false;
    bucket_ = nullptr;
    bucket_pos_ = 0;
    bool has_null = false;
    Row key = KeyOf(probe_row_, probe_keys_, &has_null);
    if (!has_null) {
      auto it = table_.find(key);
      if (it != table_.end()) bucket_ = &it->second;
    }
    return true;
  }
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
    // Both sides sealed: flatten the partition tree, re-splitting any build
    // partition the kill threshold could never admit (recursive Grace).
    if (!RefinePartitions(ctx)) return false;
  }
  if (spilled_ && !parallel_joined_ && ctx->worker_pool() != nullptr) {
    if (!ParallelJoinPartitions(ctx, ctx->worker_pool())) return false;
    parallel_joined_ = true;
  }
  if (parallel_joined_) return NextParallelOutput(ctx, out);
  for (;;) {
    if (!ctx->ok()) return false;
    if (spilled_ && !part_loaded_) {
      if (part_idx_ >= static_cast<int>(grace_leaves_.size())) {
        finished_ = true;
        return false;
      }
      if (!LoadPartition(ctx)) return false;
    }
    if (!probe_valid_) {
      if (!AdvanceProbe(ctx)) {
        if (!ctx->ok()) return false;
        if (spilled_) {
          UnloadPartition(ctx);  // move on to the next partition
          continue;
        }
        finished_ = true;
        return false;
      }
    }
    if (bucket_ != nullptr) {
      bool anti_rejected = false;
      while (bucket_pos_ < bucket_->size()) {
        const Row& build_row = (*bucket_)[bucket_pos_++];
        Row joined = ConcatRows(probe_row_, build_row);
        if (!PredicatePasses(residual_.get(), joined)) continue;
        probe_matched_ = true;
        if (join_type_ == JoinType::kInner ||
            join_type_ == JoinType::kLeftOuter) {
          *out = std::move(joined);
          Emit(ctx);
          return true;
        }
        if (join_type_ == JoinType::kLeftSemi) {
          *out = probe_row_;
          Emit(ctx);
          probe_valid_ = false;
          return true;
        }
        anti_rejected = true;  // kLeftAnti
        break;
      }
      if (anti_rejected) {
        probe_valid_ = false;
        continue;
      }
    }
    // Bucket exhausted (or no bucket).
    if (!probe_matched_) {
      if (join_type_ == JoinType::kLeftOuter) {
        *out = ConcatRows(probe_row_,
                          NullRow(build_->output_schema().num_fields()));
        probe_valid_ = false;
        Emit(ctx);
        return true;
      }
      if (join_type_ == JoinType::kLeftAnti) {
        *out = probe_row_;
        probe_valid_ = false;
        Emit(ctx);
        return true;
      }
    }
    probe_valid_ = false;
  }
}

void HashJoin::DoClose(ExecContext* ctx) {
  probe_->Close(ctx);
  build_->Close(ctx);
  table_.clear();
  build_parts_.clear();  // deletes any remaining spill temp files
  probe_parts_.clear();
  grace_leaves_.clear();
  par_outs_.clear();  // deletes any remaining overflow side runs
  par_part_ = 0;
  par_pos_ = 0;
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
}

std::string HashJoin::label() const {
  return StringPrintf("HashJoin(%s%s)", JoinTypeToString(join_type_),
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
  // A counter, not run-object sums: a worker task may own a run right now.
  // Every partition row is written once and read back exactly once, so this
  // node's total spill work is 2x the rows written so far; deriving pending
  // from the same work counter the checkpoint just advanced keeps
  // (done + pending) consistent at every sampling instant (see sort.cc).
  uint64_t spill_total = 2 * grace_rows_written_;
  state->spill_rows_pending = spill_total > state->spill_work_done
                                  ? spill_total - state->spill_work_done
                                  : 0;
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

Row MergeJoin::KeyOf(const Row& row, const std::vector<ExprPtr>& keys) const {
  Row key;
  key.reserve(keys.size());
  for (const ExprPtr& e : keys) key.push_back(e->Eval(row));
  return key;
}

bool MergeJoin::KeyHasNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
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
    left_key_ = KeyOf(left_row_, left_keys_);
    if (!KeyHasNull(left_key_)) {
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
    right_key_ = KeyOf(right_row_, right_keys_);
    if (!KeyHasNull(right_key_)) {
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
        *out = ConcatRows(left_row_, group_[group_pos_++]);
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

std::string MergeJoin::label() const {
  return StringPrintf("MergeJoin(%zu keys%s)", left_keys_.size(),
                      is_linear() ? ", linear" : "");
}

}  // namespace qprog
