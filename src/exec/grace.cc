#include "exec/grace.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/query_guard.h"
#include "exec/worker_pool.h"

namespace qprog {

namespace {

// Bits per level in a leaf path: one child index out of kSpillFanout.
constexpr int kPathBits = 3;
static_assert((1 << kPathBits) == kSpillFanout);

uint64_t ChildPath(uint64_t path, int child, int child_depth) {
  return path | (static_cast<uint64_t>(child) << (kPathBits * child_depth));
}

// The leaf task's data identity: recursion depth in bits 48..55 and the
// leaf path below, under the operator's tag. Never pool size — the same leaf
// gets the same forked fault schedule whether it came from a depth-0 pass or
// a depth-3 re-split, and a depth-0 leaf's key is just tag | partition.
uint64_t LeafTaskKey(uint64_t tag, const GraceLeaf& leaf) {
  return tag | (static_cast<uint64_t>(leaf.depth) << 48) | leaf.path;
}

Row EvalKey(const std::vector<ExprPtr>& keys, const Row& row) {
  Row key;
  key.reserve(keys.size());
  for (const ExprPtr& e : keys) key.push_back(e->Eval(row));
  return key;
}

// Shared buffered-row budget for concurrent leaf tasks. The serial replay
// keeps one leaf's state in memory at a time, all of it answering to the
// guard's kill threshold; with many tasks in flight the same contract must
// hold for their *sum*. Each task's need is known exactly before it runs (a
// sealed run's row count bounds what the task can buffer), so tasks make one
// all-or-nothing reservation in leaf order — no incremental growth, hence no
// two-holders-stuck deadlock — and an admitted task runs to completion
// without blocking. A leaf too big for the whole budget is admitted alone and
// then trips the task's kill tripwire exactly where the serial replay would.
// Admission order, reservations and the allowance are all data-derived, so
// memory placement is identical at every pool size. With kill == kNoLimit
// (unlimited) the budget is inert.
struct OrderedTaskBudget {
  const bool unlimited;
  const uint64_t capacity;  // kill threshold minus the plan-wide base

  std::mutex mu;
  std::condition_variable cv;
  uint64_t in_use = 0;    // sum of live reservations; <= capacity
  uint64_t retained = 0;  // floor of in_use held by finished tasks' kept
                          // output prefixes until the post-barrier charge
  size_t next_admit = 0;  // leaf index next in line

  OrderedTaskBudget(bool unlimited_in, uint64_t capacity_in)
      : unlimited(unlimited_in), capacity(capacity_in) {}

  // Blocks until leaf `part` may hold `need` budget rows. Returns false
  // (without reserving) when the query fails or is cancelled while waiting;
  // polls so a guard cancel can't strand a waiter. A leaf that cannot fit
  // beside the live reservations is admitted alone — once every active
  // reservation has drained and only the `retained` floor is left — so kept
  // prefixes can never wedge the admission line.
  bool Admit(size_t part, uint64_t need, const TaskContext* tc) {
    if (unlimited) return true;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (next_admit == part &&
          (in_use + need <= capacity || in_use == retained)) {
        in_use += need;
        ++next_admit;
        cv.notify_all();
        return true;
      }
      if (!tc->ok()) {
        // Keep the line moving so leaves behind a cancelled one do not wait
        // forever for a turn that will never be taken.
        if (next_admit == part) {
          ++next_admit;
          cv.notify_all();
        }
        return false;
      }
      cv.wait_for(lock, std::chrono::milliseconds(10));
    }
  }

  // Moves `n` rows of a task's reservation into the `retained` floor: output
  // rows the task keeps buffered past its own completion, paid for by the
  // fold's post-barrier charge. An oversized leaf admitted alone may
  // transiently push the floor past what a later solo admission adds on top
  // of — that overshoot is bounded by the per-task kill tripwires that
  // already fired (or will fire) on the oversized task itself.
  void Retain(uint64_t n) {
    if (unlimited || n == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    uint64_t active = in_use - retained;
    retained += n < active ? n : active;
    cv.notify_all();
  }

  // Returns `n` reserved rows (a task's unretained slack), clamped against
  // the active (unretained) share of `in_use`.
  void Release(uint64_t n) {
    if (unlimited || n == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    uint64_t active = in_use - retained;
    in_use -= n < active ? n : active;
    cv.notify_all();
  }
};

}  // namespace

size_t GracePartitionOf(const Row& key, int level) {
  uint64_t x = static_cast<uint64_t>(RowHash()(key));
  if (level > 0) {
    x += 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(level);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
  }
  return static_cast<size_t>(x % static_cast<uint64_t>(kSpillFanout));
}

bool GraceLeafOutput::Emit(TaskContext* tc, Row&& row) {
  if (rows_.size() < allowance_) {
    rows_.push_back(std::move(row));
    return true;
  }
  // Side runs are thread-safe to create from a task and trace-silent.
  if (overflow_ == nullptr) {
    overflow_ = spill_->CreateSideRun(tc, node_);
    if (overflow_ == nullptr) return false;
  }
  return overflow_->Append(tc, node_, row);
}

GracePartitions::GracePartitions(std::vector<GraceSide> sides,
                                 OversizedLeaf oversized)
    : sides_(std::move(sides)), oversized_(oversized), parts_(sides_.size()) {}

void GracePartitions::Reset() {
  DropRuns();
  rows_written_ = 0;
  rows_read_ = 0;
  pooled_ = false;
}

void GracePartitions::DropRuns() {
  for (std::vector<SpillRunPtr>& side_parts : parts_) side_parts.clear();
  leaves_.clear();
  outs_.clear();
  out_leaf_ = 0;
  out_pos_ = 0;
}

bool GracePartitions::EnsurePartitions(ExecContext* ctx, int node,
                                       size_t side) {
  std::vector<SpillRunPtr>& parts = parts_[side];
  if (!parts.empty()) return true;
  parts.reserve(kSpillFanout);
  for (int i = 0; i < kSpillFanout; ++i) {
    SpillRunPtr run =
        ctx->spill_manager()->CreateRun(ctx, node, sides_[side].phase);
    if (run == nullptr) return false;
    parts.push_back(std::move(run));
  }
  return true;
}

bool GracePartitions::Append(ExecContext* ctx, int node, size_t side,
                             const Row& key, const Row& row) {
  if (!EnsurePartitions(ctx, node, side)) return false;
  if (!parts_[side][GracePartitionOf(key, 0)]->Append(ctx, node, row)) {
    return false;
  }
  ++rows_written_;
  return true;
}

bool GracePartitions::Refine(ExecContext* ctx, int node) {
  for (std::vector<SpillRunPtr>& side_parts : parts_) {
    QPROG_DCHECK(side_parts.size() == static_cast<size_t>(kSpillFanout));
    for (SpillRunPtr& run : side_parts) {
      if (!run->FinishWrite(ctx, node)) return false;
    }
  }
  // Capacity is the kill headroom above what the plan already holds at this
  // instant — the geometry RunLeaves admits against and the serial replay
  // enforces per row. A leaf at or under it can (barring later base growth)
  // be rebuilt in memory; anything larger is re-split rather than loaded
  // into a certain kill trip.
  const uint64_t capacity = ctx->KillHeadroom();
  leaves_.clear();
  leaves_.reserve(kSpillFanout);
  for (int p = 0; p < kSpillFanout; ++p) {
    std::vector<SpillRunPtr> runs;
    for (std::vector<SpillRunPtr>& side_parts : parts_) {
      runs.push_back(std::move(side_parts[static_cast<size_t>(p)]));
    }
    if (!RefineOne(ctx, node, std::move(runs), 0, static_cast<uint64_t>(p),
                   capacity)) {
      return false;
    }
  }
  for (std::vector<SpillRunPtr>& side_parts : parts_) side_parts.clear();
  return ctx->ok();
}

bool GracePartitions::RefineOne(ExecContext* ctx, int node,
                                std::vector<SpillRunPtr> runs, int depth,
                                uint64_t path, uint64_t capacity) {
  const uint64_t rows = runs[0]->rows_written();
  if (rows <= capacity ||
      (depth >= kMaxGraceDepth && oversized_ == OversizedLeaf::kAdmitAlone)) {
    leaves_.push_back(GraceLeaf{std::move(runs), depth, path});
    return true;
  }
  if (depth >= kMaxGraceDepth) {
    ctx->RaiseError(qprog::ResourceExhausted(StringPrintf(
        "build partition of %llu rows still exceeds the kill headroom of "
        "%llu rows at Grace recursion depth %d; input too skewed to process "
        "under this budget",
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(capacity), depth)));
    return false;
  }
  // Redistribute every side into kSpillFanout children under the next
  // level's salt, first side first. Query thread only: run creation order
  // (and the spill_begin events carrying the new depth) must stay part of
  // the deterministic trace. Every re-read and re-write below is accounted
  // spill work, so total(Q) grows by exactly two units per re-partitioned
  // row and the 2*written-done pending identity holds at every checkpoint
  // mid-refinement.
  const int child_depth = depth + 1;
  std::vector<std::vector<SpillRunPtr>> children(sides_.size());
  for (size_t s = 0; s < sides_.size(); ++s) {
    children[s].reserve(kSpillFanout);
    for (int i = 0; i < kSpillFanout; ++i) {
      SpillRunPtr run = ctx->spill_manager()->CreateRun(
          ctx, node, sides_[s].phase, child_depth);
      if (run == nullptr) return false;
      children[s].push_back(std::move(run));
    }
  }
  bool unsplittable = false;
  Row row;
  for (size_t s = 0; s < sides_.size(); ++s) {
    SpillRunPtr parent = std::move(runs[s]);
    if (!parent->OpenRead(ctx, node)) return false;
    while (parent->ReadNext(ctx, node, &row)) {
      ++rows_read_;
      size_t part =
          GracePartitionOf(EvalKey(*sides_[s].keys, row), child_depth);
      if (!children[s][part]->Append(ctx, node, row)) return false;
      ++rows_written_;
    }
    if (!ctx->ok()) return false;
    parent.reset();  // parent temp file gone before the tree grows further
    uint64_t biggest_child = 0;
    for (SpillRunPtr& child : children[s]) {
      biggest_child = std::max(biggest_child, child->rows_written());
      if (!child->FinishWrite(ctx, node)) return false;
    }
    if (s > 0 || biggest_child < rows) continue;
    // The salt moved nothing: every row shares one key (or one hash value),
    // so no depth will ever spread this partition.
    if (oversized_ == OversizedLeaf::kAbort) {
      ctx->RaiseError(qprog::ResourceExhausted(StringPrintf(
          "build partition of %llu rows exceeds the kill headroom of %llu "
          "rows and cannot be subdivided (single-key skew); input too skewed "
          "to process under this budget",
          static_cast<unsigned long long>(rows),
          static_cast<unsigned long long>(capacity))));
      return false;
    }
    unsplittable = true;  // its children become leaves as they are
  }
  for (int i = 0; i < kSpillFanout; ++i) {
    std::vector<SpillRunPtr> child_runs;
    for (std::vector<SpillRunPtr>& side_children : children) {
      child_runs.push_back(std::move(side_children[static_cast<size_t>(i)]));
    }
    const uint64_t child_path = ChildPath(path, i, child_depth);
    if (unsplittable) {
      leaves_.push_back(
          GraceLeaf{std::move(child_runs), child_depth, child_path});
    } else if (!RefineOne(ctx, node, std::move(child_runs), child_depth,
                          child_path, capacity)) {
      return false;
    }
  }
  return true;
}

bool GracePartitions::RunLeaves(ExecContext* ctx, int node,
                                uint64_t task_tag, const LeafTask& task,
                                const std::function<void(size_t leaf)>& fold,
                                uint64_t* charged) {
  // Budget geometry, all computed on the query thread before any task runs:
  // capacity is the kill headroom above what the plan already holds, and the
  // output allowance splits half of it evenly across leaves (the other half
  // carries the leaves' tables). Every term is data-derived, so the
  // in-memory/overflow split is identical at every pool size.
  const uint64_t headroom = ctx->KillHeadroom();
  const bool unlimited = headroom == QueryGuard::kNoLimit;
  const uint64_t capacity = unlimited ? 0 : headroom;
  const size_t num_leaves = leaves_.size();
  const uint64_t allowance =
      unlimited ? std::numeric_limits<uint64_t>::max()
                : capacity / (2 * std::max<uint64_t>(num_leaves, 1));
  OrderedTaskBudget budget(unlimited, capacity);
  outs_.clear();
  outs_.resize(num_leaves);
  out_leaf_ = 0;
  out_pos_ = 0;
  std::vector<std::unique_ptr<TaskContext>> tcs;
  tcs.reserve(num_leaves);
  {
    TaskGroup group(ctx->worker_pool());
    for (size_t p = 0; p < num_leaves; ++p) {
      auto tc =
          std::make_unique<TaskContext>(ctx, LeafTaskKey(task_tag, leaves_[p]));
      TaskContext* tcp = tc.get();
      GraceLeafOutput* out = &outs_[p];
      out->spill_ = ctx->spill_manager();
      out->node_ = node;
      out->allowance_ = allowance;
      // The first side's run sealed on the query thread, so its row count is
      // exact and bounds the leaf's table (build rows or groups): reserve it
      // plus the output allowance, capped at capacity so an oversized leaf
      // can still be admitted alone (its task then trips the kill tripwire,
      // as the serial replay would).
      out->reserved_ =
          unlimited ? 0
                    : std::min<uint64_t>(
                          leaves_[p].runs[0]->rows_written() + allowance,
                          capacity);
      group.Submit([&task, &budget, tcp, p, out, node] {
        if (!budget.Admit(p, out->reserved_, tcp)) return;
        task(tcp, p, out);
        if (tcp->ok() && out->overflow_ != nullptr) {
          out->overflow_->FinishWrite(tcp, node);
        }
        // Hand back the slack between the reservation and the rows the leaf
        // keeps in memory; the prefix itself stays reserved until the query
        // thread charges it to the plan account after the fold.
        uint64_t kept = std::min<uint64_t>(out->rows_.size(), out->reserved_);
        budget.Retain(kept);
        budget.Release(out->reserved_ - kept);
      });
      tcs.push_back(std::move(tc));
    }
    Status escaped = group.Wait();
    for (size_t p = 0; p < num_leaves; ++p) {
      if (!ctx->ok()) break;
      tcs[p]->FoldInto(ctx);
      if (!ctx->ok()) break;
      // Post-barrier reads are safe: the barrier handed the runs and the
      // task's results back to the query thread.
      fold(p);
      leaves_[p].runs.clear();  // delete temp files
    }
    if (ctx->ok() && !escaped.ok()) ctx->RaiseError(std::move(escaped));
  }
  if (!ctx->ok()) return false;
  // Move the retained in-memory prefixes into the plan-wide account, where
  // they stay visible to the guard until NextOutput drains them. Cannot trip
  // the kill threshold: admission kept the sum within capacity.
  if (!unlimited) {
    uint64_t prefix_total = 0;
    for (GraceLeafOutput& out : outs_) {
      out.charged_rows_ = out.rows_.size();
      prefix_total += out.charged_rows_;
    }
    if (!ctx->ChargeBufferedRowsPostSpill(prefix_total)) return false;
    *charged += prefix_total;
  }
  pooled_ = ctx->ok();
  return pooled_;
}

bool GracePartitions::NextOutput(ExecContext* ctx, int node, Row* out,
                                 uint64_t* charged) {
  while (ctx->ok() && out_leaf_ < outs_.size()) {
    GraceLeafOutput& leaf = outs_[out_leaf_];
    if (out_pos_ < leaf.rows_.size()) {
      *out = std::move(leaf.rows_[out_pos_++]);
      return true;
    }
    if (leaf.overflow_ != nullptr) {
      if (!leaf.overflow_open_) {
        if (!leaf.overflow_->OpenRead(ctx, node)) return false;
        leaf.overflow_open_ = true;
      }
      if (leaf.overflow_->ReadNext(ctx, node, out)) return true;
      if (!ctx->ok()) return false;
      leaf.overflow_.reset();  // end of side run: delete the temp file now
    }
    // Leaf fully drained: give back its in-memory prefix.
    leaf.rows_ = std::vector<Row>();
    ctx->ReleaseBufferedRows(leaf.charged_rows_);
    *charged -= std::min(*charged, leaf.charged_rows_);
    leaf.charged_rows_ = 0;
    out_pos_ = 0;
    ++out_leaf_;
  }
  return false;
}

}  // namespace qprog
