#include "exec/grace.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"

namespace qprog {

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

GracePartitions::GracePartitions(std::vector<GraceSide> sides,
                                 OversizedLeaf oversized)
    : sides_(std::move(sides)), oversized_(oversized), parts_(sides_.size()) {}

void GracePartitions::Reset() {
  DropRuns();
  rows_written_ = 0;
  rows_read_ = 0;
}

void GracePartitions::DropRuns() {
  for (std::vector<SpillRunPtr>& side_parts : parts_) side_parts.clear();
  leaves_.clear();
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

bool GracePartitions::Refine(ExecContext* ctx, int node,
                             uint64_t released_first) {
  for (std::vector<SpillRunPtr>& side_parts : parts_) {
    QPROG_DCHECK(side_parts.size() == static_cast<size_t>(kSpillFanout));
    for (SpillRunPtr& run : side_parts) {
      if (!run->FinishWrite(ctx, node)) return false;
    }
  }
  // Capacity is the kill headroom the first leaf loads into: what the plan
  // holds now, less what the operator releases before that load. The leaf
  // loop enforces it per row. A leaf at or under it can (barring later base
  // growth) be rebuilt in memory; anything larger is re-split rather than
  // loaded into a certain kill trip.
  uint64_t capacity = ctx->KillHeadroom();
  if (capacity != QueryGuard::kNoLimit) capacity += released_first;
  leaves_.clear();
  leaves_.reserve(kSpillFanout);
  for (int p = 0; p < kSpillFanout; ++p) {
    std::vector<SpillRunPtr> runs;
    for (std::vector<SpillRunPtr>& side_parts : parts_) {
      runs.push_back(std::move(side_parts[static_cast<size_t>(p)]));
    }
    if (!RefineOne(ctx, node, std::move(runs), 0, capacity)) {
      return false;
    }
  }
  for (std::vector<SpillRunPtr>& side_parts : parts_) side_parts.clear();
  return ctx->ok();
}

bool GracePartitions::RefineOne(ExecContext* ctx, int node,
                                std::vector<SpillRunPtr> runs, int depth,
                                uint64_t capacity) {
  const uint64_t rows = runs[0]->rows_written();
  if (rows <= capacity ||
      (depth >= kMaxGraceDepth && oversized_ == OversizedLeaf::kAdmitAlone)) {
    leaves_.push_back(GraceLeaf{std::move(runs)});
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
  Row row, key;
  for (size_t s = 0; s < sides_.size(); ++s) {
    SpillRunPtr parent = std::move(runs[s]);
    if (!parent->OpenRead(ctx, node)) return false;
    while (parent->ReadNext(ctx, node, &row)) {
      ++rows_read_;
      EvalKey(*sides_[s].keys, row, &key);
      size_t part = GracePartitionOf(key, child_depth);
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
    if (unsplittable) {
      leaves_.push_back(GraceLeaf{std::move(child_runs)});
    } else if (!RefineOne(ctx, node, std::move(child_runs), child_depth,
                          capacity)) {
      return false;
    }
  }
  return true;
}

}  // namespace qprog
