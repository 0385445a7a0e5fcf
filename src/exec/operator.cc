#include "exec/operator.h"

namespace qprog {

const char* OpKindToString(OpKind kind) {
  switch (kind) {
    case OpKind::kSeqScan:
      return "SeqScan";
    case OpKind::kIndexSeek:
      return "IndexSeek";
    case OpKind::kFilter:
      return "Filter";
    case OpKind::kProject:
      return "Project";
    case OpKind::kNestedLoopsJoin:
      return "NestedLoopsJoin";
    case OpKind::kIndexNestedLoopsJoin:
      return "IndexNestedLoopsJoin";
    case OpKind::kHashJoin:
      return "HashJoin";
    case OpKind::kMergeJoin:
      return "MergeJoin";
    case OpKind::kSort:
      return "Sort";
    case OpKind::kHashAggregate:
      return "HashAggregate";
    case OpKind::kStreamAggregate:
      return "StreamAggregate";
    case OpKind::kLimit:
      return "Limit";
  }
  return "Unknown";
}

bool IsNestedIterationKind(OpKind kind) {
  return kind == OpKind::kNestedLoopsJoin ||
         kind == OpKind::kIndexNestedLoopsJoin || kind == OpKind::kIndexSeek;
}

std::string PhysicalOperator::label() const { return OpKindToString(kind()); }

void PhysicalOperator::OpenInstrumented(ExecContext* ctx) {
  TelemetryCollector* t = ctx->telemetry();
  uint64_t start = MonotonicNanos();
  DoOpen(ctx);
  t->RecordOpen(node_id_, label(), MonotonicNanos() - start, ctx->work());
}

bool PhysicalOperator::NextInstrumented(ExecContext* ctx, Row* out) {
  TelemetryCollector* t = ctx->telemetry();
  uint64_t start = MonotonicNanos();
  bool produced = DoNext(ctx, out);
  uint64_t end = MonotonicNanos();
  t->RecordNext(node_id_, produced, end - start, end);
  return produced;
}

void PhysicalOperator::CloseInstrumented(ExecContext* ctx) {
  TelemetryCollector* t = ctx->telemetry();
  uint64_t start = MonotonicNanos();
  DoClose(ctx);
  t->RecordClose(node_id_, label(), MonotonicNanos() - start, ctx->work());
}

std::vector<size_t> PhysicalOperator::PruneColumns(const std::vector<bool>&) {
  for (size_t i = 0; i < num_children(); ++i) {
    PhysicalOperator* c = child(i);
    c->PruneColumns(std::vector<bool>(c->output_schema().num_fields(), true));
  }
  return IdentityColumnMap(output_schema().num_fields());
}

std::vector<size_t> IdentityColumnMap(size_t width) {
  std::vector<size_t> map(width);
  for (size_t i = 0; i < width; ++i) map[i] = i;
  return map;
}

std::vector<size_t> PruneInput(PhysicalOperator* op, std::vector<bool> needed,
                               const std::vector<Expr*>& exprs) {
  for (const Expr* e : exprs) MarkReferencedColumns(*e, &needed);
  std::vector<size_t> map = op->PruneColumns(needed);
  for (Expr* e : exprs) RemapColumns(e, map);
  return map;
}

void PhysicalOperator::FillProgressState(const ExecContext& ctx,
                                         ProgressState* state) const {
  state->rows_produced = ctx.rows_produced(node_id_);
  state->finished = finished_;
  state->spill_work_done = ctx.spill_work(node_id_);
}

}  // namespace qprog
