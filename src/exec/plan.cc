#include "exec/plan.h"

#include "common/macros.h"
#include "common/strings.h"

namespace qprog {

namespace {

void AssignIds(PhysicalOperator* op, std::vector<PhysicalOperator*>* nodes) {
  op->set_node_id(static_cast<int>(nodes->size()));
  nodes->push_back(op);
  for (size_t i = 0; i < op->num_children(); ++i) {
    AssignIds(op->child(i), nodes);
  }
}

void PrintTree(const PhysicalOperator* op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(StringPrintf("#%d %s", op->node_id(), op->label().c_str()));
  if (op->estimated_rows() >= 0) {
    out->append(StringPrintf("  [est=%.0f]", op->estimated_rows()));
  }
  out->append("\n");
  for (size_t i = 0; i < op->num_children(); ++i) {
    PrintTree(op->child(i), depth + 1, out);
  }
}

}  // namespace

PhysicalPlan::PhysicalPlan(OperatorPtr root) : root_(std::move(root)) {
  QPROG_CHECK(root_ != nullptr);
  AssignIds(root_.get(), &nodes_);
  root_->set_is_root(true);
}

std::string PhysicalPlan::ToString() const {
  std::string out;
  PrintTree(root_.get(), 0, &out);
  return out;
}

namespace exec {

DriveResult Drive(PhysicalPlan* plan, const DriveOptions& opts) {
  DriveResult result;
  ExecContext local;
  ExecContext* ctx = opts.ctx != nullptr ? opts.ctx : &local;
  ctx->Reset(plan->num_nodes());
  PhysicalOperator* root = plan->root();
  root->Open(ctx);
  Row row;
  // Stop on the first execution error; a row produced concurrently with a
  // guard trip is dropped (the query is aborting). Close always runs so
  // operators release buffered state even on an aborted run.
  while (ctx->ok() && root->Next(ctx, &row)) {
    ++result.root_rows;
    if (opts.sink) opts.sink(row);
    if (opts.collect_rows) result.rows.push_back(row);
  }
  root->Close(ctx);
  result.status = ctx->status();
  result.work = ctx->work();
  return result;
}

}  // namespace exec

std::vector<Row> CollectRows(PhysicalPlan* plan, ExecContext* ctx) {
  exec::DriveOptions opts;
  opts.ctx = ctx;
  opts.collect_rows = true;
  return std::move(exec::Drive(plan, opts).rows);
}

std::vector<Row> CollectRows(PhysicalPlan* plan) {
  exec::DriveOptions opts;
  opts.collect_rows = true;
  return std::move(exec::Drive(plan, opts).rows);
}

uint64_t MeasureTotalWork(PhysicalPlan* plan) {
  return exec::Drive(plan, {}).work;
}

bool PlanSupportsRewind(const PhysicalPlan& plan) {
  for (const PhysicalOperator* op : plan.nodes()) {
    if (!op->SupportsRewind()) return false;
  }
  return true;
}

uint64_t PlanSignature(const PhysicalPlan& plan) {
  // FNV-1a 64 over the pre-order (kind, child-count) byte stream. nodes()
  // is pre-order, so the sequence plus per-node child counts pins down the
  // tree shape exactly.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t byte) {
    h ^= byte & 0xFF;
    h *= 1099511628211ULL;
  };
  for (const PhysicalOperator* op : plan.nodes()) {
    mix(static_cast<uint64_t>(op->kind()));
    mix(op->num_children());
  }
  return h;
}

}  // namespace qprog
