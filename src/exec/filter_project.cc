#include "exec/filter_project.h"

#include "common/macros.h"
#include "common/strings.h"
#include "exec/fault_injector.h"

namespace qprog {

// --------------------------------------------------------------------------
// Filter

Filter::Filter(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  QPROG_CHECK(child_ != nullptr);
  QPROG_CHECK(predicate_ != nullptr);
}

void Filter::DoOpen(ExecContext* ctx) {
  finished_ = false;
  child_->Open(ctx);
}

bool Filter::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kFilterNext, node_id())) {
    return false;
  }
  Row row;
  while (child_->Next(ctx, &row)) {
    Value keep = predicate_->Eval(row);
    if (!keep.is_null() && keep.bool_value()) {
      *out = std::move(row);
      Emit(ctx);
      return true;
    }
  }
  if (!ctx->ok()) return false;  // child stopped on error, not end-of-stream
  finished_ = true;
  return false;
}

void Filter::DoClose(ExecContext* ctx) { child_->Close(ctx); }

std::vector<size_t> Filter::PruneColumns(const std::vector<bool>& needed) {
  // Passes its input through, so the predicate's columns stay in the output.
  return PruneInput(child_.get(), needed, {predicate_.get()});
}

std::string Filter::label() const {
  return StringPrintf("Filter(%s)", predicate_->ToString().c_str());
}

// --------------------------------------------------------------------------
// Project

Project::Project(OperatorPtr child, std::vector<ExprPtr> exprs,
                 std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  QPROG_CHECK(child_ != nullptr);
  QPROG_CHECK(names.size() == exprs_.size());
  std::vector<Field> fields;
  fields.reserve(names.size());
  for (std::string& name : names) {
    fields.emplace_back(std::move(name), TypeId::kNull);
  }
  schema_ = Schema(std::move(fields));
}

void Project::DoOpen(ExecContext* ctx) {
  finished_ = false;
  child_->Open(ctx);
}

bool Project::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kProjectNext, node_id())) {
    return false;
  }
  Row row;
  if (!child_->Next(ctx, &row)) {
    if (ctx->ok()) finished_ = true;
    return false;
  }
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) out->push_back(e->Eval(row));
  Emit(ctx);
  return true;
}

void Project::DoClose(ExecContext* ctx) { child_->Close(ctx); }

std::vector<size_t> Project::PruneColumns(const std::vector<bool>&) {
  // Asks only for what the expressions read; its own outputs stay whole.
  std::vector<Expr*> exprs;
  for (const ExprPtr& e : exprs_) exprs.push_back(e.get());
  PruneInput(child_.get(),
             std::vector<bool>(child_->output_schema().num_fields(), false),
             exprs);
  return IdentityColumnMap(exprs_.size());
}

std::string Project::label() const {
  std::vector<std::string> parts;
  parts.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) parts.push_back(e->ToString());
  return StringPrintf("Project(%s)", JoinStrings(parts, ", ").c_str());
}

// --------------------------------------------------------------------------
// Limit

Limit::Limit(OperatorPtr child, uint64_t limit)
    : child_(std::move(child)), limit_(limit) {
  QPROG_CHECK(child_ != nullptr);
}

void Limit::DoOpen(ExecContext* ctx) {
  finished_ = false;
  produced_ = 0;
  child_->Open(ctx);
}

bool Limit::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() || ctx->ConsultFault(faults::kLimitNext, node_id())) {
    return false;
  }
  if (produced_ >= limit_) {
    finished_ = true;
    return false;
  }
  if (!child_->Next(ctx, out)) {
    if (ctx->ok()) finished_ = true;
    return false;
  }
  ++produced_;
  Emit(ctx);
  return true;
}

void Limit::DoClose(ExecContext* ctx) { child_->Close(ctx); }

std::vector<size_t> Limit::PruneColumns(const std::vector<bool>& needed) {
  return child_->PruneColumns(needed);
}

std::string Limit::label() const {
  return StringPrintf("Limit(%llu)", static_cast<unsigned long long>(limit_));
}

void Limit::FillProgressState(const ExecContext& ctx,
                              ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  state->has_limit = true;
  state->limit_remaining = limit_ > produced_ ? limit_ - produced_ : 0;
}

}  // namespace qprog
