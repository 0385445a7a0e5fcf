// Filter (σ), Project (π) and Limit operators.

#ifndef QPROG_EXEC_FILTER_PROJECT_H_
#define QPROG_EXEC_FILTER_PROJECT_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "expr/expr.h"

namespace qprog {

/// σ: passes rows whose predicate evaluates to TRUE.
class Filter : public PhysicalOperator {
 public:
  Filter(OperatorPtr child, ExprPtr predicate);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kFilter; }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  size_t num_children() const override { return 1; }
  PhysicalOperator* child(size_t) override { return child_.get(); }
  std::string label() const override;
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

/// π: computes a list of output expressions per input row.
class Project : public PhysicalOperator {
 public:
  /// `names` labels the output columns; sizes must match `exprs`. Output
  /// field types are inferred lazily as kNull (the engine is dynamically
  /// typed); names are what matter for printing and SQL binding.
  Project(OperatorPtr child, std::vector<ExprPtr> exprs,
          std::vector<std::string> names);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kProject; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 1; }
  PhysicalOperator* child(size_t) override { return child_.get(); }
  std::string label() const override;
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
};

/// LIMIT k: stops the plan after k rows (leaves the child undrained).
class Limit : public PhysicalOperator {
 public:
  Limit(OperatorPtr child, uint64_t limit);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kLimit; }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  size_t num_children() const override { return 1; }
  PhysicalOperator* child(size_t) override { return child_.get(); }
  std::string label() const override;
  std::vector<size_t> PruneColumns(const std::vector<bool>& needed) override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

 private:
  OperatorPtr child_;
  uint64_t limit_;
  uint64_t produced_ = 0;
};

}  // namespace qprog

#endif  // QPROG_EXEC_FILTER_PROJECT_H_
