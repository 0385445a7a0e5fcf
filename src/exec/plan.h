// PhysicalPlan: owns an operator tree, assigns node ids, and provides
// execution drivers. Finalize() must run before execution so the getnext
// counters in ExecContext line up with node ids.

#ifndef QPROG_EXEC_PLAN_H_
#define QPROG_EXEC_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/operator.h"

namespace qprog {

class PhysicalPlan {
 public:
  /// Takes ownership of the operator tree and finalizes it (assigns
  /// pre-order node ids; marks the root).
  explicit PhysicalPlan(OperatorPtr root);

  PhysicalPlan(const PhysicalPlan&) = delete;
  PhysicalPlan& operator=(const PhysicalPlan&) = delete;
  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;

  PhysicalOperator* root() { return root_.get(); }
  const PhysicalOperator* root() const { return root_.get(); }

  /// All operators in pre-order; node_id() equals the position here.
  const std::vector<PhysicalOperator*>& nodes() const { return nodes_; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Indented tree rendering.
  std::string ToString() const;

 private:
  OperatorPtr root_;
  std::vector<PhysicalOperator*> nodes_;
};

class QueryGuard;
class FaultInjector;
class SpillManager;
class WorkerPool;
class TelemetryCollector;

namespace exec {

/// Options for exec::Drive, the one plan-execution driver: row delivery and
/// (for context-free runs) the full environment wiring are knobs here
/// instead of separate entry points.
struct DriveOptions {
  /// Execution context to drive against. Null = Drive builds a throwaway
  /// context internally and wires the environment pointers below into it.
  /// When non-null, the caller's context is used as-is and the environment
  /// pointers are ignored (the caller already wired what it wants).
  ExecContext* ctx = nullptr;

  /// Ignored: Drive always runs tuple-at-a-time. The field remains only
  /// because the end-to-end benchmark (e2ebench/suite.cc) still sets it for
  /// its batch-vs-tuple ratio; drop it together with that variant.
  size_t batch_size = 0;

  /// Called with each root output row, in production order.
  std::function<void(const Row&)> sink = nullptr;

  /// Collect root output rows into DriveResult::rows.
  bool collect_rows = false;

  // -- environment wiring, applied only when `ctx` is null --------------------
  QueryGuard* guard = nullptr;
  FaultInjector* fault_injector = nullptr;
  SpillManager* spill_manager = nullptr;
  WorkerPool* worker_pool = nullptr;
  TelemetryCollector* telemetry = nullptr;
};

/// Outcome of one Drive call.
struct DriveResult {
  /// The execution's final status: OK on completion; kCancelled /
  /// kDeadlineExceeded / kResourceExhausted / the fault's status on abort.
  Status status;
  /// Rows the root produced (delivered to sink/rows before any abort).
  uint64_t root_rows = 0;
  /// Total counted work of the run — total(Q) when status is OK.
  uint64_t work = 0;
  /// Root output when collect_rows was set. On an aborted run this holds the
  /// prefix produced before the error.
  std::vector<Row> rows;

  bool ok() const { return status.ok(); }
};

/// The single plan-execution entry point. Runs `plan` until completion or
/// the context's first execution error (guard violation, injected fault,
/// cancellation). The other drivers in this header are sugar over it.
DriveResult Drive(PhysicalPlan* plan, const DriveOptions& opts = {});

}  // namespace exec

/// Runs the plan and collects the root's output (sugar over exec::Drive).
/// On an aborted run the returned rows are the prefix produced before the
/// error (check `ctx->status()`).
std::vector<Row> CollectRows(PhysicalPlan* plan, ExecContext* ctx);

/// Convenience: run with a throwaway context, returning the output rows.
std::vector<Row> CollectRows(PhysicalPlan* plan);

/// Total getnext calls of a complete execution of `plan` — total(Q) in the
/// paper's notation. Runs the plan to completion on a fresh context.
uint64_t MeasureTotalWork(PhysicalPlan* plan);

/// True when every operator in the plan supports re-execution via Open()
/// (see PhysicalOperator::SupportsRewind).
bool PlanSupportsRewind(const PhysicalPlan& plan);

/// Structural fingerprint of the plan: FNV-1a 64 over the pre-order
/// (kind, child-count) sequence. Two plans share a signature iff they have
/// the same operator tree shape, independent of literals, estimates, and
/// runtime state. Cross-run priors (obs/cross_run_registry.h) are keyed by
/// (template fingerprint, node id) and guarded by this signature: a template
/// whose plan shape changed — new index picked, join reordered — must not
/// re-seed node estimates from the old shape's history.
uint64_t PlanSignature(const PhysicalPlan& plan);

}  // namespace qprog

#endif  // QPROG_EXEC_PLAN_H_
