// WorkContext: the narrow execution-context surface the spill layer performs
// I/O against. Query-thread code hands SpillRun/SpillManager the
// ExecContext itself; a Sort run-formation task, the one kind of worker
// task, hands them a TaskContext (exec/worker_pool.h) instead, which
// accumulates the same effects — spill-work units, telemetry events,
// I/O-retry records — into a private per-task log that the *main* thread
// folds into the real ExecContext at the task barrier, in task submission
// order.
//
// That split is what keeps intra-query parallelism deterministic: no worker
// ever touches the shared work counters, so total(Q), every checkpoint, and
// the whole trace depend only on the task decomposition (which is a function
// of the data) and the fold order (submission order) — never on thread count
// or OS scheduling. See DESIGN.md §10.

#ifndef QPROG_EXEC_WORK_CONTEXT_H_
#define QPROG_EXEC_WORK_CONTEXT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace qprog {

class FaultInjector;

class WorkContext {
 public:
  virtual ~WorkContext() = default;

  /// False once this context has failed or the query is being cancelled:
  /// spill loops treat it as an immediate stop signal, exactly like
  /// ExecContext::ok() on the serial path.
  virtual bool ok() const = 0;

  /// Records an execution error (first one wins). On a task context the
  /// error stays task-local until the fold raises it on the ExecContext.
  virtual void RaiseError(Status status) = 0;

  /// Counts `n` units of spill I/O work at `node` (rows written to or
  /// re-read from a run). On ExecContext this advances total(Q) immediately;
  /// on a task context it is logged and replayed at the fold.
  virtual void AddSpillWork(int node, uint64_t n) = 0;

  /// The fault injector spill I/O consults (the injector models the I/O
  /// layer). A task context returns its own deterministic fork, seeded from
  /// the task key — never the shared injector, whose hit counters are not
  /// thread-safe.
  virtual FaultInjector* io_fault_injector() const = 0;

  // -- telemetry forwarding ---------------------------------------------------
  // Same semantics as the TelemetryCollector hooks of the same names; the
  // work stamp on the emitted trace events is taken from the ExecContext at
  // call time (serial) or at fold time (task), so it is deterministic either
  // way. All no-ops when no collector is attached.

  virtual void OnSpillEnd(int node, const std::string& phase, uint64_t rows,
                          uint64_t bytes) = 0;
  virtual void OnSpillRead(int node, uint64_t rows) = 0;
  virtual void OnIoRetry(int node, const char* site, uint64_t attempt) = 0;
  virtual void OnIoFault(int node, const char* site,
                         const std::string& message) = 0;
};

}  // namespace qprog

#endif  // QPROG_EXEC_WORK_CONTEXT_H_
