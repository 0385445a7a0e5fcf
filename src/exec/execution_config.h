// ExecutionConfig: the shared execution-tuning spine. MonitorOptions,
// SessionOptions and ServerOptions embed this struct as a base, so an
// engine-wide knob is declared in exactly one place and flows monitor →
// session → server without three copies drifting.

#ifndef QPROG_EXEC_EXECUTION_CONFIG_H_
#define QPROG_EXEC_EXECUTION_CONFIG_H_

namespace qprog {

class WorkerPool;

struct ExecutionConfig {
  /// Optional worker pool (borrowed), passed through to the ExecContext. No
  /// operator reads it today (see exec/worker_pool.h): every operator runs
  /// on the query thread, so results, total(Q) and traces are the same with
  /// or without one.
  WorkerPool* worker_pool = nullptr;
};

}  // namespace qprog

#endif  // QPROG_EXEC_EXECUTION_CONFIG_H_
