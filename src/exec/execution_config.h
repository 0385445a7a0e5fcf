// ExecutionConfig: the shared execution-tuning spine. MonitorOptions,
// SessionOptions and ServerOptions embed this struct as a base, so an
// engine-wide knob is declared in exactly one place and flows monitor →
// session → server without three copies drifting.

#ifndef QPROG_EXEC_EXECUTION_CONFIG_H_
#define QPROG_EXEC_EXECUTION_CONFIG_H_

namespace qprog {

class WorkerPool;

struct ExecutionConfig {
  /// Optional worker pool (borrowed) for intra-query parallelism: sort run
  /// formation. Null runs the sort's run tasks inline; results, total(Q)
  /// and traces are the same either way.
  WorkerPool* worker_pool = nullptr;
};

}  // namespace qprog

#endif  // QPROG_EXEC_EXECUTION_CONFIG_H_
