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
  /// formation, and Grace partition joins and aggregate replay when the
  /// guard sets no kill threshold. Null runs sort run tasks inline and the
  /// Grace leaves through their serial loop, as a kill threshold does.
  WorkerPool* worker_pool = nullptr;
};

}  // namespace qprog

#endif  // QPROG_EXEC_EXECUTION_CONFIG_H_
