// ExecutionConfig: the shared execution-tuning spine. MonitorOptions,
// SessionOptions and ServerOptions used to each re-declare the same knobs
// (worker pool, partitions); they now embed this struct as a base, so a new
// engine-wide knob — like Exchange's `partitions` — is added in exactly one
// place and flows monitor → session → server without three copies drifting.

#ifndef QPROG_EXEC_EXECUTION_CONFIG_H_
#define QPROG_EXEC_EXECUTION_CONFIG_H_

#include <cstddef>

namespace qprog {

class WorkerPool;

struct ExecutionConfig {
  /// Optional worker pool (borrowed) for intra-query parallelism: parallel
  /// sort merge, Grace partition joins, aggregate replay, and Exchange
  /// producer pipelines. Null = the reference serial engine.
  WorkerPool* worker_pool = nullptr;

  /// Partitioned-plan degree: when > 1, the planner splits eligible
  /// aggregation pipelines into `partitions` range-partitioned scan →
  /// partial-aggregate producers feeding an Exchange (exec/exchange.h).
  /// 0 or 1 = serial plan shapes (the default).
  size_t partitions = 0;
};

}  // namespace qprog

#endif  // QPROG_EXEC_EXECUTION_CONFIG_H_
