// WorkerPool: the handle an embedder passes as ExecutionConfig::worker_pool
// (or ExecContext::set_worker_pool).
//
// Every operator runs on the query thread (DESIGN.md §10): each work count,
// spill write and fault-injector hit lands there in program order, so
// total(Q), every checkpoint and the whole trace are the same with or
// without a pool. No operator reads the pool today, and the handle starts
// no threads; it stays so that code which constructs one and attaches it —
// the e2ebench harness among them — keeps building and running unchanged.

#ifndef QPROG_EXEC_WORKER_POOL_H_
#define QPROG_EXEC_WORKER_POOL_H_

namespace qprog {

class WorkerPool {
 public:
  /// `num_threads` is clamped to >= 1.
  explicit WorkerPool(int num_threads)
      : num_threads_(num_threads < 1 ? 1 : num_threads) {}

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_threads() const { return num_threads_; }

 private:
  int num_threads_;
};

}  // namespace qprog

#endif  // QPROG_EXEC_WORKER_POOL_H_
