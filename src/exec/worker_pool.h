// WorkerPool / TaskGroup / TaskContext: the intra-query parallelism layer.
//
// A WorkerPool is a fixed set of threads with a shared FIFO task queue,
// attached to an ExecContext (set_worker_pool) and borrowed by external
// Sort, which hands run formation to tasks. A TaskGroup over a null pool
// runs each task inline at Submit, so Sort takes the same task path at
// every pool size. The sort merge, every Grace partition write and leaf
// replay, and everything else in the engine stay on the query thread.
//
// The design problem is not speed — it is keeping the paper's progress
// model deterministic while work happens concurrently. The solution has
// three parts (DESIGN.md §10):
//
//  1. Sharded-then-folded accounting. A task never touches the ExecContext
//     counters; it runs its spill I/O against a TaskContext, which logs the
//     effects (spill-work units, telemetry events, errors) into a private
//     op-log. After the barrier, the query thread folds each log into the
//     ExecContext *in task submission order*. Submission order is a
//     function of the data (run 0, 1, 2, ...), so total(Q), every
//     observer checkpoint and the whole trace are byte-identical at every
//     pool size — and the ProgressMonitor keeps seeing consistent
//     (Curr, LB, UB) snapshots because counters only move on its thread.
//
//  2. Data-derived task decomposition. Sort splits work by a fixed
//     constant (in-flight run tasks), never by pool size. Adding threads
//     changes who executes a task, not which tasks exist.
//
//  3. Deterministic fault forking. A task consults a FaultInjector::Fork
//     seeded from the task's data identity (its run index), so injected-
//     fault schedules replay identically at every thread count.
//
// Error model: a task that fails keeps running its op-log locally (its
// SpillRun methods return false and it unwinds); the fold raises the first
// failed task's status on the ExecContext. C++ exceptions escaping a task
// are a bug-containment path, not a control-flow path — the group converts
// the first one to kInternal and Wait() returns it.

#ifndef QPROG_EXEC_WORKER_POOL_H_
#define QPROG_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/fault_injector.h"
#include "exec/work_context.h"

namespace qprog {

/// Fixed-size thread pool with a shared FIFO queue. Threads start in the
/// constructor and join in the destructor; the pool outlives every TaskGroup
/// built on it (operators borrow the pool from the ExecContext and create
/// short-lived groups per phase).
class WorkerPool {
 public:
  /// `num_threads` is clamped to >= 1.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  friend class TaskGroup;

  void Enqueue(std::function<void()> fn);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// One barrier's worth of tasks on a pool. Submit, then Wait() — the
/// destructor also waits, so a group can never leak running tasks past its
/// scope.
class TaskGroup {
 public:
  /// `pool` may be null: every Submit then runs its task inline, on the
  /// calling thread, in submission order.
  explicit TaskGroup(WorkerPool* pool);
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `fn` to run on some pool thread, or runs it before returning
  /// when the group has no pool.
  void Submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished. Returns OK, or
  /// kInternal describing the first exception that escaped a task.
  /// Idempotent; safe to call with nothing submitted.
  Status Wait();

 private:
  // The group's synchronization state lives in a block co-owned by every
  // in-flight task closure: a finishing task may signal done_cv strictly
  // after Wait() observed pending == 0 and the TaskGroup itself was
  // destroyed. The shared_ptr keeps the block alive until the last such
  // task lets go.
  struct Sync {
    std::mutex mu;
    std::condition_variable done_cv;
    uint64_t pending = 0;  // submitted, not finished
    Status status;         // first escaped exception, as kInternal
  };

  /// Runs `fn` with exception containment, then retires it (status capture,
  /// pending decrement, done_cv signal).
  static void RunTask(const std::shared_ptr<Sync>& sync,
                      const std::function<void()>& fn);

  WorkerPool* pool_;
  std::shared_ptr<Sync> sync_;
};

/// Task-key registry (DESIGN.md §10). A task's key is `tag | data index`:
/// the tag names the task kind in the top byte, the low bits its data
/// identity, so a forked fault-injector schedule replays identically at
/// every pool size. The values are part of every recorded fault schedule:
/// never renumber one, and never reuse a retired one.
inline constexpr uint64_t kSortRunTaskTag = 0x50ULL << 56;  // | run index
// 0x51: retired (the sort's pooled intermediate merge groups).
// 0x52: retired (the join's pooled partition-write batches).
// 0x53: retired (the join's pooled Grace leaf tasks).
// 0x54: retired (the aggregate's pooled Grace leaf tasks).
// 0x55: retired (the exchange's pooled producer partitions).

/// The WorkContext a task runs against: accumulates the task's spill work,
/// telemetry events, and error into a private log that FoldInto replays on
/// the ExecContext after the barrier. Created on the query thread (it forks
/// the fault injector there), used by exactly one task, folded back on the
/// query thread — the task barrier is the handoff, so no member needs to be
/// atomic.
class TaskContext final : public WorkContext {
 public:
  /// `task_key` seeds the injector fork; derive it from the task's data
  /// identity (see the task-key registry in DESIGN.md §10).
  TaskContext(ExecContext* parent, uint64_t task_key);

  // -- WorkContext ------------------------------------------------------------
  /// False once this task failed, the query failed (sticky error raised on
  /// the parent by the query thread or an earlier fold), or cancellation was
  /// requested — tasks drain quickly instead of finishing doomed work.
  bool ok() const override;
  void RaiseError(Status status) override;
  void AddSpillWork(int node, uint64_t n) override;
  FaultInjector* io_fault_injector() const override { return injector_.get(); }
  void OnSpillEnd(int node, const std::string& phase, uint64_t rows,
                  uint64_t bytes) override;
  void OnSpillRead(int node, uint64_t rows) override;
  void OnIoRetry(int node, const char* site, uint64_t attempt) override;
  void OnIoFault(int node, const char* site,
                 const std::string& message) override;

  /// Replays the op-log into `ctx` in log order — spill work advances
  /// total(Q) and fires observer checkpoints / guard checks exactly as if
  /// the I/O had happened serially at fold time — then raises this task's
  /// error (if any) on `ctx`. Query thread only, after the barrier.
  void FoldInto(ExecContext* ctx);

 private:
  struct Op {
    enum Kind { kSpillWork, kSpillEnd, kSpillRead, kIoRetry, kIoFault };
    Kind kind;
    int node = 0;
    uint64_t count = 0;      // spill-work units / rows read / retry attempt
    uint64_t bytes = 0;      // spill_end only
    const char* site = nullptr;  // retry/fault sites are static strings
    std::string text;        // spill_end phase / fault message
  };

  ExecContext* parent_;
  QueryGuard* guard_;
  std::unique_ptr<FaultInjector> injector_;  // deterministic per-task fork
  std::vector<Op> ops_;
  bool failed_ = false;
  Status status_;
};

}  // namespace qprog

#endif  // QPROG_EXEC_WORKER_POOL_H_
