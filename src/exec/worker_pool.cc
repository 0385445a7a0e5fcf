#include "exec/worker_pool.h"

#include <exception>
#include <utility>

#include "common/strings.h"
#include "exec/query_guard.h"

namespace qprog {

// --------------------------------------------------------------------------
// WorkerPool

WorkerPool::WorkerPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }
}

// --------------------------------------------------------------------------
// TaskGroup

TaskGroup::TaskGroup(WorkerPool* pool)
    : pool_(pool), sync_(std::make_shared<Sync>()) {}

void TaskGroup::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(sync_->mu);
    ++sync_->pending;
  }
  if (pool_ == nullptr) {
    RunTask(sync_, fn);
    return;
  }
  pool_->Enqueue(
      [sync = sync_, fn = std::move(fn)] { RunTask(sync, fn); });
}

void TaskGroup::RunTask(const std::shared_ptr<Sync>& sync,
                        const std::function<void()>& fn) {
  Status escaped;
  try {
    fn();
  } catch (const std::exception& e) {
    escaped = Internal(
        StringPrintf("exception escaped worker task: %s", e.what()));
  } catch (...) {
    escaped = Internal("unknown exception escaped worker task");
  }
  bool was_last;
  {
    std::lock_guard<std::mutex> lock(sync->mu);
    if (!escaped.ok() && sync->status.ok()) sync->status = std::move(escaped);
    was_last = --sync->pending == 0;
  }
  if (was_last) sync->done_cv.notify_all();
}

Status TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(sync_->mu);
  sync_->done_cv.wait(lock, [this] { return sync_->pending == 0; });
  return sync_->status;
}

// --------------------------------------------------------------------------
// TaskContext

TaskContext::TaskContext(ExecContext* parent, uint64_t task_key)
    : parent_(parent), guard_(parent->guard()) {
  if (parent->fault_injector() != nullptr) {
    injector_ = parent->fault_injector()->Fork(task_key);
  }
}

bool TaskContext::ok() const {
  if (failed_ || !parent_->ok()) return false;
  return guard_ == nullptr || !guard_->cancel_requested();
}

void TaskContext::RaiseError(Status status) {
  QPROG_DCHECK(!status.ok());
  if (!failed_) {
    status_ = std::move(status);
    failed_ = true;
  }
}

void TaskContext::AddSpillWork(int node, uint64_t n) {
  // Coalesce runs of spill work at the same node: the fold's batched
  // AddSpillWork fires the same observer checkpoints (once per crossed
  // interval, at the scheduled point) as n unit-sized calls would.
  if (!ops_.empty() && ops_.back().kind == Op::kSpillWork &&
      ops_.back().node == node) {
    ops_.back().count += n;
    return;
  }
  ops_.push_back(Op{Op::kSpillWork, node, n, 0, nullptr, std::string()});
}

void TaskContext::OnSpillEnd(int node, const std::string& phase, uint64_t rows,
                             uint64_t bytes) {
  ops_.push_back(Op{Op::kSpillEnd, node, rows, bytes, nullptr, phase});
}

void TaskContext::OnSpillRead(int node, uint64_t rows) {
  if (!ops_.empty() && ops_.back().kind == Op::kSpillRead &&
      ops_.back().node == node) {
    ops_.back().count += rows;
    return;
  }
  ops_.push_back(Op{Op::kSpillRead, node, rows, 0, nullptr, std::string()});
}

void TaskContext::OnIoRetry(int node, const char* site, uint64_t attempt) {
  ops_.push_back(Op{Op::kIoRetry, node, attempt, 0, site, std::string()});
}

void TaskContext::OnIoFault(int node, const char* site,
                            const std::string& message) {
  ops_.push_back(Op{Op::kIoFault, node, 0, 0, site, message});
}

void TaskContext::FoldInto(ExecContext* ctx) {
  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::kSpillWork:
        ctx->AddSpillWork(op.node, op.count);
        break;
      case Op::kSpillEnd:
        ctx->OnSpillEnd(op.node, op.text, op.count, op.bytes);
        break;
      case Op::kSpillRead:
        ctx->OnSpillRead(op.node, op.count);
        break;
      case Op::kIoRetry:
        ctx->OnIoRetry(op.node, op.site, op.count);
        break;
      case Op::kIoFault:
        ctx->OnIoFault(op.node, op.site, op.text);
        break;
    }
  }
  ops_.clear();
  if (failed_) ctx->RaiseError(std::move(status_));
}

}  // namespace qprog
