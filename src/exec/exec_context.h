// ExecContext: per-execution state, most importantly the getnext counters
// that define the paper's model of work (Section 2.2).
//
// Work is the number of getnext calls issued by operators *inside* the plan
// tree to their children — equivalently, the number of rows produced by every
// non-root operator. (The root's rows are returned to the consumer outside
// the tree and do not count; this is the accounting that makes the paper's
// Example 2 total come out to 100,000 + 1 + 10,000 = 110,001.)
//
// The context is also the execution's error channel and guardrail hook:
//  * A sticky `Status` records the first failure (an injected fault, a guard
//    violation, an operator error). Operators treat `!ctx->ok()` as an
//    immediate stop signal: Next() returns false without doing end-of-stream
//    work, so the error cascades cleanly to the plan driver.
//  * An optional QueryGuard (borrowed) is checked on the CountRow hot path at
//    an amortized interval — the fast path stays a single branch against
//    `next_event_`, which folds together the next observation point, the
//    next guard check and the work-budget trip point.
//  * An optional FaultInjector (borrowed) is consulted by operators at named
//    sites via ConsultFault().
//
// ---------------------------------------------------------------------------
// Threading and memory-ordering contract (intra-query parallelism)
//
// With a WorkerPool attached (set_worker_pool), external Sort runs its
// run-formation tasks on pool threads. The counter model is
// *sharded-then-folded*, never concurrent:
//
//  * `rows_produced_`, `spill_work_`, `work_`, `buffered_rows_`, `status_`,
//    the observer and the guard-check schedule are owned by the query thread
//    (the thread driving Open/Next/Close). Worker tasks NEVER touch them.
//    A task accumulates its spill work, telemetry events and errors in its
//    own TaskContext shard (exec/worker_pool.h); the query thread folds each
//    shard into this context at the task barrier, in task submission order.
//    Folding happens-after task completion via the pool's queue mutex, so no
//    synchronization beyond that is needed — and because fold order is
//    submission order, total(Q), every checkpoint and the whole trace are
//    byte-identical at every thread count.
//  * The ProgressMonitor's observer runs inside CountRow/AddSpillWork on the
//    query thread, so it always sees a consistent (Curr, LB, UB) snapshot:
//    there is no moment where a checkpoint can observe counters mid-update.
//  * `failed_` is the one flag worker tasks read (via TaskContext::ok(), to
//    stop early when the query dies under them); it is therefore an atomic.
//    It is only ever *written* by the query thread; relaxed ordering
//    suffices because tasks use it purely as a stop hint — correctness comes
//    from the fold, not from when a task notices.
//  * QueryGuard::RequestCancel / cancel_requested are atomic by design and
//    are polled by tasks directly for cooperative cancellation.
//
// The upshot: the "is this racy?" question for any counter is answered by
// who may call the method — everything except failed_ and the guard's cancel
// token is query-thread-only, and the TSan CI job enforces it.

#ifndef QPROG_EXEC_EXEC_CONTEXT_H_
#define QPROG_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "exec/query_guard.h"
#include "exec/work_context.h"
#include "obs/telemetry.h"

namespace qprog {

class FaultInjector;
class SpillManager;
class WorkerPool;

/// Outcome of a buffered-row charge against a context with an (optional)
/// spill manager attached — see ChargeBufferedRowsOrSpill.
enum class ChargeVerdict {
  kCharged,  // rows charged; keep buffering in memory
  kSpill,    // rows NOT charged; the soft budget is full — spill instead
  kFailed,   // sticky error raised (kill threshold, hard budget, or cascade)
};

class ExecContext final : public WorkContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Prepares counters for a plan with `num_nodes` operators and clears any
  /// sticky error from a previous execution. Guard and fault-injector wiring
  /// persists across Reset (they describe the query, not one run).
  void Reset(size_t num_nodes) {
    rows_produced_.assign(num_nodes, 0);
    spill_work_.assign(num_nodes, 0);
    work_ = 0;
    buffered_rows_ = 0;
    leaf_rows_ = 0;
    peak_buffered_rows_ = 0;
    failed_.store(false, std::memory_order_relaxed);
    status_ = OkStatus();
    next_observation_ = observer_ ? observation_interval_ : kNever;
    next_guard_check_ = guard_ ? guard_->check_interval() : kNever;
    RecomputeNextEvent();
    if (telemetry_ != nullptr) telemetry_->OnExecReset(num_nodes);
  }

  /// Called by an operator each time it returns a row. Fast path: one
  /// increment and one branch; observation and guard checks run out of line
  /// when `work_` crosses the next scheduled event. Query thread only.
  void CountRow(int node_id, bool is_root) {
    QPROG_DCHECK(node_id >= 0 &&
                 static_cast<size_t>(node_id) < rows_produced_.size());
    ++rows_produced_[static_cast<size_t>(node_id)];
    if (!is_root) {
      ++work_;
      if (work_ >= next_event_) OnWorkEvent(node_id);
    }
  }

  /// Rows produced so far by operator `node_id`.
  uint64_t rows_produced(int node_id) const {
    return rows_produced_[static_cast<size_t>(node_id)];
  }

  /// Total counted work so far (Curr in the paper's notation): getnext calls
  /// plus spill I/O passes (each spilled row written or re-read is one unit —
  /// the paper's dynamic-total(Q) semantics for operators that repartition).
  uint64_t work() const { return work_; }

  /// Counts `n` units of spill I/O work at `node_id` (rows written to or
  /// re-read from a spill run). Unlike CountRow, spill work counts at every
  /// node including the root: a spilling root sort really does extra passes.
  /// Query thread only — worker tasks log spill work into their TaskContext
  /// shard, which replays through here at the fold.
  void AddSpillWork(int node_id, uint64_t n) override {
    QPROG_DCHECK(node_id >= 0 &&
                 static_cast<size_t>(node_id) < spill_work_.size());
    spill_work_[static_cast<size_t>(node_id)] += n;
    work_ += n;
    if (work_ >= next_event_) OnWorkEvent(node_id);
  }

  /// Spill work units counted at `node_id` so far.
  uint64_t spill_work(int node_id) const {
    return spill_work_[static_cast<size_t>(node_id)];
  }

  /// Plan-wide spill work (the amount by which total(Q) has been revised
  /// upward so far by spill passes). Query thread only, like every counter
  /// read: the monitor's observer — the only concurrent-looking reader —
  /// actually runs synchronously inside CountRow/AddSpillWork.
  uint64_t total_spill_work() const {
    uint64_t sum = 0;
    for (uint64_t w : spill_work_) sum += w;
    return sum;
  }

  // -- error channel ----------------------------------------------------------

  /// True while no execution error has been recorded. Safe to call from any
  /// thread (worker tasks poll it as a stop hint); see the contract above.
  bool ok() const override { return !failed_.load(std::memory_order_relaxed); }

  /// The sticky execution status; OK until the first RaiseError. Query
  /// thread only (the value a task sees mid-flight could be torn).
  const Status& status() const { return status_; }

  /// Records an execution error. The first error wins; later ones (usually
  /// cascade noise from operators shutting down) are dropped. Query thread
  /// only — a worker task raises on its TaskContext and the fold brings the
  /// error here.
  void RaiseError(Status status) override {
    QPROG_DCHECK(!status.ok());
    if (!failed_.load(std::memory_order_relaxed)) {
      status_ = std::move(status);
      failed_.store(true, std::memory_order_release);
    }
  }

  // -- guardrails -------------------------------------------------------------

  /// Installs a resource guard (borrowed; may be null to remove). Checked at
  /// an amortized interval on the CountRow path and at every observation.
  void set_guard(QueryGuard* guard) {
    guard_ = guard;
    next_guard_check_ = guard_ ? guard_->check_interval() : kNever;
    RecomputeNextEvent();
  }
  QueryGuard* guard() const { return guard_; }

  /// Installs a fault injector (borrowed; may be null to remove).
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }
  FaultInjector* io_fault_injector() const override { return fault_injector_; }

  /// Consults the fault injector (if any) at a named site. Returns true when
  /// a fault fired — the fault's Status has been recorded as the execution
  /// error and the calling operator must stop producing. `node_id` (when
  /// >= 0) attributes a fired fault to that plan node in the telemetry.
  bool ConsultFault(const char* site, int node_id = -1) {
    if (fault_injector_ == nullptr) return false;
    return ConsultFaultSlow(site, node_id);
  }

  /// Attaches a spill manager (borrowed; may be null to remove). With one
  /// attached, blocking operators degrade to spilling when the guard's soft
  /// buffered-row budget fills (ChargeBufferedRowsOrSpill) instead of
  /// aborting. Persists across Reset, like the guard and fault injector.
  void set_spill_manager(SpillManager* manager) { spill_manager_ = manager; }
  SpillManager* spill_manager() const { return spill_manager_; }

  /// Attaches a worker pool (borrowed; may be null to remove): external sort
  /// runs its run-formation tasks on it, inline without one. Nothing else
  /// uses the pool, so results, total(Q) and traces are byte-identical at
  /// every pool size, pool 0 included (DESIGN.md §10). Persists across Reset.
  void set_worker_pool(WorkerPool* pool) { worker_pool_ = pool; }
  WorkerPool* worker_pool() const { return worker_pool_; }

  /// Charges `n` rows against the blocking-operator buffer budget. Returns
  /// false (with kResourceExhausted recorded) when the guard's buffered-row
  /// budget is exceeded, or when the execution has already failed. A failed
  /// charge leaves the account untouched: operators release exactly what
  /// they successfully charged, so the account drains to zero on any path.
  bool ChargeBufferedRows(uint64_t n);

  /// Memory-adaptive charge: like ChargeBufferedRows, but when a spill
  /// manager is attached and the charge would exceed the guard's soft budget,
  /// returns kSpill *without charging* — the operator must spill buffered
  /// state and retry or reroute rows to disk. The guard's separate kill
  /// threshold still aborts (kFailed) even with a spill manager attached.
  ChargeVerdict ChargeBufferedRowsOrSpill(uint64_t n);

  /// Post-spill charge for a spilling operator's minimum working set:
  /// checked against the guard's *kill* threshold only (the soft budget
  /// already did its job by triggering the spill). Returns false with
  /// kResourceExhausted recorded when the rows do not fit.
  bool ChargeBufferedRowsPostSpill(uint64_t n);

  /// Returns rows to the buffer budget (operator Close/rescan). Never
  /// releases leaf rows, so leaf_rows_ <= buffered_rows_ always holds.
  void ReleaseBufferedRows(uint64_t n) {
    const uint64_t held = buffered_rows_ - leaf_rows_;
    buffered_rows_ -= n < held ? n : held;
  }

  /// Charges `n` rows of a Grace leaf rebuilt from its spill runs (a join
  /// leaf's table, an aggregate leaf's groups). They count in
  /// buffered_rows(), in peak_buffered_rows() and against the kill
  /// threshold, like ChargeBufferedRowsPostSpill; every soft-budget
  /// comparison leaves them out, so the operators around a replaying leaf
  /// spill where they would with the leaf's table on disk. Returns false,
  /// with kResourceExhausted recorded, when they do not fit.
  bool ChargeLeafRows(uint64_t n);

  /// Returns leaf rows charged by ChargeLeafRows.
  void ReleaseLeafRows(uint64_t n) {
    if (n > leaf_rows_) n = leaf_rows_;
    leaf_rows_ -= n;
    buffered_rows_ -= n;
  }

  /// Rows currently buffered by blocking operators, plan-wide.
  uint64_t buffered_rows() const { return buffered_rows_; }

  /// Rows the plan may still buffer before the guard's kill threshold trips:
  /// kill - min(kill, buffered_rows()), or QueryGuard::kNoLimit when there is
  /// no guard or no kill threshold.
  uint64_t KillHeadroom() const {
    const uint64_t kill = guard_ != nullptr ? guard_->max_buffered_rows_kill()
                                            : QueryGuard::kNoLimit;
    if (kill == QueryGuard::kNoLimit) return kill;
    return kill - (buffered_rows_ < kill ? buffered_rows_ : kill);
  }

  /// High-water mark of `buffered_rows()` over this execution — the query's
  /// observed peak memory in the engine's buffered-row proxy. Reset() clears
  /// it; the ProgressMonitor copies it onto the ProgressReport, where it
  /// seeds the per-template admission priors (obs/cross_run_registry.h).
  uint64_t peak_buffered_rows() const { return peak_buffered_rows_; }

  // -- work observation -------------------------------------------------------

  /// Installs a callback fired once per `interval` units of work, with the
  /// scheduled crossing point (interval, 2*interval, ...) as argument. If a
  /// single counting burst crosses several intervals, the observer fires
  /// once per crossed interval. Used by the ProgressMonitor to take
  /// estimator checkpoints.
  void SetWorkObserver(uint64_t interval,
                       std::function<void(uint64_t)> observer) {
    QPROG_CHECK(interval > 0);
    observation_interval_ = interval;
    next_observation_ = interval;
    observer_ = std::move(observer);
    RecomputeNextEvent();
  }

  void ClearWorkObserver() {
    observer_ = nullptr;
    observation_interval_ = 0;
    next_observation_ = kNever;
    RecomputeNextEvent();
  }

  // -- telemetry ---------------------------------------------------------------

  /// Attaches a telemetry collector (borrowed; may be null to remove). With
  /// no collector attached, instrumentation costs one null-pointer branch per
  /// operator call. The collector is re-armed by Reset().
  void set_telemetry(TelemetryCollector* telemetry) { telemetry_ = telemetry; }
  TelemetryCollector* telemetry() const { return telemetry_; }

  // -- WorkContext telemetry forwarding (spill layer; query thread only) ------

  void OnSpillEnd(int node, const std::string& phase, uint64_t rows,
                  uint64_t bytes) override {
    if (telemetry_ != nullptr) {
      telemetry_->RecordSpillEnd(node, work_, phase, rows, bytes);
    }
  }
  void OnSpillRead(int node, uint64_t rows) override {
    if (telemetry_ != nullptr) telemetry_->RecordSpillRead(node, rows);
  }
  void OnIoRetry(int node, const char* site, uint64_t attempt) override {
    if (telemetry_ != nullptr) {
      telemetry_->RecordIoRetry(node, work_, site, attempt);
    }
  }
  void OnIoFault(int node, const char* site,
                 const std::string& message) override {
    if (telemetry_ != nullptr) {
      telemetry_->RecordFault(node, work_, site, message);
    }
  }

 private:
  static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

  // Slow paths, out of line (exec_context.cc). `node_id` is the node whose
  // counted row crossed the event threshold / hit the fault site — the node
  // guard trips and faults are attributed to.
  void OnWorkEvent(int node_id);
  bool ConsultFaultSlow(const char* site, int node_id);

  /// Folds the next observation, next guard check and work-budget trip point
  /// into the single `next_event_` the fast path branches on.
  void RecomputeNextEvent() {
    uint64_t next = next_observation_;
    if (next_guard_check_ < next) next = next_guard_check_;
    if (guard_ != nullptr && guard_->max_work() < next) {
      next = guard_->max_work();
    }
    next_event_ = next;
  }

  std::vector<uint64_t> rows_produced_;
  std::vector<uint64_t> spill_work_;
  uint64_t work_ = 0;
  uint64_t buffered_rows_ = 0;
  uint64_t leaf_rows_ = 0;  // the part of buffered_rows_ in Grace leaves
  uint64_t peak_buffered_rows_ = 0;

  uint64_t observation_interval_ = 0;
  uint64_t next_observation_ = kNever;
  uint64_t next_guard_check_ = kNever;
  uint64_t next_event_ = kNever;
  // Kept on the same cache line as the work counters above: the operator
  // wrappers test this pointer on every getnext call, and the line is already
  // resident from CountRow's work_/next_event_ accesses.
  TelemetryCollector* telemetry_ = nullptr;
  std::function<void(uint64_t)> observer_;

  // Written by the query thread only; read by worker tasks as a stop hint
  // (see the threading contract in the file comment).
  std::atomic<bool> failed_{false};
  Status status_;
  QueryGuard* guard_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
  SpillManager* spill_manager_ = nullptr;
  WorkerPool* worker_pool_ = nullptr;
};

}  // namespace qprog

#endif  // QPROG_EXEC_EXEC_CONTEXT_H_
