// QueryServer: the multi-tenant execution layer — N concurrent sessions over
// the SQL layer, with admission control, a global memory governor, per-tenant
// quotas, load shedding, graceful drain, and fleet-level progress reporting.
//
// Life of a query:
//   Submit(tenant, sql)             caller thread, under the server mutex
//     -> fingerprint + predicted peak rows (admission.h priors)
//     -> AdmissionDecision: admit / queue / shed
//        shed  -> ticket finishes immediately: kResourceExhausted, a
//                 retry-after hint, and a *sanitized* partial ProgressReport
//                 (estimator names + termination + status; no checkpoints,
//                 no plan figures — the query never touched the engine)
//        admit/queue -> FIFO run queue by ticket id
//   session thread pops the ticket
//     -> MemoryGovernor::Acquire (may revoke headroom from running victims)
//     -> per-ticket QueryGuard + SpillManager + SqlSession: one query's
//        fault, abort, or spill cannot touch another session's state
//        (cross-query fault isolation); guardrail aborts come back as the
//        report's status, engine faults as the ticket's status
//     -> governor Release, priors recorded, waiters notified
//   Wait(ticket) returns the QueryResult; Fleet() snapshots every ticket's
//   state — latest estimator output for running queries, queue position and
//   predicted-wait hint for queued ones, pool occupancy for the whole fleet.
//
// Determinism: admission decisions are made at submission time from
// deterministic inputs only (see admission.h); for a fixed seed and a fixed
// submission sequence the decisions replay exactly. Execution-side
// determinism is per query: a ticket run with an explicit soft_budget_rows
// and its own fault injector / telemetry produces byte-identical traces to a
// solo run of the same query, whatever else the fleet is doing — unless the
// governor actually revokes its headroom, which changes *when* it spills but
// never the rows it returns nor the Curr <= LB <= UB invariant.
//
// Shutdown() (and the destructor) drains gracefully: no new submissions,
// queued + running work finishes, session threads join.

#ifndef QPROG_SERVER_QUERY_SERVER_H_
#define QPROG_SERVER_QUERY_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.h"
#include "obs/metrics_registry.h"
#include "obs/cross_run_registry.h"
#include "server/admission.h"
#include "server/memory_governor.h"
#include "server/tenant.h"
#include "sql/session.h"
#include "storage/catalog.h"
#include "types/string_arena.h"

namespace qprog {

/// The engine knob (worker_pool) rides on the shared ExecutionConfig base
/// and is forwarded to every session: it is the fleet-wide default pool (a
/// per-submission SubmitOptions::worker_pool overrides it).
struct ServerOptions : ExecutionConfig {
  /// Concurrent session threads (the fleet's parallelism). 1 serializes
  /// execution entirely — useful for deterministic end-to-end tests.
  size_t sessions = 4;

  GovernorOptions governor;
  AdmissionOptions admission;

  /// Defaults applied to every query unless its SubmitOptions override them.
  std::vector<std::string> estimators = {"dne", "safe"};
  uint64_t checkpoint_interval = 1000;
  /// Per-query kill threshold (hard buffered-row ceiling once spilling).
  uint64_t kill_rows = QueryGuard::kNoLimit;
  /// Spill directory for per-query SpillManagers ("" = $TMPDIR).
  std::string spill_dir;

  /// Quota for tenants never registered explicitly.
  TenantQuota default_quota;

  /// Per-template store (obs/cross_run_registry.h), shared and
  /// caller-owned. Every run records into it and admission predicts from
  /// it, so with a log attached the predictions survive a restart. When
  /// attached, sessions also read it back (prior feedback; see
  /// sql/session.h), and an "auto" estimator spec is resolved per ticket at
  /// Submit time — the pick rides on the ticket, so the fleet display and
  /// the run agree even while concurrent runs keep learning. Null: the
  /// server records into a memory-only registry of its own that feeds
  /// admission alone, so runs never re-seed estimates or resolve "auto"
  /// from history.
  CrossRunRegistry* cross_run = nullptr;
  uint64_t cross_run_min_runs = 3;
};

/// Per-submission overrides. All pointers are borrowed and must outlive the
/// query's execution (i.e. until Wait() returns for its ticket).
struct SubmitOptions {
  /// false: plain execution, result rows returned in QueryResult::rows.
  /// true: monitored run (checkpoints + estimators), rows are consumed by
  /// the monitor and only counted.
  bool monitored = true;

  std::vector<std::string> estimators;  // empty = server defaults
  uint64_t checkpoint_interval = 0;     // 0 = server default

  /// Explicit soft-budget ask, replacing the admission prediction as the
  /// governor ask. Tests use this to pin a query's spill behavior to its
  /// solo run.
  uint64_t soft_budget_rows = 0;

  uint64_t max_work = QueryGuard::kNoLimit;
  uint64_t kill_rows = 0;  // 0 = server default
  std::chrono::nanoseconds timeout{0};  // 0 = none

  FaultInjector* fault_injector = nullptr;  // this query's fault schedule
  TelemetryCollector* telemetry = nullptr;  // this query's trace sink
  WorkerPool* worker_pool = nullptr;        // intra-query parallelism

  /// Called on the query thread at every checkpoint (after the server's own
  /// fleet-state update, outside its lock) — tests use it to observe bounds
  /// live or to trigger deterministic work-indexed cancellation.
  std::function<void(const Checkpoint&)> checkpoint_listener;
};

/// Everything one finished ticket produced.
struct QueryResult {
  /// OK, the guardrail/fault status of an aborted run, kResourceExhausted
  /// for a shed submission, or kUnavailable for a submission during drain.
  Status status;
  AdmissionDecision admission;
  /// Monitored runs: the full report (partial on abort). Shed submissions:
  /// a sanitized stub (names/termination/status only). Plain runs: empty.
  ProgressReport report;
  /// Plain (monitored == false) successful runs only.
  std::vector<Row> rows;
  /// Owns the bytes of every VARCHAR in `rows`: the rows stay valid after
  /// the query's plan and spill manager are gone.
  std::shared_ptr<const StringArena> strings;
  uint64_t granted_rows = 0;  // governor grant the run started with
};

/// One ticket's row in the fleet report.
struct FleetQueryInfo {
  uint64_t ticket = 0;
  std::string tenant;
  enum class State { kQueued, kRunning, kDone } state = State::kQueued;
  AdmissionAction admission = AdmissionAction::kAdmit;
  uint64_t predicted_peak_rows = 0;
  uint64_t granted_rows = 0;

  // kQueued:
  size_t queue_position = 0;
  /// Hint only (wall-clock prior x position / sessions); never feeds any
  /// decision.
  uint64_t predicted_wait_ns = 0;

  /// Auto-selection (only when an "auto" spec was submitted with a cross-run
  /// registry attached): the fixed estimator picked for this template at
  /// Submit time, and its historical RMS terminal error (-1 for a cold
  /// template running the fallback).
  std::string auto_pick;
  double auto_rms_error = -1;

  // kRunning (latest checkpoint, if any yet):
  uint64_t work = 0;
  std::vector<std::string> estimator_names;
  std::vector<double> estimates;
  double work_lb = 0;
  double work_ub = 0;
  /// Latest calibrated wall-clock band from the ticket's EtaModel; all
  /// +infinity before the first checkpoint (renderers show "--").
  double eta_seconds = std::numeric_limits<double>::infinity();
  double eta_lo_seconds = std::numeric_limits<double>::infinity();
  double eta_hi_seconds = std::numeric_limits<double>::infinity();

  // kDone:
  Status status;
};

struct FleetReport {
  std::vector<FleetQueryInfo> queries;  // ticket order
  size_t sessions = 0;
  size_t queued = 0;
  size_t running = 0;
  uint64_t done = 0;
  uint64_t shed = 0;
  uint64_t pool_rows = 0;
  uint64_t granted_rows = 0;
  uint64_t revocations = 0;
  /// Fleet drain projection, a display hint only: the slowest running
  /// query's eta_hi plus the queued work priced at each template's
  /// historical mean wall time spread over the session threads. 0 when the
  /// fleet is idle or nothing has a finite projection yet.
  double predicted_drain_seconds = 0;
  /// Prometheus text exposition of the server's own counters/latencies
  /// (MetricsRegistry::DumpPrometheus) — one scrape-ready page per
  /// Fleet() call.
  std::string metrics_text;
  /// The estimator catalog (core/estimators.h ListEstimatorSpecs): every
  /// spec the server accepts in ServerOptions::estimators or
  /// SubmitOptions::estimators, with syntax and a one-line description.
  std::vector<EstimatorSpecInfo> estimator_specs;
};

class QueryServer {
 public:
  /// `db` is borrowed and must outlive the server.
  QueryServer(const Database* db, ServerOptions options = ServerOptions());
  ~QueryServer();  // graceful drain

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Installs (or replaces) a tenant's quota. Unregistered tenants get
  /// options().default_quota on first submission.
  void RegisterTenant(const std::string& tenant, TenantQuota quota);

  /// Admission-checks and enqueues (or sheds) the query; returns its ticket
  /// immediately. Never blocks on execution.
  uint64_t Submit(const std::string& tenant, const std::string& query,
                  SubmitOptions opts = SubmitOptions());

  /// Blocks until the ticket finishes (done, shed, or cancelled), then
  /// returns its result. The rows and their strings move out of the ticket,
  /// so a finished ticket holds no result rows: a repeated Wait returns the
  /// same status, report and counters with no rows.
  QueryResult Wait(uint64_t ticket);

  /// Cooperative cancel: a queued ticket finishes kCancelled without
  /// running; a running one is cancelled through its guard.
  void Cancel(uint64_t ticket);

  /// Snapshot of every ticket plus fleet totals.
  FleetReport Fleet() const;

  /// Stops admitting, finishes queued + running work, joins the session
  /// threads. Idempotent.
  void Shutdown();

  const ServerOptions& options() const { return options_; }
  /// The per-template store admission predicts from: options().cross_run
  /// when attached, else the server's own memory-only registry.
  const CrossRunRegistry& registry() const { return *registry_; }
  const MemoryGovernor& governor() const { return governor_; }
  uint64_t submitted() const;
  uint64_t shed_total() const;

 private:
  struct TenantState {
    TenantQuota quota;
    uint64_t inflight = 0;  // queued + running
    uint64_t inflight_predicted_rows = 0;
    uint64_t shed = 0;
    uint64_t completed = 0;
  };

  struct Ticket {
    uint64_t id = 0;
    std::string tenant;
    std::string query;
    uint64_t fingerprint = 0;
    SubmitOptions opts;
    AdmissionDecision admission;
    std::string auto_pick;       // Submit-time auto resolution ("" = no auto)
    double auto_rms_error = -1;  // pick's historical RMS error (-1 = cold)
    FleetQueryInfo::State state = FleetQueryInfo::State::kQueued;
    bool done = false;
    bool cancel_requested = false;
    QueryGuard* running_guard = nullptr;  // non-null only while running
    uint64_t granted_rows = 0;
    // Latest checkpoint, mirrored for Fleet().
    uint64_t latest_work = 0;
    std::vector<double> latest_estimates;
    double latest_lb = 0;
    double latest_ub = 0;
    double latest_eta_s = std::numeric_limits<double>::infinity();
    double latest_eta_lo_s = std::numeric_limits<double>::infinity();
    double latest_eta_hi_s = std::numeric_limits<double>::infinity();
    std::vector<std::string> estimator_names;
    QueryResult result;
  };

  void SessionLoop();
  void RunTicket(Ticket* t);
  /// Fills a result for a query that produced no report of its own (drain,
  /// shed, cancel before running, parse/plan failure): the status plus a
  /// sanitized report stub of estimator names, termination and status.
  static void SetStubResult(Ticket* t, Status status,
                            TerminationReason termination);
  /// Finalizes a ticket under mu_: ledger, tenant accounting, wakeups.
  void FinishLocked(Ticket* t, FleetQueryInfo::State state);
  /// Estimator display names ("hybrid:2.5" -> "hybrid") for sanitized
  /// reports and Fleet rows before the first checkpoint.
  std::vector<std::string> ResolveEstimatorNames(
      const std::vector<std::string>& specs) const;

  const Database* db_;
  ServerOptions options_;
  CrossRunRegistry local_registry_;  // used when options_.cross_run is null
  CrossRunRegistry* registry_;       // options_.cross_run or &local_registry_
  MemoryGovernor governor_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  /// Server-wide counters + latency histograms (queries submitted / shed /
  /// done, query wall time). MetricsRegistry is not thread-safe; every
  /// access is under mu_.
  MetricsRegistry metrics_;
  std::condition_variable work_cv_;  // session threads: queue / drain
  std::condition_variable done_cv_;  // Wait(): ticket completion
  std::map<uint64_t, std::unique_ptr<Ticket>> tickets_;  // id order
  std::deque<uint64_t> queue_;  // FIFO by ticket id
  std::map<std::string, TenantState> tenants_;
  std::vector<std::thread> threads_;
  bool draining_ = false;
  uint64_t next_ticket_ = 1;
  size_t running_ = 0;
  uint64_t inflight_predicted_rows_ = 0;
  uint64_t done_count_ = 0;
  uint64_t shed_count_ = 0;
};

}  // namespace qprog

#endif  // QPROG_SERVER_QUERY_SERVER_H_
