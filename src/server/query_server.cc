#include "server/query_server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "exec/spill.h"
#include "obs/eta_model.h"
#include "obs/telemetry.h"
#include "sql/fingerprint.h"

namespace qprog {

QueryServer::QueryServer(const Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      registry_(options_.cross_run != nullptr ? options_.cross_run
                                              : &local_registry_),
      governor_(options_.governor),
      admission_(options_.admission, registry_) {
  QPROG_CHECK(db_ != nullptr);
  QPROG_CHECK(options_.sessions > 0);
  QPROG_CHECK(options_.checkpoint_interval > 0);
  threads_.reserve(options_.sessions);
  for (size_t i = 0; i < options_.sessions; ++i) {
    threads_.emplace_back(&QueryServer::SessionLoop, this);
  }
}

QueryServer::~QueryServer() { Shutdown(); }

void QueryServer::RegisterTenant(const std::string& tenant,
                                 TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  tenants_[tenant].quota = quota;
}

std::vector<std::string> QueryServer::ResolveEstimatorNames(
    const std::vector<std::string>& specs) const {
  const std::vector<std::string>& s =
      specs.empty() ? options_.estimators : specs;
  std::vector<std::string> names;
  names.reserve(s.size());
  for (const std::string& spec : s) {
    names.push_back(spec.substr(0, spec.find(':')));
  }
  return names;
}

uint64_t QueryServer::Submit(const std::string& tenant,
                             const std::string& query, SubmitOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.IncrementCounter("queries_submitted");
  uint64_t id = next_ticket_++;
  auto owned = std::make_unique<Ticket>();
  Ticket* t = owned.get();
  t->id = id;
  t->tenant = tenant;
  t->query = query;
  t->opts = std::move(opts);
  t->fingerprint = sql::TemplateFingerprint(query);
  t->estimator_names = ResolveEstimatorNames(t->opts.estimators);
  if (options_.cross_run != nullptr) {
    // Resolve "auto" once, here, from the registry state at submission: the
    // pick rides on the ticket into the session (QueryOptions::auto_pick),
    // so the fleet row and the run agree even though concurrent runs keep
    // updating the registry between Submit and execution.
    const std::vector<std::string>& specs =
        t->opts.estimators.empty() ? options_.estimators : t->opts.estimators;
    for (const std::string& spec : specs) {
      if (spec != "auto") continue;
      t->auto_pick = options_.cross_run->SelectEstimator(
          t->fingerprint, options_.cross_run_min_runs);
      CrossRunTemplateStats stats =
          options_.cross_run->Lookup(t->fingerprint);
      auto es = stats.estimators.find(t->auto_pick);
      if (es != stats.estimators.end() &&
          es->second.runs >= options_.cross_run_min_runs) {
        t->auto_rms_error = es->second.RmsError();
      }
      break;
    }
  }
  tickets_.emplace(id, std::move(owned));

  if (draining_) {
    SetStubResult(t, Unavailable("server draining: submission rejected"),
                  TerminationReason::kCancelled);
    t->state = FleetQueryInfo::State::kDone;
    t->done = true;
    t->result.admission = t->admission;
    done_cv_.notify_all();
    return id;
  }

  TenantState& ten = tenants_[tenant];  // default quota on first sight
  AdmissionController::Load load;
  load.queued = queue_.size();
  load.running = running_;
  load.inflight_predicted_rows = inflight_predicted_rows_;
  load.pool_rows = governor_.pool_rows();
  load.tenant_inflight = ten.inflight;
  load.tenant_inflight_predicted_rows = ten.inflight_predicted_rows;
  t->admission = admission_.Decide(t->fingerprint, ten.quota, load);
  t->result.admission = t->admission;

  if (t->admission.action == AdmissionAction::kShed) {
    // Shed: the query never touches the engine. The result carries
    // kResourceExhausted plus a *sanitized* partial report — estimator
    // names, termination, status; no checkpoints, no plan figures.
    SetStubResult(t,
                  ResourceExhausted(std::string("query shed at admission (") +
                                    t->admission.reason +
                                    "); retry after hint in decision"),
                  TerminationReason::kBudgetExhausted);
    t->state = FleetQueryInfo::State::kDone;
    t->done = true;
    ++ten.shed;
    ++shed_count_;
    metrics_.IncrementCounter("queries_shed");
    done_cv_.notify_all();
    return id;
  }

  ++ten.inflight;
  ten.inflight_predicted_rows += t->admission.predicted_peak_rows;
  inflight_predicted_rows_ += t->admission.predicted_peak_rows;
  queue_.push_back(id);
  work_cv_.notify_one();
  return id;
}

void QueryServer::SetStubResult(Ticket* t, Status status,
                                TerminationReason termination) {
  t->result.status = std::move(status);
  t->result.report.names = t->estimator_names;
  t->result.report.termination = termination;
  t->result.report.status = t->result.status;
}

void QueryServer::FinishLocked(Ticket* t, FleetQueryInfo::State state) {
  t->state = state;
  t->done = true;
  TenantState& ten = tenants_[t->tenant];
  QPROG_CHECK(ten.inflight > 0);
  --ten.inflight;
  ten.inflight_predicted_rows -= t->admission.predicted_peak_rows;
  inflight_predicted_rows_ -= t->admission.predicted_peak_rows;
  ++ten.completed;
  ++done_count_;
  metrics_.IncrementCounter("queries_done");
  done_cv_.notify_all();
}

void QueryServer::SessionLoop() {
  for (;;) {
    Ticket* t = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (draining_) return;
        continue;
      }
      uint64_t id = queue_.front();
      queue_.pop_front();
      t = tickets_.at(id).get();
      if (t->cancel_requested) {
        SetStubResult(t, Cancelled("query cancelled while queued"),
                      TerminationReason::kCancelled);
        FinishLocked(t, FleetQueryInfo::State::kDone);
        continue;
      }
      t->state = FleetQueryInfo::State::kRunning;
      ++running_;
    }

    RunTicket(t);

    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      FinishLocked(t, FleetQueryInfo::State::kDone);
      // A release may have made queued work grantable.
      work_cv_.notify_all();
    }
  }
}

void QueryServer::RunTicket(Ticket* t) {
  QueryGuard guard;
  // Register the guard before Acquire so Cancel() can reach a ticket blocked
  // on the governor (RequestCancel + Poke unblocks the wait).
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->running_guard = &guard;
    if (t->cancel_requested) guard.RequestCancel();
  }
  uint64_t want;
  if (t->opts.soft_budget_rows > 0) {
    want = t->opts.soft_budget_rows;
  } else if (governor_.pool_rows() == QueryGuard::kNoLimit) {
    // Arbitration disabled and no explicit ask: leave the query unbounded
    // rather than imposing the admission prediction as a spill threshold.
    want = QueryGuard::kNoLimit;
  } else {
    want = t->admission.predicted_peak_rows;
  }
  MemoryGovernor::Grant grant = governor_.Acquire(&guard, want);
  if (grant.id == 0 && guard.cancel_requested()) {
    SetStubResult(t, Cancelled("query cancelled awaiting memory grant"),
                  TerminationReason::kCancelled);
    std::lock_guard<std::mutex> lock(mu_);
    t->running_guard = nullptr;
    return;
  }
  // Pre-execution configuration (not concurrently safe members): kill
  // threshold, work budget, deadline.
  guard.set_max_buffered_rows_kill(
      t->opts.kill_rows > 0 ? t->opts.kill_rows : options_.kill_rows);
  if (t->opts.max_work != QueryGuard::kNoLimit) {
    guard.set_max_work(t->opts.max_work);
  }
  if (t->opts.timeout.count() > 0) guard.set_timeout(t->opts.timeout);

  {
    std::lock_guard<std::mutex> lock(mu_);
    t->granted_rows = grant.rows;
    t->result.granted_rows = grant.rows;
  }

  // Per-ticket execution environment: its own guard and spill manager, so a
  // fault, abort, or leaked spill state in this query cannot leak into any
  // other session's run.
  SpillManager spill(options_.spill_dir);
  // Per-ticket ETA model: real clock, trace off (the fleet never records
  // wall-clock events into a query's byte-identical trace).
  EtaModel eta;
  sql::SessionOptions so;
  // Engine-knob spine (worker_pool) copies from the server defaults in one
  // assignment; a per-submission pool override then wins over the
  // fleet-wide default.
  static_cast<ExecutionConfig&>(so) = options_;
  if (t->opts.worker_pool != nullptr) so.worker_pool = t->opts.worker_pool;
  so.estimators = options_.estimators;
  so.checkpoint_interval = options_.checkpoint_interval;
  so.guard = &guard;
  so.fault_injector = t->opts.fault_injector;
  so.spill_manager = &spill;
  so.telemetry = t->opts.telemetry;
  so.cross_run = registry_;
  // Only a caller-attached registry is read back into runs; the server's
  // own registry feeds admission alone.
  so.cross_run_feedback = options_.cross_run != nullptr;
  so.cross_run_min_runs = options_.cross_run_min_runs;
  so.eta_model = &eta;
  sql::SqlSession session(db_, so);

  uint64_t run_start_ns = MonotonicNanos();
  if (t->opts.monitored) {
    sql::QueryOptions qo;
    qo.estimators = t->opts.estimators;
    qo.checkpoint_interval = t->opts.checkpoint_interval;
    qo.auto_pick = t->auto_pick;
    qo.checkpoint_listener = [this, t](const Checkpoint& cp) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        t->latest_work = cp.work;
        t->latest_estimates = cp.estimates;
        t->latest_lb = cp.work_lb;
        t->latest_ub = cp.work_ub;
        t->latest_eta_s = cp.eta_seconds;
        t->latest_eta_lo_s = cp.eta_lo_seconds;
        t->latest_eta_hi_s = cp.eta_hi_seconds;
      }
      // User listener outside the lock: it may call back into the server
      // (e.g. Cancel for deterministic work-indexed cancellation).
      if (t->opts.checkpoint_listener) t->opts.checkpoint_listener(cp);
    };
    StatusOr<ProgressReport> report = session.ExecuteMonitored(t->query, qo);
    if (report.ok()) {
      t->result.report = std::move(report).value();
      t->result.status = t->result.report.status;
    } else {
      // Parse/plan/spec failure: no report beyond the sanitized stub.
      SetStubResult(t, report.status(), TerminationFromStatus(report.status()));
    }
  } else {
    StatusOr<sql::QueryRows> rows = session.Execute(t->query);
    if (rows.ok()) {
      t->result.rows = std::move(rows->rows);
      t->result.strings = std::move(rows->strings);
      t->result.status = OkStatus();
    } else {
      t->result.status = rows.status();
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    t->running_guard = nullptr;
    metrics_.histogram("query_wall_ns")
        ->Record(static_cast<double>(MonotonicNanos() - run_start_ns));
  }
  governor_.Release(grant);
}

QueryResult QueryServer::Wait(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tickets_.find(ticket);
  QPROG_CHECK(it != tickets_.end());
  Ticket* t = it->second.get();
  done_cv_.wait(lock, [&] { return t->done; });
  // The rows and their strings leave the ticket; the status, report and
  // counters stay for Fleet() and later Waits.
  std::vector<Row> rows = std::move(t->result.rows);
  t->result.rows.clear();
  std::shared_ptr<const StringArena> strings = std::move(t->result.strings);
  QueryResult result = t->result;
  result.rows = std::move(rows);
  result.strings = std::move(strings);
  return result;
}

void QueryServer::Cancel(uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tickets_.find(ticket);
  if (it == tickets_.end()) return;
  Ticket* t = it->second.get();
  if (t->done) return;
  t->cancel_requested = true;
  if (t->running_guard != nullptr) t->running_guard->RequestCancel();
  // A ticket blocked inside MemoryGovernor::Acquire re-checks its guard's
  // cancel token when poked. Queued-but-unclaimed tickets are finished by
  // the session thread that pops them.
  governor_.Poke();
}

FleetReport QueryServer::Fleet() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetReport fleet;
  fleet.sessions = options_.sessions;
  fleet.queued = queue_.size();
  fleet.running = running_;
  fleet.done = done_count_;
  fleet.shed = shed_count_;
  fleet.pool_rows = governor_.pool_rows();
  fleet.granted_rows = governor_.granted_rows();
  fleet.revocations = governor_.revocations();
  fleet.estimator_specs = ListEstimatorSpecs();

  // Queue positions in FIFO order.
  std::map<uint64_t, size_t> position;
  for (size_t i = 0; i < queue_.size(); ++i) position[queue_[i]] = i;

  double running_drain_s = 0;   // slowest running query's eta_hi
  double queued_work_s = 0;     // queued work at historical mean wall time
  fleet.queries.reserve(tickets_.size());
  for (const auto& [id, owned] : tickets_) {
    const Ticket& t = *owned;
    FleetQueryInfo info;
    info.ticket = t.id;
    info.tenant = t.tenant;
    info.state = t.state;
    info.admission = t.admission.action;
    info.predicted_peak_rows = t.admission.predicted_peak_rows;
    info.granted_rows = t.granted_rows;
    info.estimator_names = t.estimator_names;
    info.auto_pick = t.auto_pick;
    info.auto_rms_error = t.auto_rms_error;
    switch (t.state) {
      case FleetQueryInfo::State::kQueued: {
        auto pos = position.find(t.id);
        info.queue_position = pos != position.end() ? pos->second : 0;
        // Predicted wait: this template's historical mean wall time, scaled
        // by how much of the queue is ahead of it per session thread. A
        // display hint only — decisions never read wall time.
        bool found = false;
        WorkloadStats stats = registry_->LookupWorkload(t.fingerprint, &found);
        uint64_t mean_ns = found ? stats.MeanWallNanos() : 0;
        info.predicted_wait_ns =
            mean_ns * (info.queue_position / options_.sessions + 1);
        queued_work_s += static_cast<double>(mean_ns) / 1e9;
        break;
      }
      case FleetQueryInfo::State::kRunning:
        info.work = t.latest_work;
        info.estimates = t.latest_estimates;
        info.work_lb = t.latest_lb;
        info.work_ub = t.latest_ub;
        info.eta_seconds = t.latest_eta_s;
        info.eta_lo_seconds = t.latest_eta_lo_s;
        info.eta_hi_seconds = t.latest_eta_hi_s;
        if (std::isfinite(t.latest_eta_hi_s)) {
          running_drain_s = std::max(running_drain_s, t.latest_eta_hi_s);
        }
        break;
      case FleetQueryInfo::State::kDone:
        info.status = t.result.status;
        break;
    }
    fleet.queries.push_back(std::move(info));
  }
  // Drain hint: running work bounded by the slowest upper band; queued work
  // spread across the session threads at its historical mean wall time.
  fleet.predicted_drain_seconds =
      running_drain_s + queued_work_s / static_cast<double>(options_.sessions);
  fleet.metrics_text = metrics_.DumpPrometheus();
  return fleet;
}

void QueryServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ && threads_.empty()) return;
    draining_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

uint64_t QueryServer::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_ticket_ - 1;
}

uint64_t QueryServer::shed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_count_;
}

}  // namespace qprog
