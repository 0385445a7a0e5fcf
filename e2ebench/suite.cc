#include "suite.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "common/macros.h"
#include "core/estimators.h"
#include "core/monitor.h"
#include "exec/exec_context.h"
#include "exec/query_guard.h"
#include "exec/spill.h"
#include "obs/metrics_registry.h"

namespace e2e {
namespace {

using qprog::MonotonicNanos;

constexpr uint64_t kCheckpointsPerQuery = 100;
constexpr size_t kBatchSize = 1024;

struct SpillTotals {
  double bytes_written = 0, disk_bytes = 0, runs = 0, io_retries = 0;
  void Add(const qprog::SpillStats& s) {
    bytes_written += static_cast<double>(s.bytes_written.load());
    disk_bytes += static_cast<double>(s.disk_bytes_written.load());
    runs += static_cast<double>(s.runs_created.load());
    io_retries += static_cast<double>(s.io_retries.load());
  }
};

/// One unmonitored exec::Drive.
struct DriveOutcome {
  qprog::Status status;
  Digest digest;
  uint64_t work = 0;
  uint64_t peak_buffered_rows = 0;
  uint64_t ns = 0;  // plan build + drive + teardown
};

DriveOutcome DriveOnce(const SuiteQuery& query, const Env* env,
                       size_t batch_size) {
  DriveOutcome out;
  uint64_t t0 = MonotonicNanos();
  {
    qprog::PhysicalPlan plan = query.plan();
    qprog::ExecContext ctx;
    qprog::QueryGuard guard;
    std::unique_ptr<qprog::SpillManager> spill;
    if (env != nullptr && env->budgeted()) {
      guard.set_max_buffered_rows(env->soft_budget_rows);
      spill = std::make_unique<qprog::SpillManager>(env->spill_dir);
      ctx.set_guard(&guard);
      ctx.set_spill_manager(spill.get());
    }
    if (env != nullptr) ctx.set_worker_pool(env->pool);
    qprog::exec::DriveOptions drive;
    drive.ctx = &ctx;
    drive.batch_size = batch_size;
    drive.sink = [&out](const qprog::Row& row) { out.digest.Add(row); };
    out.status = qprog::exec::Drive(&plan, drive).status;
    out.work = ctx.work();
    out.peak_buffered_rows = ctx.peak_buffered_rows();
  }
  out.ns = MonotonicNanos() - t0;
  return out;
}

struct MonitorOutcome {
  qprog::Status status;
  uint64_t rows = 0;
  uint64_t work = 0;
  uint64_t spill_work = 0;
  double dne_avg_err = 0;
  double safe_max_ratio_err = 0;
  uint64_t ns = 0;
  SpillTotals spill;
};

struct Tracing {
  qprog::MetricsRegistry* registry = nullptr;
  std::map<qprog::OpKind, KindTotals>* kinds = nullptr;
};

MonitorOutcome MonitorOnce(const SuiteQuery& query, const Env& env,
                           uint64_t interval, qprog::EtaCalibration* cal,
                           const Tracing* tracing) {
  struct Claim {
    uint64_t work;
    qprog::EtaBand band;
    uint64_t at_ns;
  };
  std::vector<Claim> claims;
  claims.reserve(kCheckpointsPerQuery + 8);
  MonitorOutcome out;
  uint64_t t0 = MonotonicNanos();
  uint64_t run_end = 0;
  {
    qprog::PhysicalPlan plan = query.plan();
    qprog::QueryGuard guard;
    std::unique_ptr<qprog::SpillManager> spill;
    qprog::EtaModel eta;
    qprog::TelemetryCollector telemetry;
    qprog::MonitorOptions mo;
    mo.eta_model = &eta;
    mo.worker_pool = env.pool;
    mo.checkpoint_listener = [&claims](const qprog::Checkpoint& cp) {
      claims.push_back({cp.work,
                        {cp.eta_seconds, cp.eta_lo_seconds, cp.eta_hi_seconds},
                        MonotonicNanos()});
    };
    if (env.budgeted()) {
      guard.set_max_buffered_rows(env.soft_budget_rows);
      spill = std::make_unique<qprog::SpillManager>(env.spill_dir);
      mo.guard = &guard;
      mo.spill_manager = spill.get();
    }
    if (tracing != nullptr) {
      mo.telemetry = &telemetry;
      mo.metrics_registry = tracing->registry;
    }
    qprog::ProgressMonitor monitor = qprog::ProgressMonitor::WithEstimators(
        &plan, qprog::AllEstimatorNames(), std::move(mo));
    qprog::ProgressReport report = monitor.Run(interval);
    run_end = MonotonicNanos();
    out.status = report.status;
    out.rows = report.root_rows;
    out.work = report.total_work;
    out.spill_work = report.spill_work;
    if (report.completed()) {
      out.dne_avg_err =
          report.Metrics(static_cast<size_t>(report.FindEstimator("dne")))
              .avg_abs_err;
      out.safe_max_ratio_err =
          report.Metrics(static_cast<size_t>(report.FindEstimator("safe")))
              .max_ratio_err;
    }
    if (spill) out.spill.Add(spill->stats());
    if (tracing != nullptr) AddKindTotals(plan, telemetry, tracing->kinds);
  }
  out.ns = MonotonicNanos() - t0;
  if (cal != nullptr && out.status.ok() && out.work > 0) {
    for (const Claim& c : claims) {
      qprog::EtaCalibrationSample sample;
      sample.progress =
          static_cast<double>(c.work) / static_cast<double>(out.work);
      sample.band = c.band;
      sample.actual_remaining_s = Seconds(run_end - c.at_ns);
      cal->Add(sample);
    }
  }
  return out;
}

void CheckMonitored(const std::string& name, const char* what,
                    const MonitorOutcome& m, Expected* e, Result* result) {
  result->Attempt();
  if (!m.status.ok()) {
    result->Fail(name + " " + what + ": " + m.status.ToString(), false);
    return;
  }
  if (m.rows != e->digest.rows) {
    result->Fail(name + " " + what + ": " + std::to_string(m.rows) +
                     " rows, reference " + e->digest.ToString(),
                 true);
    return;
  }
  if (m.work != e->work) {
    result->Nondeterministic(name + " " + what + " work " +
                             std::to_string(m.work) + " vs " +
                             std::to_string(e->work));
  }
  if (!e->pinned) {
    e->pinned = true;
    e->spill_work = m.spill_work;
    e->dne_avg_err = m.dne_avg_err;
    e->safe_max_ratio_err = m.safe_max_ratio_err;
    return;
  }
  if (m.spill_work != e->spill_work || m.dne_avg_err != e->dne_avg_err ||
      m.safe_max_ratio_err != e->safe_max_ratio_err) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  " spill.work %" PRIu64 "/%" PRIu64 " dne %.17g/%.17g "
                  "safe %.17g/%.17g",
                  m.spill_work, e->spill_work, m.dne_avg_err, e->dne_avg_err,
                  m.safe_max_ratio_err, e->safe_max_ratio_err);
    result->Nondeterministic(name + " " + what + buf);
  }
}

void CheckDriven(const std::string& name, const char* what,
                 const DriveOutcome& d, const Expected& e, Result* result) {
  result->Attempt();
  if (!d.status.ok()) {
    result->Fail(name + " " + what + ": " + d.status.ToString(), false);
  } else if (!(d.digest == e.digest)) {
    result->Fail(name + " " + what + ": digest " + d.digest.ToString() +
                     ", reference " + e.digest.ToString(),
                 true);
  } else if (d.work != e.work) {
    result->Nondeterministic(name + " " + what + " work " +
                             std::to_string(d.work) + " vs " +
                             std::to_string(e.work));
  }
}

}  // namespace

double SumOfMedians(const std::vector<std::vector<double>>& samples) {
  double s = 0;
  for (const auto& v : samples) {
    if (!v.empty()) s += Median(v);
  }
  return s;
}

std::vector<Expected> ReferencePass(const std::vector<SuiteQuery>& queries,
                                    bool corrupt) {
  std::vector<Expected> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    DriveOutcome ref = DriveOnce(queries[i], nullptr, 0);
    QPROG_CHECK_MSG(ref.status.ok(), "reference %s: %s",
                    queries[i].name.c_str(), ref.status.ToString().c_str());
    expected[i].digest = ref.digest;
    if (corrupt) {  // wrong in both the count and the hash
      expected[i].digest.rows += 1;
      expected[i].digest.sum ^= 1;
    }
    expected[i].work = ref.work;
  }
  return expected;
}

void BudgetedPass(const std::vector<SuiteQuery>& queries, const Env& env,
                  std::vector<Expected>* expected, Result* result) {
  for (size_t i = 0; i < queries.size(); ++i) {
    DriveOutcome d = DriveOnce(queries[i], &env, 0);
    Expected& e = (*expected)[i];
    e.work = d.work;
    CheckDriven(queries[i].name, "budgeted", d, e, result);
  }
}

void SetIntervals(std::vector<Expected>* expected) {
  for (Expected& e : *expected) {
    e.interval = std::max<uint64_t>(1, e.work / kCheckpointsPerQuery);
  }
}

double MonitoredRun(const SuiteQuery& query, const Env& env, Expected* e,
                    qprog::EtaCalibration* cal, Result* result) {
  MonitorOutcome m = MonitorOnce(query, env, e->interval, cal, nullptr);
  CheckMonitored(query.name, "monitored", m, e, result);
  return Millis(m.ns);
}

int TracedRounds(const std::vector<SuiteQuery>& queries, const Env& env,
                 std::vector<Expected>* expected, double seconds,
                 int min_rounds, Result* result) {
  const size_t n = queries.size();
  qprog::MetricsRegistry registry;
  std::map<qprog::OpKind, KindTotals> kinds;
  Tracing tracing{&registry, &kinds};
  qprog::EtaCalibration cal;
  std::vector<std::vector<double>> ta(n), tb(n), tc(n), td(n);
  uint64_t exec_work = 0, peak_buffered = 0, spill_work = 0;
  SpillTotals spill;
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t start = MonotonicNanos();
  int rounds = 0;
  while (rounds < min_rounds || MonotonicNanos() - start < budget_ns) {
    for (size_t i = 0; i < n; ++i) {
      const SuiteQuery& query = queries[i];
      Expected& e = (*expected)[i];
      for (size_t v = 0; v < 4; ++v) {
        switch ((i + static_cast<size_t>(rounds) + v) % 4) {
          case 0: {
            MonitorOutcome m = MonitorOnce(query, env, e.interval, &cal,
                                           nullptr);
            CheckMonitored(query.name, "monitored", m, &e, result);
            ta[i].push_back(Millis(m.ns));
            if (rounds == 0) {
              spill_work += m.spill_work;
              spill.bytes_written += m.spill.bytes_written;
              spill.disk_bytes += m.spill.disk_bytes;
              spill.runs += m.spill.runs;
              spill.io_retries += m.spill.io_retries;
            }
            break;
          }
          case 1: {
            MonitorOutcome m =
                MonitorOnce(query, env, e.interval, nullptr, &tracing);
            CheckMonitored(query.name, "traced", m, &e, result);
            tb[i].push_back(Millis(m.ns));
            break;
          }
          case 2: {
            DriveOutcome d = DriveOnce(query, &env, 0);
            CheckDriven(query.name, "drive", d, e, result);
            tc[i].push_back(Millis(d.ns));
            if (rounds == 0) {
              exec_work += d.work;
              peak_buffered = std::max(peak_buffered, d.peak_buffered_rows);
            }
            break;
          }
          default: {
            DriveOutcome d = DriveOnce(query, &env, kBatchSize);
            CheckDriven(query.name, "batch", d, e, result);
            td[i].push_back(Millis(d.ns));
            break;
          }
        }
      }
    }
    ++rounds;
  }
  double a = SumOfMedians(ta), b = SumOfMedians(tb), c = SumOfMedians(tc),
         d = SumOfMedians(td);
  result->Set("exec.drive_s", c / 1e3);
  result->Set("exec.work", static_cast<double>(exec_work));
  result->Set("exec.ns_per_work", c * 1e6 / static_cast<double>(exec_work));
  result->Set("exec.peak_buffered_rows", static_cast<double>(peak_buffered));
  result->Set("exec.batch_ratio", d / c);
  result->Set("core.monitor_overhead", a / c);
  const qprog::LatencyHistogram* cp = registry.FindHistogram("checkpoint_ns");
  result->Set("core.checkpoint_us", cp != nullptr ? cp->mean() / 1e3 : 0.0);
  result->Set("obs.trace_overhead", b / a);
  result->Set("obs.eta_rel_width", cal.Overall().mean_rel_width());
  result->Set("spill.work", static_cast<double>(spill_work));
  result->Set("spill.bytes_written", spill.bytes_written);
  result->Set("spill.disk_bytes", spill.disk_bytes);
  result->Set("spill.runs", spill.runs);
  result->Set("spill.io_retries", spill.io_retries);
  EmitKindTotals(kinds, rounds, result);
  return rounds;
}

}  // namespace e2e
