// Workload fleet: a QueryServer over TPC-H SF 0.01 (z = 2) serving an open
// loop of SQL requests from two tenants.
//
//   - "analyst" submits monitored queries (progress bars, ETA bands);
//     "report" submits unmonitored queries and fetches the rows.
//   - Requests instantiate six blocking-operator-heavy templates with one of
//     four literals each. The mix is stratified: every block of 48 requests
//     holds each of the 24 instances once per tenant, in a seeded order.
//   - Arrivals are Poisson at a fixed rate, about a quarter of this server's
//     saturated capacity, sent by one generator thread on schedule whatever
//     the server's state (open loop). Latency runs from each request's due
//     time to the moment its Wait returns, so a stall also charges the
//     requests queued behind it.
//   - The memory governor's pool is small enough that concurrent blocking
//     queries revoke each other's grants and spill.
//   - The database is a fixed fixture; the seed drives the request stream.
//
// Outputs are checked against serial, unbudgeted, unmonitored runs of the
// same SQL: monitored results by row count (the server returns no rows for
// them), unmonitored results by row digest.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/macros.h"
#include "server/query_server.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "suite.h"

namespace e2e {
namespace {

using qprog::MonotonicNanos;

constexpr double kScaleFactor = 0.01;
constexpr uint64_t kDataSeed = 19940704;  // dbgen's default seed
/// Fixed arrival rate: about a quarter of the saturated capacity (~40 q/s)
/// of 3 sessions on a 4-vCPU host; see README.md for why not half.
constexpr double kRateQps = 10.0;
/// Governor pool in buffered rows: about one of the largest templates'
/// peaks (order_revenue buffers ~15000 groups), so concurrent blocking
/// queries revoke each other's grants and the victims spill.
constexpr uint64_t kPoolRows = 16000;
/// At least 24 requests beyond p90; a multiple of the 48-request block.
constexpr size_t kMinRequests = 240;
/// Threads blocked in QueryServer::Wait, so completions are timed when
/// they happen rather than in submission order. They use no CPU.
constexpr int kWaiters = 6;

struct Template {
  const char* name;
  const char* sql;  // one "{}" placeholder
  const char* params[4];
};

const std::vector<Template>& Templates() {
  static const std::vector<Template> kTemplates = {
      {"pricing",
       "SELECT l_returnflag, l_linestatus, sum(l_quantity), "
       "sum(l_extendedprice), count(*) FROM lineitem "
       "WHERE l_shipdate <= DATE '{}' GROUP BY l_returnflag, l_linestatus "
       "ORDER BY l_returnflag, l_linestatus",
       {"1998-09-02", "1997-06-01", "1996-01-01", "1995-06-17"}},
      {"order_join",
       "SELECT count(*) FROM lineitem l JOIN orders o "
       "ON l.l_orderkey = o.o_orderkey WHERE o_orderdate < DATE '{}'",
       {"1993-01-01", "1994-07-01", "1996-01-01", "1998-08-01"}},
      {"priority",
       "SELECT o_orderpriority, count(*) FROM orders WHERE o_totalprice > {} "
       "GROUP BY o_orderpriority ORDER BY o_orderpriority",
       {"1000", "50000", "100000", "200000"}},
      {"order_revenue",
       "SELECT l_orderkey, sum(l_extendedprice) FROM lineitem "
       "WHERE l_quantity < {} GROUP BY l_orderkey",
       {"10", "20", "30", "51"}},
      {"segment",
       "SELECT c_mktsegment, count(*), sum(o_totalprice) FROM customer c "
       "JOIN orders o ON c.c_custkey = o.o_custkey "
       "WHERE o_orderdate >= DATE '{}' GROUP BY c_mktsegment "
       "ORDER BY c_mktsegment",
       {"1992-01-01", "1994-01-01", "1996-01-01", "1997-06-01"}},
      {"brand",
       "SELECT p_brand, sum(l_quantity), count(*) FROM lineitem l "
       "JOIN part p ON l.l_partkey = p.p_partkey WHERE p_size < {} "
       "GROUP BY p_brand ORDER BY p_brand LIMIT 10",
       {"10", "20", "35", "51"}},
  };
  return kTemplates;
}

std::string Instantiate(const Template& t, const char* param) {
  std::string sql = t.sql;
  size_t at = sql.find("{}");
  QPROG_CHECK(at != std::string::npos);
  return sql.replace(at, 2, param);
}

struct Claim {
  uint64_t work;
  qprog::EtaBand band;
  uint64_t at_ns;
};

struct Request {
  size_t instance = 0;
  bool monitored = false;
  uint64_t ticket = 0;
  uint64_t due_ns = 0;
  uint64_t submit_ns = 0;     // Submit called
  uint64_t submitted_ns = 0;  // Submit returned
  uint64_t first_cp_ns = 0;   // first checkpoint (monitored only)
  uint64_t done_ns = 0;       // Wait returned
  std::vector<Claim> claims;
  qprog::QueryResult result;  // rows dropped once digested
  Digest digest;              // of the served rows (unmonitored only)
};

void SetZero(Result* result, std::initializer_list<const char*> names) {
  for (const char* name : names) result->Set(name, 0.0);
}

}  // namespace

int RunFleet(const Options& opts) {
  const double sf = opts.quick ? 0.002 : kScaleFactor;
  const int setups = opts.quick ? 1 : 5;
  const size_t sessions = static_cast<size_t>(std::max(1, Nproc() - 1));
  const size_t n_requests =
      opts.quick ? 48
                 : std::max(kMinRequests,
                            static_cast<size_t>(kRateQps * opts.seconds));
  // The database is a fixed fixture; the seed drives the request stream
  // (order of the mix and arrival gaps). With z = 2 skew, each data seed
  // moves the heavy join and group sizes, which the tpch workloads already
  // sample; here it would only widen the latency spread across runs.
  const uint64_t data_seed = kDataSeed;
  const uint64_t arrival_seed = Mix(opts.seed ^ 0xA5A5A5A5ull);
  Result result;

  HostProbe probe;
  std::unique_ptr<qprog::Database> db =
      SetupTpch(sf, data_seed, setups, &probe, &result);
  const qprog::Database& catalog = *db;

  // Every template instance, planned directly (parse + plan per call).
  std::vector<SuiteQuery> instances;
  std::vector<std::string> sql;
  for (size_t t = 0; t < Templates().size(); ++t) {
    for (const char* param : Templates()[t].params) {
      std::string text = Instantiate(Templates()[t], param);
      sql.push_back(text);
      instances.push_back(
          {std::string(Templates()[t].name) + "(" + param + ")",
           [text, &catalog] {
             auto plan = qprog::sql::PlanSql(text, catalog);
             QPROG_CHECK_MSG(plan.ok(), "%s: %s", text.c_str(),
                             plan.status().ToString().c_str());
             return std::move(plan).value();
           }});
    }
  }
  std::vector<Expected> expected =
      ReferencePass(instances, opts.corrupt_reference);
  SetIntervals(&expected);
  // Estimator quality on the fleet's SQL plans, from serial monitored runs
  // (twice: the second must repeat the first exactly). Under the governor
  // the server's own runs spill at timing-dependent points, so their
  // accuracy is not reproducible.
  const Env serial;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < instances.size(); ++i) {
      MonitoredRun(instances[i], serial, &expected[i], nullptr, &result);
    }
  }

  // The request schedule. Poisson gaps; the mix is stratified: every block
  // of 2 x instances requests holds each instance once per tenant, in a
  // seeded order, so every run serves the same mix and only the order and
  // the gaps vary with the seed.
  std::vector<Request> requests(n_requests);
  {
    const size_t block = 2 * instances.size();
    std::vector<size_t> slots(block);
    double t = 0;
    for (size_t i = 0; i < n_requests; ++i) {
      if (i % block == 0) SeededOrder(arrival_seed, i / block, &slots);
      t += -std::log(1.0 - Uniform(~arrival_seed, i)) / kRateQps;
      Request& r = requests[i];
      r.due_ns = static_cast<uint64_t>(t * 1e9);
      r.instance = slots[i % block] / 2;
      r.monitored = slots[i % block] % 2 == 0;
    }
  }

  std::string spill_dir = opts.state_dir + "/spill";
  std::filesystem::create_directories(spill_dir);
  qprog::ServerOptions so;
  so.sessions = sessions;
  so.governor.pool_rows = kPoolRows;
  so.spill_dir = spill_dir;
  uint64_t revocations = 0, shed = 0;
  double late_p95 = 0;
  double served_s = 0;  // first due time to last completion
  {
    qprog::QueryServer server(db.get(), so);
    server.RegisterTenant("analyst", qprog::TenantQuota());
    server.RegisterTenant("report", qprog::TenantQuota());

    std::mutex mu;
    std::condition_variable cv;
    size_t submitted = 0;  // guarded by mu
    size_t next_wait = 0;  // guarded by mu
    auto waiter = [&] {
      for (;;) {
        size_t i;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return next_wait < submitted || next_wait == n_requests;
          });
          if (next_wait == n_requests) return;
          i = next_wait++;
        }
        if (i + 1 == n_requests) cv.notify_all();  // release idle waiters
        Request& r = requests[i];
        qprog::QueryResult res = server.Wait(r.ticket);
        r.done_ns = MonotonicNanos();
        r.result = std::move(res);
        for (const qprog::Row& row : r.result.rows) r.digest.Add(row);
        r.result.rows = {};  // keep only the digest
      }
    };
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) waiters.emplace_back(waiter);

    probe.Reset();
    const uint64_t start = MonotonicNanos();
    for (size_t i = 0; i < n_requests; ++i) {
      Request& r = requests[i];
      r.due_ns += start;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(r.due_ns)));
      qprog::SubmitOptions sub;
      sub.monitored = r.monitored;
      if (r.monitored) {
        sub.checkpoint_listener = [&r](const qprog::Checkpoint& cp) {
          uint64_t now = MonotonicNanos();
          if (r.first_cp_ns == 0) r.first_cp_ns = now;
          r.claims.push_back(
              {cp.work,
               {cp.eta_seconds, cp.eta_lo_seconds, cp.eta_hi_seconds},
               now});
        };
      }
      r.submit_ns = MonotonicNanos();
      r.ticket = server.Submit(r.monitored ? "analyst" : "report",
                               sql[r.instance], std::move(sub));
      r.submitted_ns = MonotonicNanos();
      {
        std::lock_guard<std::mutex> lock(mu);
        ++submitted;
      }
      cv.notify_one();
      // Host-speed sample in the generator's slack before the next due time.
      probe.Sample();
    }
    for (std::thread& t : waiters) t.join();
    uint64_t last_done = start;
    for (const Request& r : requests) {
      last_done = std::max(last_done, r.done_ns);
    }
    served_s = Seconds(last_done - requests.front().due_ns);
    revocations = server.governor().revocations();
    shed = server.shed_total();
  }

  // Check and measure every request.
  // Latencies per instance, host-scaled and raw.
  std::vector<std::vector<double>> by_instance(instances.size()),
      raw_by_instance(instances.size());
  const double host = probe.Factor();
  std::vector<double> raw_latency, submit_us, queue_ms, exec_ms, late_ms;
  qprog::EtaCalibration cal;
  uint64_t fleet_spill_work = 0;
  for (const Request& r : requests) {
    const Expected& e = expected[r.instance];
    const std::string& name = instances[r.instance].name;
    result.Attempt();
    late_ms.push_back(Millis(r.submit_ns - r.due_ns));
    submit_us.push_back(static_cast<double>(r.submitted_ns - r.submit_ns) /
                        1e3);
    if (!r.result.status.ok()) {
      bool was_shed =
          r.result.admission.action == qprog::AdmissionAction::kShed;
      result.Fail(name + (was_shed ? " shed: " : ": ") +
                      r.result.status.ToString(),
                  false);
      continue;
    }
    if (r.monitored) {
      const qprog::ProgressReport& rep = r.result.report;
      if (rep.root_rows != e.digest.rows) {
        result.Fail(name + " served " + std::to_string(rep.root_rows) +
                        " rows, reference " + e.digest.ToString(),
                    true);
        continue;
      }
      fleet_spill_work += rep.spill_work;
      if (r.first_cp_ns != 0) {
        queue_ms.push_back(Millis(r.first_cp_ns - r.submit_ns));
        exec_ms.push_back(Millis(r.done_ns - r.first_cp_ns));
      }
      for (const Claim& c : r.claims) {
        qprog::EtaCalibrationSample sample;
        sample.progress = static_cast<double>(c.work) /
                          static_cast<double>(std::max<uint64_t>(
                              1, rep.total_work));
        sample.band = c.band;
        sample.actual_remaining_s = Seconds(r.done_ns - c.at_ns);
        cal.Add(sample);
      }
    } else {
      if (!(r.digest == e.digest)) {
        result.Fail(name + " served digest " + r.digest.ToString() +
                        ", reference " + e.digest.ToString(),
                    true);
        continue;
      }
    }
    double ms = Millis(r.done_ns - r.due_ns);
    raw_latency.push_back(ms);
    raw_by_instance[r.instance].push_back(ms);
    by_instance[r.instance].push_back(ms * host);
  }
  late_p95 = Quantile(late_ms, 0.95);
  result.SetRaw("probe_ms", probe.MedianMs());

  // Per instance, not per template: a template's literals differ in cost,
  // so a per-template median would sit between their clusters.
  std::vector<double> medians, dne, safe;
  uint64_t ref_work = 0;
  for (const auto& v : by_instance) {
    if (!v.empty()) medians.push_back(Median(v));
  }
  for (const Expected& e : expected) {
    dne.push_back(e.dne_avg_err);
    safe.push_back(e.safe_max_ratio_err);
    ref_work += e.work;
  }
  std::map<std::string, double> det = {
      {"exec.work", static_cast<double>(ref_work)},
      {"dne_avg_err", Mean(dne)},
      {"safe_max_ratio_err", GeoMean(safe)}};
  for (size_t i = 0; i < instances.size(); ++i) {
    det["digest." + instances[i].name] =
        static_cast<double>(expected[i].digest.sum >> 11);
  }
  CheckAcrossRuns(opts, det, &result);

  int rounds = 0;
  if (!opts.trace) {
    result.Set("suite_s", SumOfMedians(by_instance) / 1e3);
    result.SetRaw("suite_s", SumOfMedians(raw_by_instance) / 1e3);
    result.Set("query_geomean_ms", GeoMean(medians));
    result.Set("dne_avg_err", Mean(dne));
    result.Set("safe_max_ratio_err", GeoMean(safe));
    result.Set("eta_coverage", cal.Overall().coverage());
  } else {
    // SQL front end, timed per call on every template instance.
    std::vector<double> parse_us, plan_us;
    for (const std::string& text : sql) {
      for (int rep = 0; rep < 20; ++rep) {
        uint64_t t0 = MonotonicNanos();
        auto stmt = qprog::sql::Parse(text);
        uint64_t t1 = MonotonicNanos();
        QPROG_CHECK(stmt.ok());
        auto plan = qprog::sql::PlanSelect(stmt.value(), catalog);
        uint64_t t2 = MonotonicNanos();
        QPROG_CHECK(plan.ok());
        parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        plan_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      }
    }
    result.Set("sql.parse_us", Median(parse_us));
    result.Set("sql.plan_us", Median(plan_us));
    result.Set("server.submit_us_p50", Median(submit_us));
    result.Set("server.submit_us_p95", Quantile(submit_us, 0.95));
    result.Set("server.queue_wait_ms_p50", Median(queue_ms));
    result.Set("server.queue_wait_ms_p95", Quantile(queue_ms, 0.95));
    result.Set("server.exec_ms_p50", Median(exec_ms));
    result.Set("server.latency_p50_ms", Median(raw_latency));
    result.Set("server.latency_p95_ms", Quantile(raw_latency, 0.95));
    result.Set("server.revocations", static_cast<double>(revocations));
    result.Set("server.shed", static_cast<double>(shed));
    result.Set("gen.late_p95_ms", late_p95);
    // Engine layers on the same SQL plans, serial and unbudgeted; the
    // server's own spill shows as spill.work below.
    rounds = TracedRounds(instances, serial, &expected, 0, opts.quick ? 1 : 5,
                          &result);
    result.Set("spill.work", static_cast<double>(fleet_spill_work));
    SetZero(&result, {"spill.bytes_written", "spill.disk_bytes", "spill.runs",
                      "spill.io_retries"});
  }

  result.Set("peak_rss_mb", PeakRssMb());
  result.Set("ok_frac", result.OkFrac());
  std::printf(
      "{\"provenance\": {\"workload\": \"fleet\", \"data_seed\": %" PRIu64
      ", \"arrival_seed\": %" PRIu64 ", \"scale_factor\": %g, \"z\": 2, "
      "\"setups\": %d, \"requests\": %zu, \"rate_qps\": %g, "
      "\"served_qps\": %.2f, \"sessions\": %zu, \"waiters\": %d, "
      "\"governor_pool_rows\": %" PRIu64 ", \"revocations\": %" PRIu64
      ", \"shed\": %" PRIu64 ", \"gen_late_p95_ms\": %.3f, "
      "\"profile_rounds\": %d, \"trace\": %d}}\n",
      data_seed, arrival_seed, sf, setups, n_requests, kRateQps,
      static_cast<double>(n_requests) / served_s, sessions, kWaiters,
      kPoolRows, revocations, shed, late_p95, rounds, opts.trace ? 1 : 0);
  return result.Emit(opts.trace);
}

}  // namespace e2e
