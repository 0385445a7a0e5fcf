// Multi-tenant serving: one QueryServer, two tenants with different quotas,
// a shared memory pool the governor arbitrates, and fleet-level progress
// reporting across every in-flight query.
//
// The walkthrough: warm the admission priors with a monitored run, register
// an untrusted tenant with a tight quota, burst a mixed workload, watch the
// fleet report while queries queue and run, see the over-quota tenant get
// shed with a retry-after hint, then drain and inspect the learned
// per-template statistics.
//
//   $ ./multi_tenant

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "server/query_server.h"
#include "sql/fingerprint.h"
#include "storage/catalog.h"
#include "storage/table.h"

using namespace qprog;  // NOLINT(build/namespaces)

namespace {

Table MakeOrders(int64_t n) {
  Table t("orders", Schema({{"customer", TypeId::kInt64},
                            {"amount", TypeId::kInt64}}));
  Rng rng(7);
  t.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    // Customers appear gradually, so aggregates keep buffering new groups
    // for the whole scan — the shape the memory governor cares about.
    t.AppendRow({Value::Int64(i / 32), Value::Int64(rng.UniformInt(1, 500))});
  }
  return t;
}

void PrintFleet(const QueryServer& server) {
  FleetReport fleet = server.Fleet();
  std::printf("fleet: %zu queued, %zu running, %llu done, %llu shed | pool %llu/%llu rows, %llu revocations\n",
              fleet.queued, fleet.running,
              static_cast<unsigned long long>(fleet.done),
              static_cast<unsigned long long>(fleet.shed),
              static_cast<unsigned long long>(fleet.granted_rows),
              static_cast<unsigned long long>(fleet.pool_rows),
              static_cast<unsigned long long>(fleet.revocations));
  for (const FleetQueryInfo& q : fleet.queries) {
    switch (q.state) {
      case FleetQueryInfo::State::kQueued:
        std::printf("  #%llu [%s] queued at position %zu (predicted wait ~%.1f ms)\n",
                    static_cast<unsigned long long>(q.ticket),
                    q.tenant.c_str(), q.queue_position,
                    static_cast<double>(q.predicted_wait_ns) / 1e6);
        break;
      case FleetQueryInfo::State::kRunning: {
        std::printf("  #%llu [%s] running, work=%llu",
                    static_cast<unsigned long long>(q.ticket),
                    q.tenant.c_str(),
                    static_cast<unsigned long long>(q.work));
        for (size_t i = 0; i < q.estimator_names.size() &&
                           i < q.estimates.size(); ++i) {
          std::printf("  %s=%.3f", q.estimator_names[i].c_str(),
                      q.estimates[i]);
        }
        std::printf("\n");
        break;
      }
      case FleetQueryInfo::State::kDone:
        std::printf("  #%llu [%s] done: %s\n",
                    static_cast<unsigned long long>(q.ticket),
                    q.tenant.c_str(),
                    q.status.ok() ? "ok" : q.status.ToString().c_str());
        break;
    }
  }
}

}  // namespace

int main() {
  Table orders = MakeOrders(200000);
  Database db;
  if (!db.AddTable(std::move(orders)).ok()) return 1;

  ServerOptions opts;
  opts.sessions = 2;
  opts.checkpoint_interval = 5000;
  opts.estimators = {"dne", "safe"};
  opts.governor.pool_rows = 4096;  // shared across the whole fleet
  opts.governor.min_grant_rows = 128;
  opts.admission.fallback_peak_rows = 1024;
  QueryServer server(&db, opts);

  // "analytics" is trusted; "adhoc" may hold at most one query in flight.
  TenantQuota tight;
  tight.max_concurrent = 1;
  server.RegisterTenant("adhoc", tight);

  const char* kReport =
      "SELECT customer, count(*), sum(amount) FROM orders GROUP BY customer";
  const char* kTotal = "SELECT sum(amount), max(amount) FROM orders";

  // 1. Warm the priors: after this run the admission controller predicts
  //    this template's peak memory from its observed footprint instead of
  //    the seeded fallback.
  std::printf("-- warming priors --\n");
  uint64_t warm = server.Submit("analytics", kReport);
  QueryResult wr = server.Wait(warm);
  std::printf("warm-up: %s, peak %llu buffered rows (predicted %llu from %s)\n\n",
              wr.status.ok() ? "ok" : wr.status.ToString().c_str(),
              static_cast<unsigned long long>(wr.report.peak_buffered_rows),
              static_cast<unsigned long long>(wr.admission.predicted_peak_rows),
              wr.admission.predicted_from_prior ? "prior" : "fallback");

  // 2. Burst a mixed workload: more queries than sessions, plus an
  //    over-quota tenant.
  std::printf("-- bursting workload --\n");
  std::vector<uint64_t> tickets;
  tickets.push_back(server.Submit("analytics", kReport));
  tickets.push_back(server.Submit("analytics", kTotal));
  tickets.push_back(server.Submit("analytics", kReport));
  tickets.push_back(server.Submit("adhoc", kTotal));
  uint64_t over_quota = server.Submit("adhoc", kReport);  // quota is 1

  QueryResult shed = server.Wait(over_quota);
  std::printf("over-quota submission: %s (retry in ~%llu ms)\n",
              shed.status.ToString().c_str(),
              static_cast<unsigned long long>(shed.admission.retry_after_ms));

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  PrintFleet(server);

  // 3. Wait for everything; each monitored result carries its own full
  //    progress report.
  std::printf("\n-- results --\n");
  for (uint64_t id : tickets) {
    QueryResult r = server.Wait(id);
    std::printf("#%llu: %s, total_work=%llu, %zu checkpoints, spill_work=%llu, granted=%llu rows\n",
                static_cast<unsigned long long>(id),
                r.status.ok() ? "ok" : r.status.ToString().c_str(),
                static_cast<unsigned long long>(r.report.total_work),
                r.report.checkpoints.size(),
                static_cast<unsigned long long>(r.report.spill_work),
                static_cast<unsigned long long>(r.granted_rows));
  }

  // 4. Drain and inspect what the fleet learned per template.
  server.Shutdown();
  std::printf("\n-- learned priors --\n");
  for (const char* q : {kReport, kTotal}) {
    uint64_t fp = sql::TemplateFingerprint(q);
    WorkloadStats s = server.registry().LookupWorkload(fp);
    std::printf("template %016llx: runs=%llu, max peak=%llu rows, mean wall=%.1f ms\n",
                static_cast<unsigned long long>(fp),
                static_cast<unsigned long long>(s.runs),
                static_cast<unsigned long long>(s.max_peak_buffered_rows),
                static_cast<double>(s.MeanWallNanos()) / 1e6);
  }
  std::printf("\nfleet served %llu queries, shed %llu\n",
              static_cast<unsigned long long>(server.submitted()),
              static_cast<unsigned long long>(server.shed_total()));
  return 0;
}
