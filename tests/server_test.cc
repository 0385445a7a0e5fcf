// Multi-tenant server layer: memory-governor arbitration (grants, revocation
// order, floors, cancellation), admission-controller predictions and
// decisions (deterministic under a fixed seed), template fingerprints, and
// QueryServer end-to-end behavior — shed queries with sanitized reports,
// per-tenant isolation, cancellation of queued and running work, fleet
// reporting, graceful drain, and the Curr <= LB <= UB invariant under a
// mid-run soft-budget revocation.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/fault_injector.h"
#include "exec/query_guard.h"
#include "exec/spill.h"
#include "server/admission.h"
#include "server/memory_governor.h"
#include "server/query_server.h"
#include "server/tenant.h"
#include "sql/fingerprint.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "stats/table_stats.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::I;

// ---------------------------------------------------------------------------
// MemoryGovernor

TEST(MemoryGovernorTest, GrantsWithinPoolAndInstallsSoftBudget) {
  GovernorOptions opts;
  opts.pool_rows = 1000;
  opts.min_grant_rows = 10;
  MemoryGovernor gov(opts);
  QueryGuard guard;
  MemoryGovernor::Grant g = gov.Acquire(&guard, 300);
  EXPECT_EQ(g.rows, 300u);
  EXPECT_EQ(guard.max_buffered_rows(), 300u);
  EXPECT_EQ(gov.granted_rows(), 300u);
  EXPECT_EQ(gov.free_rows(), 700u);
  gov.Release(g);
  EXPECT_EQ(gov.granted_rows(), 0u);
  EXPECT_EQ(gov.active_grants(), 0u);
}

TEST(MemoryGovernorTest, ClampsAskToPoolAndFloor) {
  GovernorOptions opts;
  opts.pool_rows = 100;
  opts.min_grant_rows = 16;
  MemoryGovernor gov(opts);
  QueryGuard big, small;
  MemoryGovernor::Grant g1 = gov.Acquire(&big, 5000);
  EXPECT_EQ(g1.rows, 100u);  // clamped to the pool
  gov.Release(g1);
  MemoryGovernor::Grant g2 = gov.Acquire(&small, 1);
  EXPECT_EQ(g2.rows, 16u);  // raised to the floor
  gov.Release(g2);
}

TEST(MemoryGovernorTest, RevokesHeadroomLargestFirst) {
  GovernorOptions opts;
  opts.pool_rows = 100;
  opts.min_grant_rows = 10;
  MemoryGovernor gov(opts);
  QueryGuard a, b, c;
  MemoryGovernor::Grant ga = gov.Acquire(&a, 60);
  MemoryGovernor::Grant gb = gov.Acquire(&b, 30);
  EXPECT_EQ(gov.free_rows(), 10u);
  // c wants 50: free 10, needs 40 more. a (60, the largest) is shrunk first
  // — it has 50 of headroom, so b is untouched.
  MemoryGovernor::Grant gc = gov.Acquire(&c, 50);
  EXPECT_EQ(gc.rows, 50u);
  EXPECT_EQ(a.max_buffered_rows(), 20u);   // 60 - 40 revoked
  EXPECT_EQ(b.max_buffered_rows(), 30u);   // untouched
  EXPECT_EQ(c.max_buffered_rows(), 50u);
  EXPECT_EQ(gov.revocations(), 1u);
  EXPECT_EQ(gov.granted_rows(), 100u);
  gov.Release(ga);
  gov.Release(gb);
  gov.Release(gc);
  EXPECT_EQ(gov.granted_rows(), 0u);
}

TEST(MemoryGovernorTest, RevocationStopsAtTheFloor) {
  GovernorOptions opts;
  opts.pool_rows = 100;
  opts.min_grant_rows = 30;
  MemoryGovernor gov(opts);
  QueryGuard a;
  MemoryGovernor::Grant ga = gov.Acquire(&a, 100);
  // Only 70 of headroom exists above a's floor; a newcomer asking for the
  // whole pool gets what revocation can produce, not its full ask.
  QueryGuard b;
  MemoryGovernor::Grant gb = gov.Acquire(&b, 100);
  EXPECT_EQ(a.max_buffered_rows(), 30u);
  EXPECT_EQ(gb.rows, 70u);
  gov.Release(ga);
  gov.Release(gb);
}

TEST(MemoryGovernorTest, WaitsAtFullFloorsUntilRelease) {
  GovernorOptions opts;
  opts.pool_rows = 100;
  opts.min_grant_rows = 60;
  MemoryGovernor gov(opts);
  QueryGuard a;
  MemoryGovernor::Grant ga = gov.Acquire(&a, 100);
  // Revocation can only reach 100 - 60 = 40 < the 60-row floor, so b must
  // wait for a's release.
  QueryGuard b;
  std::atomic<bool> granted{false};
  MemoryGovernor::Grant gb;
  std::thread waiter([&] {
    gb = gov.Acquire(&b, 60);
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  gov.Release(ga);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(gb.rows, 60u);
  gov.Release(gb);
}

TEST(MemoryGovernorTest, CancelledWaiterReturnsZeroGrant) {
  GovernorOptions opts;
  opts.pool_rows = 100;
  opts.min_grant_rows = 100;
  MemoryGovernor gov(opts);
  QueryGuard a;
  MemoryGovernor::Grant ga = gov.Acquire(&a, 100);
  QueryGuard b;
  MemoryGovernor::Grant gb;
  std::thread waiter([&] { gb = gov.Acquire(&b, 100); });
  b.RequestCancel();
  gov.Poke();
  waiter.join();
  EXPECT_EQ(gb.id, 0u);
  EXPECT_EQ(gb.rows, 0u);
  gov.Release(gb);  // zero grant: no-op
  gov.Release(ga);
}

TEST(MemoryGovernorTest, UnlimitedPoolPassesAsksThrough) {
  MemoryGovernor gov(GovernorOptions{});  // pool = kNoLimit
  QueryGuard guard;
  MemoryGovernor::Grant g = gov.Acquire(&guard, QueryGuard::kNoLimit);
  EXPECT_EQ(guard.max_buffered_rows(), QueryGuard::kNoLimit);
  gov.Release(g);
  MemoryGovernor::Grant g2 = gov.Acquire(&guard, 40);
  EXPECT_EQ(guard.max_buffered_rows(), 40u);
  gov.Release(g2);
}

// ---------------------------------------------------------------------------
// Template fingerprints (the admission predictor's key)

TEST(FingerprintTest, LiteralsDoNotChangeTheTemplate) {
  uint64_t a = sql::TemplateFingerprint("SELECT v FROM t WHERE k = 5");
  uint64_t b = sql::TemplateFingerprint("SELECT v FROM t WHERE k = 99");
  uint64_t c = sql::TemplateFingerprint("select V  from T where K = 'x'");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);  // case and whitespace normalize too
  uint64_t d = sql::TemplateFingerprint("SELECT v FROM t WHERE k > 5");
  EXPECT_NE(a, d);  // shape differs
}

// ---------------------------------------------------------------------------
// AdmissionController

TEST(AdmissionTest, ColdPredictionIsDeterministicPerSeed) {
  AdmissionOptions opts;
  opts.seed = 7;
  opts.fallback_peak_rows = 256;
  AdmissionController ctrl(opts, nullptr);
  AdmissionController again(opts, nullptr);
  uint64_t fp = sql::TemplateFingerprint("SELECT v FROM t");
  bool from_prior = true;
  uint64_t p = ctrl.PredictPeakRows(fp, &from_prior);
  EXPECT_FALSE(from_prior);
  EXPECT_EQ(p, again.PredictPeakRows(fp));  // fixed (seed, template)
  EXPECT_GE(p, opts.fallback_peak_rows / 2);
  EXPECT_LT(p, opts.fallback_peak_rows + opts.fallback_peak_rows / 2);
  AdmissionOptions other = opts;
  other.seed = 8;
  AdmissionController reseeded(other, nullptr);
  // Different seed, (almost surely) different prior — no herd prediction.
  EXPECT_NE(p, reseeded.PredictPeakRows(fp));
}

TEST(AdmissionTest, PriorPredictionUsesMaxPeakWithHeadroom) {
  WorkloadStatsRegistry priors;
  uint64_t fp = sql::TemplateFingerprint("SELECT v FROM t WHERE k = 1");
  WorkloadObservation obs;
  obs.completed = true;
  obs.peak_buffered_rows = 100;
  priors.Record(fp, obs);
  obs.peak_buffered_rows = 400;
  priors.Record(fp, obs);
  AdmissionOptions opts;
  opts.headroom = 1.25;
  AdmissionController ctrl(opts, &priors);
  bool from_prior = false;
  EXPECT_EQ(ctrl.PredictPeakRows(fp, &from_prior), 500u);  // 400 * 1.25
  EXPECT_TRUE(from_prior);
}

TEST(AdmissionTest, DecisionMatrix) {
  AdmissionOptions opts;
  opts.fallback_peak_rows = 100;
  opts.max_queue = 2;
  opts.retry_after_base_ms = 10;
  AdmissionController ctrl(opts, nullptr);
  uint64_t fp = sql::TemplateFingerprint("SELECT v FROM t");
  TenantQuota quota;

  AdmissionController::Load load;
  load.pool_rows = QueryGuard::kNoLimit;
  AdmissionDecision d = ctrl.Decide(fp, quota, load);
  EXPECT_EQ(d.action, AdmissionAction::kAdmit);

  // Anything already queued forces later arrivals to queue behind it.
  load.queued = 1;
  d = ctrl.Decide(fp, quota, load);
  EXPECT_EQ(d.action, AdmissionAction::kQueue);
  EXPECT_EQ(d.queue_position, 1u);

  // Full queue sheds with a backlog-scaled retry hint.
  load.queued = 2;
  load.running = 3;
  d = ctrl.Decide(fp, quota, load);
  EXPECT_EQ(d.action, AdmissionAction::kShed);
  EXPECT_STREQ(d.reason, "queue-full");
  EXPECT_EQ(d.retry_after_ms, 10u * (2 + 3 + 1));

  // Tenant quota beats global state: shed even with an empty queue.
  quota.max_concurrent = 1;
  load = AdmissionController::Load{};
  load.pool_rows = QueryGuard::kNoLimit;
  load.tenant_inflight = 1;
  d = ctrl.Decide(fp, quota, load);
  EXPECT_EQ(d.action, AdmissionAction::kShed);
  EXPECT_STREQ(d.reason, "tenant-quota");

  // A full predicted-row ledger queues (the governor will make room).
  quota = TenantQuota{};
  load = AdmissionController::Load{};
  load.pool_rows = 100;
  load.inflight_predicted_rows = 90;
  d = ctrl.Decide(fp, quota, load);
  EXPECT_EQ(d.action, AdmissionAction::kQueue);
}

// ---------------------------------------------------------------------------
// QueryServer end-to-end

class QueryServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    std::vector<Row> rows;
    // Group keys arrive gradually (one new group every 40 rows), so blocking
    // operators keep charging new buffered rows throughout the scan — a
    // mid-run budget revocation then has later charges to bite on.
    for (int64_t i = 0; i < 2000; ++i) {
      rows.push_back({I(i / 40), I(i)});
    }
    Table t = testutil::MakeTable("t", {"k", "v"}, std::move(rows));
    QPROG_CHECK(db_->AddTable(std::move(t)).ok());
    HistogramStatisticsGenerator gen(8);
    db_->SetStats("t", gen.Generate(*db_->GetTable("t")));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* QueryServerTest::db_ = nullptr;

const char kGroupQuery[] = "SELECT k, count(*), sum(v) FROM t GROUP BY k";

TEST_F(QueryServerTest, MonitoredQueryCompletesAndFeedsPriors) {
  ServerOptions opts;
  opts.sessions = 2;
  opts.checkpoint_interval = 100;
  opts.estimators = {"dne", "safe"};
  QueryServer server(db_, opts);
  uint64_t ticket = server.Submit("acme", kGroupQuery);
  QueryResult r = server.Wait(ticket);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_TRUE(r.report.completed());
  EXPECT_EQ(r.report.root_rows, 50u);
  EXPECT_FALSE(r.report.checkpoints.empty());
  EXPECT_EQ(r.admission.action, AdmissionAction::kAdmit);
  EXPECT_FALSE(r.admission.predicted_from_prior);  // cold template
  EXPECT_EQ(server.workload_stats().num_templates(), 1u);

  // The same template again: predicted from the recorded prior now.
  uint64_t second = server.Submit("acme", kGroupQuery);
  QueryResult r2 = server.Wait(second);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_TRUE(r2.admission.predicted_from_prior);
  EXPECT_GE(r2.admission.predicted_peak_rows, r.report.peak_buffered_rows);
}

TEST_F(QueryServerTest, PlainRowsMatchDirectExecution) {
  StatusOr<std::vector<Row>> direct = sql::ExecuteSql(kGroupQuery, *db_);
  ASSERT_TRUE(direct.ok());
  ServerOptions opts;
  opts.sessions = 2;
  QueryServer server(db_, opts);
  SubmitOptions so;
  so.monitored = false;
  QueryResult r = server.Wait(server.Submit("acme", kGroupQuery, so));
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(testutil::RowsToString(testutil::Sorted(r.rows)),
            testutil::RowsToString(testutil::Sorted(direct.value())));
}

TEST_F(QueryServerTest, ShedQueryGetsSanitizedReportAndRetryHint) {
  ServerOptions opts;
  opts.sessions = 1;
  QueryServer server(db_, opts);
  TenantQuota strict;
  strict.max_concurrent = 0;  // everything this tenant submits is shed
  server.RegisterTenant("noisy", strict);

  uint64_t ticket = server.Submit("noisy", kGroupQuery);
  QueryResult r = server.Wait(ticket);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.admission.action, AdmissionAction::kShed);
  EXPECT_STREQ(r.admission.reason, "tenant-quota");
  EXPECT_GT(r.admission.retry_after_ms, 0u);
  // Sanitized partial report: estimator names + termination + status only.
  EXPECT_EQ(r.report.names, (std::vector<std::string>{"dne", "safe"}));
  EXPECT_TRUE(r.report.checkpoints.empty());
  EXPECT_EQ(r.report.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(r.report.total_work, 0u);
  EXPECT_EQ(r.report.root_rows, 0u);
  EXPECT_EQ(server.shed_total(), 1u);

  // The other tenant is untouched by the noisy tenant's quota.
  QueryResult ok = server.Wait(server.Submit("quiet", kGroupQuery));
  EXPECT_TRUE(ok.status.ok()) << ok.status;
}

TEST_F(QueryServerTest, PerQueryEstimatorSpecsReachTheReport) {
  ServerOptions opts;
  opts.sessions = 1;
  opts.checkpoint_interval = 100;
  QueryServer server(db_, opts);
  SubmitOptions so;
  so.estimators = {"hybrid:2.5", "window:32", "dne_bounded"};
  QueryResult r = server.Wait(server.Submit("acme", kGroupQuery, so));
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.report.names,
            (std::vector<std::string>{"hybrid", "window", "dne_bounded"}));

  // A malformed spec fails the query, not the server.
  SubmitOptions bad;
  bad.estimators = {"hybrid:not-a-number"};
  QueryResult rb = server.Wait(server.Submit("acme", kGroupQuery, bad));
  EXPECT_EQ(rb.status.code(), StatusCode::kInvalidArgument);
  QueryResult after = server.Wait(server.Submit("acme", kGroupQuery));
  EXPECT_TRUE(after.status.ok()) << after.status;
}

TEST_F(QueryServerTest, CancelsQueuedAndRunningQueries) {
  ServerOptions opts;
  opts.sessions = 1;
  opts.checkpoint_interval = 64;
  QueryServer server(db_, opts);

  // A latency fault makes the running query deterministically slow, holding
  // the single session while the rest of the batch sits queued.
  FaultInjector slow(1);
  FaultSpec spec;
  spec.site = faults::kSeqScanNext;
  spec.latency_spins = 20000;
  slow.Arm(std::move(spec));
  SubmitOptions blocker;
  blocker.fault_injector = &slow;
  uint64_t running = server.Submit("acme", kGroupQuery, blocker);

  std::vector<uint64_t> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(server.Submit("acme", kGroupQuery));
  }
  for (uint64_t id : queued) server.Cancel(id);
  server.Cancel(running);

  QueryResult r = server.Wait(running);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r.report.termination, TerminationReason::kCancelled);
  for (uint64_t id : queued) {
    QueryResult q = server.Wait(id);
    EXPECT_EQ(q.status.code(), StatusCode::kCancelled);
    EXPECT_TRUE(q.report.checkpoints.empty()) << "queued cancel never ran";
  }
}

TEST_F(QueryServerTest, FleetReportTracksQueueAndProgress) {
  ServerOptions opts;
  opts.sessions = 1;
  opts.checkpoint_interval = 64;
  QueryServer server(db_, opts);

  FaultInjector slow(1);
  FaultSpec spec;
  spec.site = faults::kSeqScanNext;
  spec.latency_spins = 20000;
  slow.Arm(std::move(spec));
  SubmitOptions blocker;
  blocker.fault_injector = &slow;
  uint64_t t1 = server.Submit("acme", kGroupQuery, blocker);
  uint64_t t2 = server.Submit("acme", kGroupQuery);
  uint64_t t3 = server.Submit("beta", kGroupQuery);

  // Wait until t1 is observably running and has checkpointed.
  FleetReport fleet;
  for (int spins = 0; spins < 10000; ++spins) {
    fleet = server.Fleet();
    if (fleet.running == 1 && fleet.queries.size() == 3 &&
        fleet.queries[0].work > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(fleet.queries.size(), 3u);
  EXPECT_EQ(fleet.sessions, 1u);
  EXPECT_EQ(fleet.queries[0].ticket, t1);
  EXPECT_EQ(fleet.queries[0].state, FleetQueryInfo::State::kRunning);
  EXPECT_GT(fleet.queries[0].work, 0u);
  EXPECT_EQ(fleet.queries[0].estimator_names,
            (std::vector<std::string>{"dne", "safe"}));
  EXPECT_EQ(fleet.queries[1].ticket, t2);
  EXPECT_EQ(fleet.queries[1].state, FleetQueryInfo::State::kQueued);
  EXPECT_EQ(fleet.queries[1].queue_position, 0u);
  EXPECT_EQ(fleet.queries[2].state, FleetQueryInfo::State::kQueued);
  EXPECT_EQ(fleet.queries[2].queue_position, 1u);
  EXPECT_EQ(fleet.queued, 2u);

  server.Wait(t1);
  server.Wait(t2);
  server.Wait(t3);
  fleet = server.Fleet();
  EXPECT_EQ(fleet.done, 3u);
  EXPECT_EQ(fleet.queued, 0u);
  EXPECT_EQ(fleet.running, 0u);
  for (const FleetQueryInfo& q : fleet.queries) {
    EXPECT_EQ(q.state, FleetQueryInfo::State::kDone);
    EXPECT_TRUE(q.status.ok()) << q.status;
  }
}

TEST_F(QueryServerTest, DrainFinishesAcceptedWorkAndRejectsNew) {
  ServerOptions opts;
  opts.sessions = 2;
  QueryServer server(db_, opts);
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(server.Submit("acme", kGroupQuery));
  }
  server.Shutdown();
  for (uint64_t id : tickets) {
    QueryResult r = server.Wait(id);
    EXPECT_TRUE(r.status.ok()) << r.status;  // accepted work finished
  }
  QueryResult late = server.Wait(server.Submit("acme", kGroupQuery));
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
}

TEST_F(QueryServerTest, DeterministicAdmissionSequenceUnderFixedSeed) {
  // The same submission burst against two identically-seeded servers must
  // produce the same admission actions and predictions, whatever the session
  // threads are doing concurrently.
  const char* queries[] = {
      "SELECT k, count(*) FROM t GROUP BY k",
      "SELECT sum(v) FROM t",
      "SELECT v FROM t WHERE k = 3",
      "SELECT k, count(*) FROM t GROUP BY k",  // repeat of template 0
      "SELECT max(v), min(v) FROM t GROUP BY k",
      "SELECT count(*) FROM t",
  };
  auto run_burst = [&](std::vector<AdmissionDecision>* out) {
    ServerOptions opts;
    opts.sessions = 2;
    opts.admission.seed = 42;
    opts.admission.max_queue = 3;
    opts.governor.pool_rows = 400;
    opts.governor.min_grant_rows = 16;
    TenantQuota quota;
    quota.max_concurrent = 4;
    QueryServer server(db_, opts);
    server.RegisterTenant("acme", quota);
    // Pin both session threads with slow blockers so no burst query starts
    // or finishes mid-burst: every admission decision then depends only on
    // the submission sequence, making the run-to-run comparison exact.
    FaultInjector slow1(1), slow2(2);
    for (FaultInjector* fi : {&slow1, &slow2}) {
      FaultSpec spec;
      spec.site = faults::kSeqScanNext;
      spec.latency_spins = 20000;
      fi->Arm(std::move(spec));
    }
    SubmitOptions b1, b2;
    b1.fault_injector = &slow1;
    b2.fault_injector = &slow2;
    uint64_t blocker1 = server.Submit("blk", kGroupQuery, b1);
    uint64_t blocker2 = server.Submit("blk", kGroupQuery, b2);
    for (int spins = 0; spins < 10000 && server.Fleet().running < 2;
         ++spins) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_EQ(server.Fleet().running, 2u);
    std::vector<uint64_t> tickets;
    for (const char* q : queries) tickets.push_back(server.Submit("acme", q));
    server.Wait(blocker1);
    server.Wait(blocker2);
    for (uint64_t id : tickets) out->push_back(server.Wait(id).admission);
  };
  std::vector<AdmissionDecision> first, second;
  run_burst(&first);
  run_burst(&second);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].action, second[i].action) << "query " << i;
    EXPECT_EQ(first[i].predicted_peak_rows, second[i].predicted_peak_rows)
        << "query " << i;
    EXPECT_EQ(first[i].queue_position, second[i].queue_position)
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Revocation invariant: shrinking a victim's soft budget mid-run (exactly
// what the governor does to make room) changes when it spills, never its
// result or the Curr <= LB <= UB invariant.

TEST_F(QueryServerTest, MidRunRevocationKeepsBoundsAndResult) {
  StatusOr<std::vector<Row>> baseline = sql::ExecuteSql(kGroupQuery, *db_);
  ASSERT_TRUE(baseline.ok());

  QueryGuard guard;
  guard.set_max_buffered_rows(1000);
  SpillManager spill;
  sql::SessionOptions so;
  so.guard = &guard;
  so.spill_manager = &spill;
  so.checkpoint_interval = 64;
  so.estimators = {"dne", "safe"};
  sql::SqlSession session(db_, so);
  sql::QueryOptions qo;
  bool revoked = false;
  qo.checkpoint_listener = [&](const Checkpoint& cp) {
    if (!revoked && cp.work >= 256) {
      guard.set_max_buffered_rows(4);  // the governor's revocation path
      revoked = true;
    }
  };
  StatusOr<ProgressReport> report = session.ExecuteMonitored(kGroupQuery, qo);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->completed()) << report->status;
  EXPECT_TRUE(revoked);
  EXPECT_GT(report->spill_work, 0u) << "revocation did not force a spill";
  EXPECT_EQ(report->root_rows, baseline->size());
  for (const Checkpoint& cp : report->checkpoints) {
    EXPECT_LE(static_cast<double>(cp.work), cp.work_lb + 1e-9);
    EXPECT_LE(cp.work_lb, cp.work_ub + 1e-9);
    for (double e : cp.estimates) {
      EXPECT_FALSE(std::isnan(e));
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, 1.0);
    }
  }
  EXPECT_EQ(spill.live_runs(), 0u);
  EXPECT_TRUE(spill.live_files().empty());
}

// ---------------------------------------------------------------------------
// WorkloadStatsRegistry under concurrency (run under TSan in CI)

TEST(WorkloadStatsConcurrencyTest, SnapshotIsConsistentUnderConcurrentFeedback) {
  // Sessions record feedback while the admission path snapshots: every
  // Snapshot() must observe internally consistent aggregates (no torn
  // WorkloadStats), and the final state must contain every record.
  WorkloadStatsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 500;
  constexpr uint64_t kTemplates = 8;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        WorkloadObservation obs;
        obs.completed = (i % 3) != 0;
        obs.work = 100;
        obs.peak_buffered_rows = 10;
        obs.wall_ns = 1000;
        registry.Record(static_cast<uint64_t>(w * kRecordsPerWriter + i) %
                            kTemplates,
                        obs);
      }
    });
  }
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<WorkloadStatsRegistry::SnapshotEntry> snap =
          registry.Snapshot();
      uint64_t prev_fp = 0;
      bool first = true;
      for (const auto& entry : snap) {
        // Sorted, and every aggregate self-consistent: a torn read would
        // break runs >= completed_runs or the fixed per-record figures.
        if (!first) {
          EXPECT_GT(entry.fingerprint, prev_fp);
        }
        first = false;
        prev_fp = entry.fingerprint;
        EXPECT_GE(entry.stats.runs, entry.stats.completed_runs);
        EXPECT_EQ(entry.stats.total_work, entry.stats.runs * 100);
        EXPECT_EQ(entry.stats.total_peak_buffered_rows,
                  entry.stats.runs * 10);
      }
      registry.Lookup(0);  // concurrent point reads too
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  std::vector<WorkloadStatsRegistry::SnapshotEntry> final_snap =
      registry.Snapshot();
  ASSERT_EQ(final_snap.size(), kTemplates);
  uint64_t total_runs = 0;
  for (const auto& entry : final_snap) total_runs += entry.stats.runs;
  EXPECT_EQ(total_runs, static_cast<uint64_t>(kWriters) * kRecordsPerWriter);
}

// ---------------------------------------------------------------------------
// Fleet ETA + metrics exposition

TEST_F(QueryServerTest, FleetCarriesEtaBandsMetricsAndDrainHint) {
  ServerOptions opts;
  opts.sessions = 1;
  opts.checkpoint_interval = 64;
  QueryServer server(db_, opts);

  FaultInjector slow(1);
  FaultSpec spec;
  spec.site = faults::kSeqScanNext;
  spec.latency_spins = 20000;
  slow.Arm(std::move(spec));
  SubmitOptions blocker;
  blocker.fault_injector = &slow;
  uint64_t t1 = server.Submit("acme", kGroupQuery, blocker);
  uint64_t t2 = server.Submit("acme", kGroupQuery);

  // Wait until t1 is running with a checkpointed (finite) ETA band.
  FleetReport fleet;
  bool saw_band = false;
  for (int spins = 0; spins < 10000 && !saw_band; ++spins) {
    fleet = server.Fleet();
    for (const FleetQueryInfo& q : fleet.queries) {
      if (q.state == FleetQueryInfo::State::kRunning &&
          std::isfinite(q.eta_seconds)) {
        saw_band = true;
        // The fleet mirror preserves the sanitized invariant.
        EXPECT_GE(q.eta_lo_seconds, 0.0);
        EXPECT_LE(q.eta_lo_seconds, q.eta_seconds);
        EXPECT_LE(q.eta_seconds, q.eta_hi_seconds);
        // A finite running band feeds the drain projection.
        EXPECT_GE(fleet.predicted_drain_seconds, q.eta_hi_seconds);
      }
    }
    if (!saw_band) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  EXPECT_TRUE(saw_band) << "no running query ever exposed a finite ETA band";

  server.Wait(t1);
  server.Wait(t2);
  fleet = server.Fleet();
  // Done queries drop out of the projection; an idle fleet drains in ~0.
  EXPECT_EQ(fleet.predicted_drain_seconds, 0.0);
  // The Prometheus page reflects the server's own counters.
  EXPECT_NE(fleet.metrics_text.find(
                "# TYPE qprog_queries_submitted counter\n"
                "qprog_queries_submitted 2\n"),
            std::string::npos)
      << fleet.metrics_text;
  EXPECT_NE(fleet.metrics_text.find("qprog_queries_done 2"),
            std::string::npos)
      << fleet.metrics_text;
  EXPECT_NE(fleet.metrics_text.find("qprog_query_wall_ns_count 2"),
            std::string::npos)
      << fleet.metrics_text;
}

}  // namespace
}  // namespace qprog
