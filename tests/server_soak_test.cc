// Multi-session soak: TPC-H queries run through the QueryServer fleet under
// a matrix of disruption scenarios — deterministic work-indexed cancellation,
// expired deadlines, tight memory, transient spill I/O — crossed with intra-
// query worker pools {0, 4} and seeds. The contract under test is execution
// *identity*: whatever the rest of the fleet is doing, a session pinned to an
// explicit soft budget produces rows and telemetry traces byte-identical to a
// solo run of the same query in the same environment, disrupted sessions
// fail exactly as their solo twins do (cross-query fault isolation), and no
// run leaves spill residue behind. A separate test drives the governor into
// real revocation under concurrency and checks every checkpoint of every
// session still satisfies Curr <= LB <= UB with sane estimates.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/fault_injector.h"
#include "exec/query_guard.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "server/query_server.h"
#include "sql/session.h"
#include "storage/spill_file.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"

namespace qprog {
namespace {

enum class Scenario {
  kClean,        // tight-ish budgets only: everything completes by spilling
  kCancel,       // odd queries cancelled at a fixed work index
  kDeadline,     // odd queries start with an already-expired deadline
  kTightMemory,  // odd queries get a much tighter soft budget
  kTransientIo,  // odd queries ride out transient spill I/O faults
};

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kClean: return "clean";
    case Scenario::kCancel: return "cancel";
    case Scenario::kDeadline: return "deadline";
    case Scenario::kTightMemory: return "tight-memory";
    case Scenario::kTransientIo: return "transient-io";
  }
  return "?";
}

// Blocking-operator-heavy SQL over the TPC-H catalog, so tight budgets bite.
const char* kQueries[] = {
    "SELECT l_returnflag, l_linestatus, sum(l_quantity), count(*) "
    "FROM lineitem GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus",
    "SELECT count(*) FROM lineitem l JOIN orders o "
    "ON l.l_orderkey = o.o_orderkey",
    "SELECT o_orderpriority, count(*) FROM orders "
    "GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT l_orderkey, sum(l_extendedprice) FROM lineitem "
    "GROUP BY l_orderkey",
};
constexpr size_t kNumQueries = std::size(kQueries);
const std::vector<std::string> kEstimators = {"dne", "pmax", "safe"};
constexpr uint64_t kInterval = 64;
constexpr uint64_t kCancelAt = 256;

// Scratch dirs carry the pid so concurrent runs of this binary (e.g. the
// ASan and TSan suites on one CI host) never race on each other's cleanup.
std::filesystem::path ScratchDir(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("qprog_server_soak_" + std::to_string(::getpid()) + "_" + tag);
}

int CountSpillFiles(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return 0;
  int n = 0;
  for (const auto& entry : it) {
    if (entry.path().filename().string().rfind(SpillFile::kFilePrefix, 0) ==
        0) {
      ++n;
    }
  }
  return n;
}

// Arms the transient-IO schedule identically for solo and fleet runs.
void ArmTransientIo(FaultInjector* fi, uint64_t seed) {
  int i = 0;
  for (const char* site :
       {faults::kSpillOpen, faults::kSpillWrite, faults::kSpillRead}) {
    FaultSpec spec;
    spec.site = site;
    spec.fail_on_hit = 1 + (seed + static_cast<uint64_t>(i++)) % 100;
    spec.fault_class = FaultClass::kTransient;
    spec.transient_failures = 1 + seed % 2;
    fi->Arm(std::move(spec));
  }
}

struct CellConfig {
  Scenario scenario;
  int threads;  // intra-query worker pool size (0 = serial)
  uint64_t seed;
};

// Everything one query needs for a run the fleet must reproduce exactly.
struct QuerySetup {
  std::string sql;
  uint64_t soft_budget = 0;
  bool disrupted = false;  // scenario applies to this query
};

std::vector<QuerySetup> MakeSetups(const CellConfig& cell) {
  std::vector<QuerySetup> setups(kNumQueries);
  for (size_t qi = 0; qi < kNumQueries; ++qi) {
    QuerySetup& s = setups[qi];
    s.sql = kQueries[qi];
    // Tight enough to spill on the bigger queries, varied by seed and query
    // so the matrix covers different spill shapes.
    s.soft_budget = 32 + 8 * qi + cell.seed % 16;
    s.disrupted = (qi % 2 == 1) && cell.scenario != Scenario::kClean;
    if (s.disrupted && cell.scenario == Scenario::kTightMemory) {
      s.soft_budget = 16;
    }
  }
  return setups;
}

class ServerSoakTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    Status s = tpch::GenerateTpch(config, db_);
    QPROG_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* ServerSoakTest::db_ = nullptr;

// One solo monitored run of `setup` in the exact environment the server
// builds per ticket; returns the trace and the report.
ProgressReport SoloMonitored(const Database* db, const QuerySetup& setup,
                             const CellConfig& cell, WorkerPool* pool,
                             const std::string& dir, std::string* trace) {
  QueryGuard guard;
  guard.set_max_buffered_rows(setup.soft_budget);
  SpillManager spill(dir);
  JsonlStringSink sink;
  TelemetryCollector telemetry(&sink);
  FaultInjector fi(cell.seed);
  sql::SessionOptions so;
  so.estimators = kEstimators;
  so.checkpoint_interval = kInterval;
  so.guard = &guard;
  so.spill_manager = &spill;
  so.worker_pool = pool;
  so.telemetry = &telemetry;
  sql::QueryOptions qo;
  if (setup.disrupted) {
    switch (cell.scenario) {
      case Scenario::kCancel:
        qo.checkpoint_listener = [&guard](const Checkpoint& cp) {
          if (cp.work >= kCancelAt) guard.RequestCancel();
        };
        break;
      case Scenario::kDeadline:
        guard.set_timeout(std::chrono::nanoseconds(1));
        break;
      case Scenario::kTransientIo:
        ArmTransientIo(&fi, cell.seed);
        so.fault_injector = &fi;
        break;
      default:
        break;
    }
  }
  sql::SqlSession session(db, so);
  StatusOr<ProgressReport> report = session.ExecuteMonitored(setup.sql, qo);
  QPROG_CHECK(report.ok());
  *trace = sink.data();
  return std::move(report).value();
}

TEST_F(ServerSoakTest, FleetRunsAreByteIdenticalToSoloRuns) {
  const Scenario kScenarios[] = {Scenario::kClean, Scenario::kCancel,
                                 Scenario::kDeadline, Scenario::kTightMemory,
                                 Scenario::kTransientIo};
  for (int threads : {0, 4}) {
    for (uint64_t seed : {17u, 42u}) {
      for (Scenario scenario : kScenarios) {
        CellConfig cell{scenario, threads, seed};
        SCOPED_TRACE(std::string("scenario=") + ScenarioName(scenario) +
                     " threads=" + std::to_string(threads) +
                     " seed=" + std::to_string(seed));
        std::vector<QuerySetup> setups = MakeSetups(cell);

        std::filesystem::path dir =
            ScratchDir(std::string(ScenarioName(scenario)) + "_t" +
                       std::to_string(threads) + "_s" + std::to_string(seed));
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);

        std::unique_ptr<WorkerPool> solo_pool;
        if (threads > 0) solo_pool = std::make_unique<WorkerPool>(threads);

        // Solo references: monitored traces/reports and plain rows.
        std::vector<std::string> solo_traces(kNumQueries);
        std::vector<ProgressReport> solo_reports;
        std::vector<std::string> solo_rows(kNumQueries);
        for (size_t qi = 0; qi < kNumQueries; ++qi) {
          solo_reports.push_back(SoloMonitored(db_, setups[qi], cell,
                                               solo_pool.get(), dir.string(),
                                               &solo_traces[qi]));
          QueryGuard guard;
          guard.set_max_buffered_rows(setups[qi].soft_budget);
          SpillManager spill(dir.string());
          sql::SessionOptions so;
          so.checkpoint_interval = kInterval;
          so.guard = &guard;
          so.spill_manager = &spill;
          so.worker_pool = solo_pool.get();
          sql::SqlSession session(db_, so);
          StatusOr<sql::QueryRows> rows = session.Execute(setups[qi].sql);
          ASSERT_TRUE(rows.ok()) << rows.status();
          solo_rows[qi] = testutil::RowsToString(rows->rows);
        }
        ASSERT_EQ(CountSpillFiles(dir.string()), 0);

        // Fleet run: 8 sessions, one monitored + one plain submission per
        // query, all in flight together. Explicit soft budgets + an
        // unconstrained pool pin every ticket's memory envelope to its solo
        // twin, so the only thing that could diverge is cross-session
        // interference — which is exactly what must not exist.
        ServerOptions opts;
        opts.sessions = 8;
        opts.estimators = kEstimators;
        opts.checkpoint_interval = kInterval;
        opts.spill_dir = dir.string();
        QueryServer server(db_, opts);

        std::vector<std::unique_ptr<WorkerPool>> pools;
        std::vector<std::unique_ptr<JsonlStringSink>> sinks;
        std::vector<std::unique_ptr<TelemetryCollector>> collectors;
        std::vector<std::unique_ptr<FaultInjector>> injectors;
        std::vector<uint64_t> monitored_tickets(kNumQueries);
        std::vector<uint64_t> plain_tickets(kNumQueries);
        for (size_t qi = 0; qi < kNumQueries; ++qi) {
          SubmitOptions so;
          so.soft_budget_rows = setups[qi].soft_budget;
          if (threads > 0) {
            pools.push_back(std::make_unique<WorkerPool>(threads));
            so.worker_pool = pools.back().get();
          }
          sinks.push_back(std::make_unique<JsonlStringSink>());
          collectors.push_back(
              std::make_unique<TelemetryCollector>(sinks.back().get()));
          so.telemetry = collectors.back().get();
          if (setups[qi].disrupted) {
            switch (scenario) {
              case Scenario::kCancel: {
                // Deterministic work-indexed cancel, same index as solo. The
                // gate blocks the listener until the submitter has published
                // the ticket id (the query can reach kCancelAt units before
                // Submit even returns on the submitting thread).
                struct CancelGate {
                  std::mutex mu;
                  std::condition_variable cv;
                  uint64_t ticket = 0;
                  bool fired = false;
                };
                auto gate = std::make_shared<CancelGate>();
                auto server_ptr = &server;
                so.checkpoint_listener = [server_ptr,
                                          gate](const Checkpoint& cp) {
                  if (cp.work < kCancelAt) return;
                  std::unique_lock<std::mutex> lock(gate->mu);
                  if (gate->fired) return;
                  gate->fired = true;
                  gate->cv.wait(lock, [&] { return gate->ticket != 0; });
                  server_ptr->Cancel(gate->ticket);
                };
                monitored_tickets[qi] =
                    server.Submit("soak", setups[qi].sql, so);
                {
                  std::lock_guard<std::mutex> lock(gate->mu);
                  gate->ticket = monitored_tickets[qi];
                }
                gate->cv.notify_all();
                break;
              }
              case Scenario::kDeadline:
                so.timeout = std::chrono::nanoseconds(1);
                break;
              case Scenario::kTransientIo:
                injectors.push_back(std::make_unique<FaultInjector>(cell.seed));
                ArmTransientIo(injectors.back().get(), cell.seed);
                so.fault_injector = injectors.back().get();
                break;
              default:
                break;
            }
          }
          if (monitored_tickets[qi] == 0) {
            monitored_tickets[qi] = server.Submit("soak", setups[qi].sql, so);
          }

          SubmitOptions plain;
          plain.monitored = false;
          plain.soft_budget_rows = setups[qi].soft_budget;
          if (threads > 0) {
            pools.push_back(std::make_unique<WorkerPool>(threads));
            plain.worker_pool = pools.back().get();
          }
          plain_tickets[qi] = server.Submit("soak", setups[qi].sql, plain);
        }

        for (size_t qi = 0; qi < kNumQueries; ++qi) {
          SCOPED_TRACE("query " + std::to_string(qi));
          QueryResult mr = server.Wait(monitored_tickets[qi]);
          ASSERT_TRUE(mr.status.code() == solo_reports[qi].status.code())
              << "fleet status " << mr.status << " vs solo "
              << solo_reports[qi].status;
          EXPECT_EQ(mr.report.termination, solo_reports[qi].termination);
          EXPECT_EQ(mr.report.total_work, solo_reports[qi].total_work);
          EXPECT_EQ(mr.report.root_rows, solo_reports[qi].root_rows);
          EXPECT_EQ(mr.report.spill_work, solo_reports[qi].spill_work);
          EXPECT_EQ(mr.report.checkpoints.size(),
                    solo_reports[qi].checkpoints.size());
          EXPECT_EQ(sinks[qi]->data(), solo_traces[qi])
              << "fleet trace diverged from the solo run";
          for (const Checkpoint& cp : mr.report.checkpoints) {
            EXPECT_LE(static_cast<double>(cp.work), cp.work_lb + 1e-9);
            EXPECT_LE(cp.work_lb, cp.work_ub + 1e-9);
            for (double e : cp.estimates) {
              EXPECT_FALSE(std::isnan(e));
              EXPECT_GE(e, 0.0);
              EXPECT_LE(e, 1.0);
            }
          }

          QueryResult pr = server.Wait(plain_tickets[qi]);
          ASSERT_TRUE(pr.status.ok()) << pr.status;
          EXPECT_EQ(testutil::RowsToString(pr.rows), solo_rows[qi])
              << "fleet rows diverged from the solo run";
        }

        server.Shutdown();
        EXPECT_EQ(CountSpillFiles(dir.string()), 0)
            << "fleet run leaked spill temp files";
        std::filesystem::remove_all(dir);
      }
    }
  }
}

// Governor revocation under real concurrency: a pool far smaller than the
// fleet's combined appetite forces Acquire to revoke headroom from running
// victims. Victims spill earlier but must still complete, return the right
// row counts, and keep Curr <= LB <= UB at every checkpoint.
TEST_F(ServerSoakTest, RevocationUnderLoadKeepsBoundsAndResults) {
  // Solo row counts for the result check.
  std::vector<uint64_t> solo_root_rows;
  for (const char* sql : kQueries) {
    StatusOr<sql::QueryRows> rows = sql::ExecuteSql(sql, *db_);
    ASSERT_TRUE(rows.ok()) << rows.status();
    solo_root_rows.push_back(rows->rows.size());
  }

  std::filesystem::path dir = ScratchDir("revoke");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ServerOptions opts;
  opts.sessions = 4;
  opts.estimators = kEstimators;
  opts.checkpoint_interval = kInterval;
  opts.spill_dir = dir.string();
  opts.governor.pool_rows = 256;  // well below the fleet's combined asks
  opts.governor.min_grant_rows = 16;
  opts.admission.fallback_peak_rows = 200;
  QueryServer server(db_, opts);

  // Slow every query down a little so executions genuinely overlap and the
  // governor has live victims to revoke from.
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  struct Observed {
    std::mutex mu;
    std::vector<Checkpoint> checkpoints;
  };
  std::vector<std::unique_ptr<Observed>> observed;
  std::vector<uint64_t> tickets;
  for (int round = 0; round < 2; ++round) {
    for (size_t qi = 0; qi < kNumQueries; ++qi) {
      injectors.push_back(std::make_unique<FaultInjector>(7 * round + qi));
      FaultSpec spec;
      spec.site = faults::kSeqScanNext;
      spec.latency_spins = 500;
      injectors.back()->Arm(std::move(spec));
      observed.push_back(std::make_unique<Observed>());
      Observed* obs = observed.back().get();
      SubmitOptions so;
      so.fault_injector = injectors.back().get();
      so.checkpoint_listener = [obs](const Checkpoint& cp) {
        std::lock_guard<std::mutex> lock(obs->mu);
        obs->checkpoints.push_back(cp);
      };
      tickets.push_back(server.Submit("soak", kQueries[qi], so));
    }
  }

  for (size_t i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE("submission " + std::to_string(i));
    QueryResult r = server.Wait(tickets[i]);
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(r.report.completed());
    EXPECT_EQ(r.report.root_rows, solo_root_rows[i % kNumQueries]);
    EXPECT_GT(r.granted_rows, 0u);
    EXPECT_LE(r.granted_rows, opts.governor.pool_rows);
    std::lock_guard<std::mutex> lock(observed[i]->mu);
    EXPECT_FALSE(observed[i]->checkpoints.empty());
    for (const Checkpoint& cp : observed[i]->checkpoints) {
      EXPECT_LE(static_cast<double>(cp.work), cp.work_lb + 1e-9);
      EXPECT_LE(cp.work_lb, cp.work_ub + 1e-9);
      for (double e : cp.estimates) {
        EXPECT_FALSE(std::isnan(e));
        EXPECT_GE(e, 0.0);
        EXPECT_LE(e, 1.0);
      }
    }
  }
  // The pool genuinely arbitrated: grants were revoked to seat newcomers,
  // and every grant was returned.
  EXPECT_EQ(server.governor().granted_rows(), 0u);
  FleetReport fleet = server.Fleet();
  EXPECT_GT(fleet.revocations, 0u) << "no concurrent arbitration happened";
  EXPECT_EQ(fleet.done, tickets.size());
  server.Shutdown();
  EXPECT_EQ(CountSpillFiles(dir.string()), 0);
  std::filesystem::remove_all(dir);
}


// Pooled leg: a 4-session fleet sharing one fleet-wide worker pool (the
// ExecutionConfig spine), under a governor pool small enough to revoke
// mid-run and with latency faults on every scan. Every run must complete
// with the serial row count and keep Curr <= LB <= UB at every checkpoint.
TEST_F(ServerSoakTest, PooledFleetKeepsBoundsAndResultsUnderRevocation) {
  std::vector<uint64_t> solo_root_rows;
  for (const char* sql : kQueries) {
    StatusOr<sql::QueryRows> rows = sql::ExecuteSql(sql, *db_);
    ASSERT_TRUE(rows.ok()) << rows.status();
    solo_root_rows.push_back(rows->rows.size());
  }

  std::filesystem::path dir = ScratchDir("pooled");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  WorkerPool pool(4);
  ServerOptions opts;
  opts.sessions = 4;
  opts.worker_pool = &pool;  // fleet-wide default intra-query pool
  opts.estimators = kEstimators;
  opts.checkpoint_interval = kInterval;
  opts.spill_dir = dir.string();
  opts.governor.pool_rows = 256;
  opts.governor.min_grant_rows = 16;
  opts.admission.fallback_peak_rows = 200;
  QueryServer server(db_, opts);

  struct Observed {
    std::mutex mu;
    std::vector<Checkpoint> checkpoints;
  };
  std::vector<std::unique_ptr<Observed>> observed;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<uint64_t> tickets;
  for (int round = 0; round < 2; ++round) {
    for (size_t qi = 0; qi < kNumQueries; ++qi) {
      injectors.push_back(std::make_unique<FaultInjector>(13 * round + qi));
      FaultSpec spec;
      spec.site = faults::kSeqScanNext;
      spec.latency_spins = 500;
      injectors.back()->Arm(std::move(spec));
      observed.push_back(std::make_unique<Observed>());
      Observed* obs = observed.back().get();
      SubmitOptions so;
      so.fault_injector = injectors.back().get();
      so.checkpoint_listener = [obs](const Checkpoint& cp) {
        std::lock_guard<std::mutex> lock(obs->mu);
        obs->checkpoints.push_back(cp);
      };
      tickets.push_back(server.Submit("pooled", kQueries[qi], so));
    }
  }

  for (size_t i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE("submission " + std::to_string(i));
    QueryResult r = server.Wait(tickets[i]);
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(r.report.completed());
    EXPECT_EQ(r.report.root_rows, solo_root_rows[i % kNumQueries])
        << "pooled fleet run changed the result";
    std::lock_guard<std::mutex> lock(observed[i]->mu);
    EXPECT_FALSE(observed[i]->checkpoints.empty());
    for (const Checkpoint& cp : observed[i]->checkpoints) {
      EXPECT_LE(static_cast<double>(cp.work), cp.work_lb + 1e-9);
      EXPECT_LE(cp.work_lb, cp.work_ub + 1e-9);
      for (double e : cp.estimates) {
        EXPECT_FALSE(std::isnan(e));
        EXPECT_GE(e, 0.0);
        EXPECT_LE(e, 1.0);
      }
    }
  }
  EXPECT_EQ(server.governor().granted_rows(), 0u);
  FleetReport fleet = server.Fleet();
  EXPECT_EQ(fleet.done, tickets.size());
  // The fleet report surfaces the estimator catalog (ListEstimatorSpecs).
  EXPECT_FALSE(fleet.estimator_specs.empty());
  bool has_auto = false;
  for (const EstimatorSpecInfo& info : fleet.estimator_specs) {
    if (info.name == "auto") has_auto = true;
  }
  EXPECT_TRUE(has_auto);
  server.Shutdown();
  EXPECT_EQ(CountSpillFiles(dir.string()), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace qprog
