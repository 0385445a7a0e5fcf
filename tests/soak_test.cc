// Randomized guardrail soak: TPC-H-style plans run under a seed matrix of
// disruption scenarios — cancellation, expired deadlines, work budgets,
// forced spilling, and transient spill I/O faults — all with a tight
// buffered-row budget and a SpillManager attached, so every disruption lands
// in the middle of memory-adaptive execution. Whatever the outcome, the
// structural invariants must hold: no leaked temp files, zero live spill
// runs, the buffered-row account drained to zero, every estimate sanitized
// into [0, 1], and completed runs result-identical to an unconstrained run.
// The whole matrix runs twice: single-threaded and with a 4-thread worker
// pool, so every disruption also lands inside pooled sort run formation
// (DESIGN.md §10).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/monitor.h"
#include "exec/aggregate.h"
#include "exec/fault_injector.h"
#include "exec/join.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "storage/spill_file.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace qprog {
namespace {

/// Every plan execution in this file goes through the unified driver;
/// this adapter keeps the StatusOr shape the assertions expect.
StatusOr<std::vector<Row>> DriveRows(PhysicalPlan* plan, ExecContext* ctx) {
  exec::DriveResult r = exec::Drive(plan, {.ctx = ctx, .collect_rows = true});
  if (!r.ok()) return r.status;
  return std::move(r.rows);
}

enum class Scenario {
  kSpillOnly,     // tight budget, no disruption: must complete by spilling
  kCancel,        // cancel requested mid-run
  kDeadline,      // already-expired deadline
  kWorkBudget,    // hard work cap
  kTransientIo,   // transient faults at every spill site, ridden out
};

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kSpillOnly: return "spill";
    case Scenario::kCancel: return "cancel";
    case Scenario::kDeadline: return "deadline";
    case Scenario::kWorkBudget: return "work-budget";
    case Scenario::kTransientIo: return "transient-io";
  }
  return "?";
}

int CountSpillFiles(const std::string& dir) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(SpillFile::kFilePrefix, 0) ==
        0) {
      ++n;
    }
  }
  return n;
}

class SoakTest : public ::testing::Test {
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

Database* SoakTest::db_ = nullptr;

// Queries whose plans contain blocking operators (sort / hash join / hash
// aggregate), so a tight buffered-row budget actually bites.
const int kQueries[] = {1, 3, 6, 10};
const uint64_t kSeeds[] = {17, 42, 271};

TEST_F(SoakTest, DisruptionMatrixLeavesNoResidue) {
  const Scenario kScenarios[] = {
      Scenario::kSpillOnly, Scenario::kCancel, Scenario::kDeadline,
      Scenario::kWorkBudget, Scenario::kTransientIo};

  // Unconstrained baselines, once per query, for result equivalence.
  std::vector<std::string> baselines;
  for (int q : kQueries) {
    StatusOr<PhysicalPlan> plan = tpch::BuildQuery(q, *db_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ExecContext ctx;
    StatusOr<std::vector<Row>> rows = DriveRows(&plan.value(), &ctx);
    ASSERT_TRUE(rows.ok()) << "Q" << q << ": " << rows.status();
    baselines.push_back(testutil::RowsToString(rows.value()));
  }

  uint64_t total_spilled_runs = 0;
  for (int threads : {0, 4}) {
    std::unique_ptr<WorkerPool> pool;
    if (threads > 0) pool = std::make_unique<WorkerPool>(threads);
  for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
    for (uint64_t seed : kSeeds) {
      for (Scenario scenario : kScenarios) {
        const int q = kQueries[qi];
        SCOPED_TRACE(std::string("Q") + std::to_string(q) + " seed=" +
                     std::to_string(seed) + " scenario=" +
                     ScenarioName(scenario) + " threads=" +
                     std::to_string(threads));
        Rng rng(seed * 1000003 + static_cast<uint64_t>(q));

        std::filesystem::path dir =
            std::filesystem::temp_directory_path() /
            ("qprog_soak_" + std::to_string(q) + "_" + std::to_string(seed) +
             "_" + ScenarioName(scenario) + "_t" + std::to_string(threads));
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);

        SpillManager spill(dir.string());
        QueryGuard guard;
        guard.set_check_interval(64);
        // Tight enough that the bigger queries spill, loose enough that the
        // clean scenarios still complete.
        guard.set_max_buffered_rows(16 + rng.Uniform(64));
        FaultInjector fi(seed);

        std::set<StatusCode> allowed = {StatusCode::kOk};
        uint64_t cancel_at = 0;
        switch (scenario) {
          case Scenario::kSpillOnly:
            break;
          case Scenario::kCancel:
            cancel_at = 64 * (1 + rng.Uniform(40));
            allowed.insert(StatusCode::kCancelled);
            break;
          case Scenario::kDeadline:
            guard.set_deadline(QueryGuard::Clock::now() -
                               std::chrono::seconds(1));
            allowed = {StatusCode::kDeadlineExceeded};
            break;
          case Scenario::kWorkBudget:
            guard.set_max_work(256 * (1 + rng.Uniform(32)));
            allowed.insert(StatusCode::kResourceExhausted);
            break;
          case Scenario::kTransientIo:
            for (const char* site : {faults::kSpillOpen, faults::kSpillWrite,
                                     faults::kSpillRead}) {
              FaultSpec spec;
              spec.site = site;
              spec.fail_on_hit = 1 + rng.Uniform(200);
              spec.fault_class = FaultClass::kTransient;
              spec.transient_failures = 1 + rng.Uniform(2);
              fi.Arm(std::move(spec));
            }
            break;
        }

        // Direct run: exposes the ExecContext for the drained-account check.
        {
          StatusOr<PhysicalPlan> plan = tpch::BuildQuery(q, *db_);
          ASSERT_TRUE(plan.ok()) << plan.status();
          ExecContext ctx;
          ctx.set_guard(&guard);
          ctx.set_spill_manager(&spill);
          ctx.set_fault_injector(&fi);
          ctx.set_worker_pool(pool.get());
          fi.Reset();
          if (cancel_at > 0) {
            ctx.SetWorkObserver(64, [&](uint64_t work) {
              if (work >= cancel_at) guard.RequestCancel();
            });
          }
          StatusOr<std::vector<Row>> rows =
              DriveRows(&plan.value(), &ctx);
          StatusCode code =
              rows.ok() ? StatusCode::kOk : rows.status().code();
          EXPECT_TRUE(allowed.count(code))
              << "unexpected outcome: "
              << (rows.ok() ? "OK" : rows.status().ToString());
          if (rows.ok()) {
            EXPECT_EQ(testutil::RowsToString(rows.value()), baselines[qi])
                << "degraded run changed the result";
          }
          EXPECT_EQ(ctx.buffered_rows(), 0u)
              << "buffered-row account not drained";
          EXPECT_EQ(spill.live_runs(), 0u) << "live spill runs leaked";
          EXPECT_TRUE(spill.live_files().empty())
              << "live-file registry not drained: " << spill.live_files()[0];
          EXPECT_EQ(CountSpillFiles(dir.string()), 0)
              << "temp spill files leaked";
          guard.ResetCancel();
        }

        // Monitored run: the same configuration sampled by the estimators.
        {
          StatusOr<PhysicalPlan> plan = tpch::BuildQuery(q, *db_);
          ASSERT_TRUE(plan.ok()) << plan.status();
          MonitorOptions mo;
          mo.guard = &guard;
          mo.spill_manager = &spill;
          mo.fault_injector = &fi;
          mo.worker_pool = pool.get();
          if (cancel_at > 0) {
            mo.checkpoint_listener = [&](const Checkpoint& cp) {
              if (cp.work >= cancel_at) guard.RequestCancel();
            };
          }
          ProgressMonitor m = ProgressMonitor::WithEstimators(
              &plan.value(), {"dne", "pmax", "safe"}, mo);
          ProgressReport r = m.Run(64);
          EXPECT_TRUE(allowed.count(r.completed() ? StatusCode::kOk
                                                  : r.status.code()))
              << "unexpected monitored outcome: " << r.status.ToString();
          for (const Checkpoint& cp : r.checkpoints) {
            EXPECT_LE(static_cast<double>(cp.work), cp.work_lb + 1e-9);
            EXPECT_LE(cp.work_lb, cp.work_ub + 1e-9);
            for (double e : cp.estimates) {
              EXPECT_FALSE(std::isnan(e));
              EXPECT_GE(e, 0.0);
              EXPECT_LE(e, 1.0);
            }
          }
          EXPECT_EQ(spill.live_runs(), 0u);
          EXPECT_TRUE(spill.live_files().empty())
              << "live-file registry not drained: " << spill.live_files()[0];
          EXPECT_EQ(CountSpillFiles(dir.string()), 0);
          guard.ResetCancel();
        }

        total_spilled_runs += spill.stats().runs_created;
        std::filesystem::remove_all(dir);
      }
    }
  }
  }
  // The matrix must actually exercise the memory-adaptive path: across all
  // queries, seeds, and scenarios, plenty of spill runs were created.
  EXPECT_GT(total_spilled_runs, 0u);
}

// Tight-memory recursive-Grace scenario: every build key hashes into one
// depth-0 partition, so under a kill threshold below the partition size the
// join can only complete by re-splitting with fresh salts — twice, since one
// re-split still leaves oversized children. Serial and 4-thread runs must
// produce identical rows and leave no residue.
TEST(SoakRecursionTest, TightMemoryRecursiveGraceLeavesNoResidue) {
  std::vector<int64_t> keys;
  for (int64_t k = 0; keys.size() < 200; ++k) {
    if (RowHash()(Row{Value::Int64(k)}) %
            static_cast<size_t>(kSpillFanout) ==
        0) {
      keys.push_back(k);
    }
  }
  std::vector<Row> brows, prows;
  for (int64_t k : keys) {
    for (int64_t i = 0; i < 8; ++i) {
      brows.push_back({Value::Int64(k), Value::Int64(i)});
    }
    prows.push_back({Value::Int64(k), Value::Int64(100)});
  }
  Table build = testutil::MakeTable("b", {"k", "v"}, std::move(brows));
  Table probe = testutil::MakeTable("p", {"k", "v"}, std::move(prows));

  std::string expected;
  for (int threads : {0, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                ("qprog_soak_grace_t" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SpillManager spill(dir.string());
    QueryGuard guard;
    guard.set_max_buffered_rows(64);
    guard.set_max_buffered_rows_kill(150);
    std::unique_ptr<WorkerPool> pool;
    if (threads > 0) pool = std::make_unique<WorkerPool>(threads);
    std::vector<ExprPtr> pk, bk;
    pk.push_back(eb::Col(0));
    bk.push_back(eb::Col(0));
    PhysicalPlan plan(std::make_unique<HashJoin>(
        std::make_unique<SeqScan>(&probe), std::make_unique<SeqScan>(&build),
        std::move(pk), std::move(bk)));
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    ctx.set_worker_pool(pool.get());
    StatusOr<std::vector<Row>> rows = DriveRows(&plan, &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows.value().size(), 200u * 8);
    EXPECT_GT(spill.stats().runs_created,
              static_cast<uint64_t>(2 * kSpillFanout))
        << "no recursive re-split happened";
    EXPECT_EQ(ctx.buffered_rows(), 0u) << "buffered-row account not drained";
    EXPECT_EQ(spill.live_runs(), 0u) << "live spill runs leaked";
    EXPECT_TRUE(spill.live_files().empty())
        << "live-file registry not drained: " << spill.live_files()[0];
    EXPECT_EQ(CountSpillFiles(dir.string()), 0) << "temp spill files leaked";
    if (expected.empty()) {
      expected = testutil::RowsToString(rows.value());
    } else {
      EXPECT_EQ(testutil::RowsToString(rows.value()), expected)
          << "parallel recursion changed the result";
    }
    std::filesystem::remove_all(dir);
  }
}


}  // namespace
}  // namespace qprog
