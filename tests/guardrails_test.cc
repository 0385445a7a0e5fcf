// Execution-guardrail and fault-injection tests: cancellation honored at
// every checkpoint, work/deadline/buffer budgets, deterministic fault
// replay, Status propagation out of every operator type, and the monitor's
// estimate range invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/monitor.h"
#include "exec/aggregate.h"
#include "exec/fault_injector.h"
#include "exec/filter_project.h"
#include "exec/join.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/spill.h"
#include "index/ordered_index.h"
#include "core/explain.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::I;

std::vector<SortKey> KeyOnCol0() {
  std::vector<SortKey> keys;
  keys.emplace_back(eb::Col(0));
  return keys;
}

Table Numbers(int64_t n) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows.push_back({I(i)});
  return testutil::MakeTable("t", {"v"}, std::move(rows));
}

/// Scan -> Filter plan whose work is exactly the scan output (the root's
/// rows are not counted), so checkpoint arithmetic is easy to assert.
PhysicalPlan ScanFilterPlan(const Table* t) {
  auto scan = std::make_unique<SeqScan>(t);
  return PhysicalPlan(std::make_unique<Filter>(
      std::move(scan), eb::Lt(eb::Col(0), eb::Int(1 << 30))));
}

PhysicalPlan CountAggPlan(const Table* t) {
  auto scan = std::make_unique<SeqScan>(t);
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  return PhysicalPlan(std::make_unique<HashAggregate>(
      std::move(scan), std::vector<ExprPtr>{}, std::vector<std::string>{},
      std::move(aggs)));
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

// A cancel requested from checkpoint k must stop execution at that same
// observation event: the partial report's total work equals the checkpoint's
// work, and no later checkpoint exists. Exercised at *every* checkpoint.
TEST(GuardrailsTest, CancelHonoredAtEveryCheckpoint) {
  Table t = Numbers(1000);
  const uint64_t kInterval = 100;
  const size_t kCheckpoints = 10;  // work == 1000 == scan rows
  for (size_t cancel_at = 0; cancel_at < kCheckpoints; ++cancel_at) {
    PhysicalPlan plan = ScanFilterPlan(&t);
    QueryGuard guard;
    size_t seen = 0;
    MonitorOptions mo;
    mo.guard = &guard;
    mo.checkpoint_listener = [&](const Checkpoint&) {
      if (seen++ == cancel_at) guard.RequestCancel();
    };
    ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, {"safe"}, mo);
    ProgressReport r = m.Run(kInterval);
    EXPECT_EQ(r.termination, TerminationReason::kCancelled);
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(r.checkpoints.size(), cancel_at + 1);
    EXPECT_EQ(r.total_work, kInterval * (cancel_at + 1))
        << "cancel at checkpoint " << cancel_at
        << " was not honored within the same observation event";
    EXPECT_EQ(r.mu, 0.0);
    for (const Checkpoint& c : r.checkpoints) {
      EXPECT_EQ(c.true_progress, 0.0);  // unknowable for an unfinished query
    }
  }
}

TEST(GuardrailsTest, CancelBeforeRunStopsImmediately) {
  Table t = Numbers(100);
  PhysicalPlan plan = ScanFilterPlan(&t);
  QueryGuard guard;
  guard.set_check_interval(8);
  guard.RequestCancel();
  ExecContext ctx;
  ctx.set_guard(&guard);
  Status s = exec::Drive(&plan, {.ctx = &ctx}).status;
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_LE(ctx.work(), 8u);  // at most one amortized interval of extra work
  guard.ResetCancel();
  EXPECT_FALSE(guard.cancel_requested());
  Status again = exec::Drive(&plan, {.ctx = &ctx}).status;
  EXPECT_TRUE(again.ok()) << again.ToString();
}

// ---------------------------------------------------------------------------
// Budgets and deadlines
// ---------------------------------------------------------------------------

TEST(GuardrailsTest, WorkBudgetTripsExactlyAtLimit) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  QueryGuard guard;
  guard.set_max_work(500);
  MonitorOptions mo;
  mo.guard = &guard;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "safe"}, mo);
  ProgressReport r = m.Run(100);
  EXPECT_EQ(r.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.total_work, 500u);  // the budget is a hard trip point
  EXPECT_EQ(r.checkpoints.size(), 5u);
}

TEST(GuardrailsTest, ExpiredDeadlineAborts) {
  Table t = Numbers(5000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  QueryGuard guard;
  guard.set_check_interval(16);
  guard.set_deadline(QueryGuard::Clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(guard.has_deadline());
  ExecContext ctx;
  ctx.set_guard(&guard);
  Status s = exec::Drive(&plan, {.ctx = &ctx}).status;
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(ctx.work(), 16u);
  guard.clear_deadline();
  EXPECT_FALSE(guard.has_deadline());
  EXPECT_TRUE(exec::Drive(&plan, {.ctx = &ctx}).ok());
}

TEST(GuardrailsTest, GenerousTimeoutDoesNotTrip) {
  Table t = Numbers(200);
  PhysicalPlan plan = ScanFilterPlan(&t);
  QueryGuard guard;
  guard.set_timeout(std::chrono::hours(1));
  ExecContext ctx;
  ctx.set_guard(&guard);
  EXPECT_TRUE(exec::Drive(&plan, {.ctx = &ctx}).ok());
  EXPECT_EQ(ctx.work(), 200u);
}

TEST(GuardrailsTest, BufferedRowBudgetStopsSort) {
  Table t = Numbers(1000);
  PhysicalPlan plan(std::make_unique<Sort>(std::make_unique<SeqScan>(&t),
                                           KeyOnCol0()));
  QueryGuard guard;
  guard.set_max_buffered_rows(100);
  ExecContext ctx;
  ctx.set_guard(&guard);
  Status s = exec::Drive(&plan, {.ctx = &ctx}).status;
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(TerminationFromStatus(s), TerminationReason::kBudgetExhausted);
  // Close() ran: the aborted sort returned its charge to the budget.
  EXPECT_EQ(ctx.buffered_rows(), 0u);
}

TEST(GuardrailsTest, BufferedRowBudgetStopsHashJoinBuild) {
  Table probe = Numbers(10);
  Table build = Numbers(1000);
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(0));
  bk.push_back(eb::Col(0));
  PhysicalPlan plan(std::make_unique<HashJoin>(
      std::make_unique<SeqScan>(&probe), std::make_unique<SeqScan>(&build),
      std::move(pk), std::move(bk)));
  QueryGuard guard;
  guard.set_max_buffered_rows(64);
  ExecContext ctx;
  ctx.set_guard(&guard);
  EXPECT_EQ(exec::Drive(&plan, {.ctx = &ctx}).status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.buffered_rows(), 0u);
}

TEST(GuardrailsTest, BufferedRowBudgetStopsHashAggregateGroups) {
  Table t = Numbers(1000);  // every row its own group
  auto scan = std::make_unique<SeqScan>(&t);
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0));
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  PhysicalPlan plan(std::make_unique<HashAggregate>(
      std::move(scan), std::move(groups), std::vector<std::string>{"g"},
      std::move(aggs)));
  QueryGuard guard;
  guard.set_max_buffered_rows(50);
  ExecContext ctx;
  ctx.set_guard(&guard);
  EXPECT_EQ(exec::Drive(&plan, {.ctx = &ctx}).status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.buffered_rows(), 0u);
}

TEST(GuardrailsTest, SufficientBufferBudgetPasses) {
  Table t = Numbers(500);
  PhysicalPlan plan(std::make_unique<Sort>(std::make_unique<SeqScan>(&t),
                                           KeyOnCol0()));
  QueryGuard guard;
  guard.set_max_buffered_rows(500);
  ExecContext ctx;
  ctx.set_guard(&guard);
  EXPECT_TRUE(exec::Drive(&plan, {.ctx = &ctx}).ok());
  EXPECT_EQ(ctx.buffered_rows(), 0u);  // released on Close
}

// ---------------------------------------------------------------------------
// Fault injection: every operator type propagates a clean Status
// ---------------------------------------------------------------------------

struct FaultCase {
  std::string site;
  std::function<PhysicalPlan()> make_plan;
  // Spill-layer sites are only reached when the plan actually spills: run
  // these cases under a tight soft budget with a SpillManager attached.
  bool spilling = false;
};

/// Runs `plan` with a fault armed at `site` and asserts the error surfaces
/// as the execution Status with the injected code and site name.
void ExpectFaultStops(PhysicalPlan plan, const std::string& site,
                      uint64_t fail_on_hit, bool spilling = false) {
  FaultInjector fi(7);
  FaultSpec spec;
  spec.site = site;
  spec.fail_on_hit = fail_on_hit;
  spec.code = StatusCode::kInternal;
  fi.Arm(std::move(spec));
  QueryGuard guard;
  SpillManager spill;
  ExecContext ctx;
  if (spilling) {
    guard.set_max_buffered_rows(32);
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
  }
  ctx.set_fault_injector(&fi);
  exec::DriveResult result =
      exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
  ASSERT_FALSE(result.ok()) << "fault at " << site << " did not surface";
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_NE(result.status.message().find(site), std::string::npos)
      << result.status.ToString();
  EXPECT_EQ(TerminationFromStatus(result.status), TerminationReason::kFault);
  EXPECT_GE(fi.hit_count(site), fail_on_hit);

  // The same context and plan must be reusable after the fault is disarmed:
  // no operator may be left wedged in a failed state.
  fi.Disarm(site);
  exec::DriveResult retry =
      exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
  EXPECT_TRUE(retry.ok()) << "plan not rerunnable after fault at " << site
                          << ": " << retry.status.ToString();
  if (spilling) {
    // Both the aborted and the clean rerun must leave zero live spill runs.
    EXPECT_GT(spill.stats().runs_created, 0u)
        << "spill case for " << site << " never spilled";
    EXPECT_EQ(spill.live_runs(), 0u);
  }
}

TEST(GuardrailsTest, EveryFaultSiteStopsItsOperator) {
  Table small = Numbers(20);
  Table big = Numbers(200);
  OrderedIndex index(&small, 0);

  std::vector<FaultCase> cases;
  cases.push_back({faults::kSeqScanOpen, [&] {
                     return PhysicalPlan(std::make_unique<SeqScan>(&big));
                   }});
  cases.push_back({faults::kSeqScanNext, [&] {
                     return PhysicalPlan(std::make_unique<SeqScan>(&big));
                   }});
  cases.push_back({faults::kIndexSeekNext, [&] {
                     return PhysicalPlan(std::make_unique<IndexSeek>(
                         &index, Value::Null(), false, true, Value::Null(),
                         false, true));
                   }});
  cases.push_back({faults::kFilterNext, [&] {
                     return PhysicalPlan(std::make_unique<Filter>(
                         std::make_unique<SeqScan>(&big),
                         eb::Ge(eb::Col(0), eb::Int(0))));
                   }});
  cases.push_back({faults::kProjectNext, [&] {
                     std::vector<ExprPtr> exprs;
                     exprs.push_back(eb::Col(0));
                     return PhysicalPlan(std::make_unique<Project>(
                         std::make_unique<SeqScan>(&big), std::move(exprs),
                         std::vector<std::string>{"v"}));
                   }});
  cases.push_back({faults::kLimitNext, [&] {
                     return PhysicalPlan(std::make_unique<Limit>(
                         std::make_unique<SeqScan>(&big), 50));
                   }});
  cases.push_back({faults::kNestedLoopsJoinNext, [&] {
                     return PhysicalPlan(std::make_unique<NestedLoopsJoin>(
                         std::make_unique<SeqScan>(&small),
                         std::make_unique<SeqScan>(&small),
                         eb::Eq(eb::Col(0), eb::Col(1))));
                   }});
  cases.push_back({faults::kIndexNestedLoopsJoinNext, [&] {
                     return PhysicalPlan(std::make_unique<IndexNestedLoopsJoin>(
                         std::make_unique<SeqScan>(&small),
                         std::make_unique<IndexSeek>(&index), eb::Col(0)));
                   }});
  auto hash_join_plan = [&] {
    std::vector<ExprPtr> pk, bk;
    pk.push_back(eb::Col(0));
    bk.push_back(eb::Col(0));
    return PhysicalPlan(std::make_unique<HashJoin>(
        std::make_unique<SeqScan>(&big), std::make_unique<SeqScan>(&small),
        std::move(pk), std::move(bk)));
  };
  cases.push_back({faults::kHashJoinOpen, hash_join_plan});
  cases.push_back({faults::kHashJoinBuild, hash_join_plan});
  cases.push_back({faults::kHashJoinProbe, hash_join_plan});
  cases.push_back({faults::kMergeJoinNext, [&] {
                     std::vector<ExprPtr> lk, rk;
                     lk.push_back(eb::Col(0));
                     rk.push_back(eb::Col(0));
                     return PhysicalPlan(std::make_unique<MergeJoin>(
                         std::make_unique<SeqScan>(&small),
                         std::make_unique<SeqScan>(&small), std::move(lk),
                         std::move(rk)));
                   }});
  auto sort_plan = [&] {
    return PhysicalPlan(std::make_unique<Sort>(
        std::make_unique<SeqScan>(&big), KeyOnCol0()));
  };
  cases.push_back({faults::kSortOpen, sort_plan});
  cases.push_back({faults::kSortBuild, sort_plan});
  cases.push_back({faults::kHashAggregateBuild, [&] {
                     std::vector<ExprPtr> groups;
                     groups.push_back(eb::Col(0));
                     std::vector<AggregateDesc> aggs;
                     aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
                     return PhysicalPlan(std::make_unique<HashAggregate>(
                         std::make_unique<SeqScan>(&big), std::move(groups),
                         std::vector<std::string>{"g"}, std::move(aggs)));
                   }});
  cases.push_back({faults::kStreamAggregateNext, [&] {
                     std::vector<ExprPtr> groups;
                     groups.push_back(eb::Col(0));
                     std::vector<AggregateDesc> aggs;
                     aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
                     return PhysicalPlan(std::make_unique<StreamAggregate>(
                         std::make_unique<SeqScan>(&big), std::move(groups),
                         std::vector<std::string>{"g"}, std::move(aggs)));
                   }});
  // Spill-layer sites: the plans spill under the case's tight budget, and
  // every spill site is consulted on the query thread's injector. The write
  // case uses a Grace join, the open and read cases the sort.
  auto grace_join_plan = [&] {
    std::vector<ExprPtr> pk, bk;
    pk.push_back(eb::Col(0));
    bk.push_back(eb::Col(0));
    return PhysicalPlan(std::make_unique<HashJoin>(
        std::make_unique<SeqScan>(&small), std::make_unique<SeqScan>(&big),
        std::move(pk), std::move(bk)));
  };
  cases.push_back({faults::kSpillOpen, sort_plan, /*spilling=*/true});
  cases.push_back({faults::kSpillWrite, grace_join_plan, /*spilling=*/true});
  cases.push_back({faults::kSpillRead, sort_plan, /*spilling=*/true});

  // The case table must cover every canonical site exactly once.
  std::set<std::string> covered;
  for (const FaultCase& c : cases) covered.insert(c.site);
  std::set<std::string> known(FaultInjector::KnownSites().begin(),
                              FaultInjector::KnownSites().end());
  EXPECT_EQ(covered, known);

  for (const FaultCase& c : cases) {
    SCOPED_TRACE(c.site);
    ExpectFaultStops(c.make_plan(), c.site, /*fail_on_hit=*/1, c.spilling);
    // Open-phase sites are hit once per run; Nth-hit faults only make sense
    // for the per-row sites (spill.open is per-run-file, so it qualifies).
    if (c.site.find(".open") == std::string::npos ||
        c.site == faults::kSpillOpen) {
      ExpectFaultStops(c.make_plan(), c.site, /*fail_on_hit=*/3, c.spilling);
    }
  }
}

TEST(GuardrailsTest, InjectedStatusCodeIsPreserved) {
  Table t = Numbers(100);
  PhysicalPlan plan = ScanFilterPlan(&t);
  FaultInjector fi;
  FaultSpec spec;
  spec.site = faults::kSeqScanNext;
  spec.fail_on_hit = 10;
  spec.code = StatusCode::kOutOfRange;
  spec.message = "simulated torn page";
  fi.Arm(std::move(spec));
  ExecContext ctx;
  ctx.set_fault_injector(&fi);
  Status s = exec::Drive(&plan, {.ctx = &ctx}).status;
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.message(), "simulated torn page");
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(GuardrailsTest, ProbabilisticFaultReplaysByteIdentically) {
  Table t = Numbers(4000);
  PhysicalPlan plan = CountAggPlan(&t);
  FaultInjector fi(123);
  FaultSpec spec;
  spec.site = faults::kSeqScanNext;
  spec.fail_probability = 0.001;
  spec.latency_spins = 50;  // deterministic busy-wait, no clock reads
  fi.Arm(std::move(spec));

  MonitorOptions mo;
  mo.fault_injector = &fi;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "safe"}, mo);
  ProgressReport r1 = m.Run(64);
  ProgressReport r2 = m.Run(64);  // monitor resets the injector per run
  EXPECT_EQ(r1.ToTsv(), r2.ToTsv());
  EXPECT_EQ(r1.termination, r2.termination);
  EXPECT_EQ(r1.total_work, r2.total_work);
  EXPECT_EQ(r1.status.ToString(), r2.status.ToString());
  // With 4000 draws at p=0.001 and this seed the fault actually fires; the
  // assertion pins the interesting (aborted) path, not a trivial clean run.
  EXPECT_EQ(r1.termination, TerminationReason::kFault);
}

TEST(GuardrailsTest, FaultInjectorResetReplaysDrawSequence) {
  FaultInjector fi(99);
  FaultSpec spec;
  spec.site = "test.site";
  spec.fail_probability = 0.5;
  fi.Arm(std::move(spec));
  auto draw_pattern = [&] {
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += fi.OnHit("test.site").ok() ? '.' : 'X';
    }
    return pattern;
  };
  std::string first = draw_pattern();
  EXPECT_EQ(fi.hit_count("test.site"), 64u);
  fi.Reset();
  EXPECT_EQ(fi.hit_count("test.site"), 0u);
  EXPECT_EQ(draw_pattern(), first);
  EXPECT_NE(first.find('X'), std::string::npos);  // p=0.5 over 64 draws
}

// ---------------------------------------------------------------------------
// Estimator range invariants
// ---------------------------------------------------------------------------

/// Deliberately misbehaving estimator: cycles through NaN, a negative value,
/// a value above one, and +infinity.
class RogueEstimator : public ProgressEstimator {
 public:
  double Estimate(const ProgressContext&) const override {
    switch (calls_++ % 4) {
      case 0: return std::nan("");
      case 1: return -5.0;
      case 2: return 7.0;
      default: return std::numeric_limits<double>::infinity();
    }
  }
  std::string name() const override { return "rogue"; }

 private:
  mutable int calls_ = 0;
};

TEST(GuardrailsTest, MonitorSanitizesRogueEstimates) {
  Table t = Numbers(500);
  PhysicalPlan plan = ScanFilterPlan(&t);
  std::vector<std::unique_ptr<ProgressEstimator>> estimators;
  estimators.push_back(std::make_unique<RogueEstimator>());
  ProgressMonitor m(&plan, std::move(estimators));
  ProgressReport r = m.Run(100);
  ASSERT_EQ(r.checkpoints.size(), 5u);
  // NaN -> 0, -5 -> 0, 7 -> 1, inf -> 1, NaN -> 0.
  std::vector<double> expected = {0.0, 0.0, 1.0, 1.0, 0.0};
  for (size_t i = 0; i < r.checkpoints.size(); ++i) {
    ASSERT_EQ(r.checkpoints[i].estimates.size(), 1u);
    EXPECT_EQ(r.checkpoints[i].estimates[0], expected[i]) << "checkpoint " << i;
  }
}

TEST(GuardrailsTest, AllEstimatesInRangeOnAbortedRun) {
  Table t = Numbers(2000);
  PhysicalPlan plan = CountAggPlan(&t);
  QueryGuard guard;
  guard.set_max_work(1100);
  MonitorOptions mo;
  mo.guard = &guard;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, AllEstimatorNames(), mo);
  ProgressReport r = m.Run(97);
  EXPECT_EQ(r.termination, TerminationReason::kBudgetExhausted);
  ASSERT_FALSE(r.checkpoints.empty());
  for (const Checkpoint& c : r.checkpoints) {
    for (double e : c.estimates) {
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, 1.0);
      EXPECT_FALSE(std::isnan(e));
    }
  }
}

TEST(GuardrailsTest, EstimatesFiniteOnZeroWorkAndOneRowPlans) {
  // Zero work: an empty table produces no getnext calls, so no checkpoints
  // fire — the report must still be a sane "completed" report.
  Table empty = Numbers(0);
  PhysicalPlan zero_plan = ScanFilterPlan(&empty);
  ProgressMonitor m0 =
      ProgressMonitor::WithEstimators(&zero_plan, AllEstimatorNames());
  ProgressReport r0 = m0.Run(1);
  EXPECT_TRUE(r0.completed());
  EXPECT_EQ(r0.total_work, 0u);
  EXPECT_TRUE(r0.checkpoints.empty());

  // One row: a single unit of work, checkpointed at interval 1. Every
  // estimator must emit a finite value in [0, 1].
  Table one = Numbers(1);
  PhysicalPlan one_plan = ScanFilterPlan(&one);
  ProgressMonitor m1 =
      ProgressMonitor::WithEstimators(&one_plan, AllEstimatorNames());
  ProgressReport r1 = m1.Run(1);
  EXPECT_TRUE(r1.completed());
  EXPECT_EQ(r1.total_work, 1u);
  ASSERT_EQ(r1.checkpoints.size(), 1u);
  for (double e : r1.checkpoints[0].estimates) {
    EXPECT_FALSE(std::isnan(e));
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
  EXPECT_DOUBLE_EQ(r1.checkpoints[0].true_progress, 1.0);
}

// ---------------------------------------------------------------------------
// Work-observer batching (drift fix)
// ---------------------------------------------------------------------------

TEST(GuardrailsTest, ObserverFiresOncePerCrossedInterval) {
  ExecContext ctx;
  std::vector<uint64_t> fired;
  ctx.SetWorkObserver(10, [&](uint64_t work) { fired.push_back(work); });
  ctx.Reset(1);
  ctx.AddSpillWork(0, 35);  // crosses 10, 20, 30 in one burst
  EXPECT_EQ(fired, (std::vector<uint64_t>{10, 20, 30}));
  ctx.AddSpillWork(0, 5);  // reaches exactly 40
  EXPECT_EQ(fired, (std::vector<uint64_t>{10, 20, 30, 40}));
  for (int i = 0; i < 9; ++i) ctx.CountRow(0, false);
  EXPECT_EQ(fired.size(), 4u);
  ctx.CountRow(0, false);  // 50th unit
  EXPECT_EQ(fired.back(), 50u);
  EXPECT_EQ(ctx.rows_produced(0), 10u);
  EXPECT_EQ(ctx.spill_work(0), 40u);
}

TEST(GuardrailsTest, RootRowsAreNotWorkButAreCounted) {
  ExecContext ctx;
  ctx.Reset(2);
  for (int i = 0; i < 7; ++i) ctx.CountRow(0, /*is_root=*/true);
  for (int i = 0; i < 3; ++i) ctx.CountRow(1, /*is_root=*/false);
  EXPECT_EQ(ctx.work(), 3u);
  EXPECT_EQ(ctx.rows_produced(0), 7u);
  EXPECT_EQ(ctx.rows_produced(1), 3u);
}

// ---------------------------------------------------------------------------
// RunWithApproxCheckpoints: rewind contract and guarded learning run
// ---------------------------------------------------------------------------

/// SeqScan that claims it cannot be re-executed (models an external stream).
class OneShotScan : public SeqScan {
 public:
  using SeqScan::SeqScan;
  bool SupportsRewind() const override { return false; }
};

TEST(GuardrailsTest, ApproxCheckpointsRejectsNonRewindablePlan) {
  Table t = Numbers(100);
  PhysicalPlan plan(std::make_unique<Filter>(std::make_unique<OneShotScan>(&t),
                                             eb::Ge(eb::Col(0), eb::Int(0))));
  EXPECT_FALSE(PlanSupportsRewind(plan));
  ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, {"safe"});
  ProgressReport r = m.RunWithApproxCheckpoints(10);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(r.completed());
  EXPECT_TRUE(r.checkpoints.empty());
  EXPECT_EQ(r.total_work, 0u);
}

TEST(GuardrailsTest, ApproxCheckpointsHonorsGuardDuringLearningRun) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  QueryGuard guard;
  guard.set_max_work(300);
  MonitorOptions mo;
  mo.guard = &guard;
  ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, {"safe"}, mo);
  ProgressReport r = m.RunWithApproxCheckpoints(10);
  EXPECT_EQ(r.termination, TerminationReason::kBudgetExhausted);
  EXPECT_TRUE(r.checkpoints.empty());  // the learning run itself was stopped
  EXPECT_EQ(r.total_work, 300u);
}

TEST(GuardrailsTest, ApproxCheckpointsStillWorksOnRewindablePlan) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  EXPECT_TRUE(PlanSupportsRewind(plan));
  ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, {"safe"});
  ProgressReport r = m.RunWithApproxCheckpoints(10);
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(r.total_work, 1000u);
  EXPECT_EQ(r.checkpoints.size(), 10u);
}

// ---------------------------------------------------------------------------
// Status plumbing
// ---------------------------------------------------------------------------

TEST(GuardrailsTest, NewStatusCodesRoundTrip) {
  EXPECT_EQ(Cancelled("c").code(), StatusCode::kCancelled);
  EXPECT_EQ(DeadlineExceeded("d").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ResourceExhausted("r").code(), StatusCode::kResourceExhausted);
  EXPECT_NE(Cancelled("c").ToString().find("Cancelled"), std::string::npos);
  EXPECT_NE(DeadlineExceeded("d").ToString().find("DeadlineExceeded"),
            std::string::npos);
  EXPECT_NE(ResourceExhausted("r").ToString().find("ResourceExhausted"),
            std::string::npos);
}

TEST(GuardrailsTest, TerminationReasonMapping) {
  EXPECT_EQ(TerminationFromStatus(OkStatus()), TerminationReason::kCompleted);
  EXPECT_EQ(TerminationFromStatus(Cancelled("")),
            TerminationReason::kCancelled);
  EXPECT_EQ(TerminationFromStatus(DeadlineExceeded("")),
            TerminationReason::kDeadlineExceeded);
  EXPECT_EQ(TerminationFromStatus(ResourceExhausted("")),
            TerminationReason::kBudgetExhausted);
  EXPECT_EQ(TerminationFromStatus(Internal("boom")), TerminationReason::kFault);
  EXPECT_STREQ(TerminationReasonToString(TerminationReason::kCompleted),
               "completed");
  EXPECT_STREQ(TerminationReasonToString(TerminationReason::kCancelled),
               "cancelled");
  EXPECT_STREQ(TerminationReasonToString(TerminationReason::kDeadlineExceeded),
               "deadline");
  EXPECT_STREQ(TerminationReasonToString(TerminationReason::kBudgetExhausted),
               "budget");
  EXPECT_STREQ(TerminationReasonToString(TerminationReason::kFault), "fault");
}

TEST(GuardrailsTest, FirstErrorWinsOnContext) {
  ExecContext ctx;
  ctx.Reset(1);
  EXPECT_TRUE(ctx.ok());
  ctx.RaiseError(Cancelled("first"));
  ctx.RaiseError(Internal("cascade noise"));
  EXPECT_EQ(ctx.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.status().message(), "first");
  ctx.Reset(1);  // Reset clears the sticky error
  EXPECT_TRUE(ctx.ok());
}

TEST(GuardrailsTest, SummarizeReportNamesTheTermination) {
  Table t = Numbers(300);
  PhysicalPlan plan = ScanFilterPlan(&t);
  ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, {"safe"});
  std::string done = SummarizeReport(m.Run(100));
  EXPECT_NE(done.find("completed"), std::string::npos) << done;
  EXPECT_NE(done.find("work=300"), std::string::npos) << done;

  // The environment is fixed at construction, so the budgeted run gets its
  // own monitor.
  QueryGuard guard;
  guard.set_max_work(100);
  MonitorOptions mo;
  mo.guard = &guard;
  ProgressMonitor budgeted =
      ProgressMonitor::WithEstimators(&plan, {"safe"}, mo);
  std::string stopped = SummarizeReport(budgeted.Run(100));
  EXPECT_NE(stopped.find("budget"), std::string::npos) << stopped;
  EXPECT_NE(stopped.find("ResourceExhausted"), std::string::npos) << stopped;
}

TEST(GuardrailsTest, DriveCollectRowsReturnsPrefixFreeErrors) {
  Table t = Numbers(100);
  PhysicalPlan plan = ScanFilterPlan(&t);
  FaultInjector fi;
  FaultSpec spec;
  spec.site = faults::kSeqScanNext;
  spec.fail_on_hit = 50;
  fi.Arm(std::move(spec));
  ExecContext ctx;
  ctx.set_fault_injector(&fi);
  // CollectRows surfaces the prefix; exec::Drive surfaces the Status.
  std::vector<Row> prefix = CollectRows(&plan, &ctx);
  EXPECT_LT(prefix.size(), 100u);
  EXPECT_FALSE(ctx.ok());
  fi.Reset();
  exec::DriveResult res =
      exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
  EXPECT_FALSE(res.ok());
  ctx.set_fault_injector(nullptr);
  exec::DriveResult clean =
      exec::Drive(&plan, {.ctx = &ctx, .collect_rows = true});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.rows.size(), 100u);
}

}  // namespace
}  // namespace qprog
