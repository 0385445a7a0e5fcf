// Quantifies the partitioned-pipeline scale-out path (DESIGN.md §16): a
// GROUP BY over a wide keyed table, run once as the serial plan (full scan
// -> HashAggregate) and then as the partitioned pipeline (range-partitioned
// scans -> PartialAggregate -> Exchange hashed on the group key ->
// FinalAggregate) swept over worker-pool sizes {1, 2, 4, 8}.
//
// A buffer budget far below the group count plus micro_parallel's spill
// device model (a fixed cost per spill byte) makes the memory pressure
// wall-clock-visible: the serial HashAggregate must Grace-spill most of the
// wide input rows and pay device time for every byte, while the partitioned
// pipeline's producers pre-aggregate each partition down to one narrow row
// per group *before* anything is charged against the budget — the
// exchange's bucket runs are a small fraction of the serial plan's spilled
// bytes. That structural win holds at any pool size and on any host; on
// multi-core hosts the producers' hash work additionally overlaps across
// the pool (reported as the 1 -> 4 thread scaling line, ~1.0x on a
// single-core machine).
//
// The headline claim this harness checks: the 4-thread partitioned run is
// >= 2x faster than the serial plan, on median wall times. Results
// (min/median/max wall ms over the reps) are printed and written, under a
// provenance header, to BENCH_exchange.json in the working directory:
//
//   ./build/bench/micro_exchange [--quick]
//
// `--quick` runs one rep and exits non-zero when the claim fails — CI's
// tier-1 tripwire.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/strings.h"
#include "exec/aggregate.h"
#include "exec/exchange.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"

namespace qprog {
namespace {

constexpr int64_t kRows = 60000;
constexpr int64_t kGroups = 4096;
// Far below kGroups: the serial HashAggregate absorbs the first kBudget
// distinct keys in memory and Grace-spills the raw rows of the rest.
constexpr uint64_t kBudget = 512;
// Same flash-era byte cost as micro_parallel: big enough that device time
// dominates the CPU work of hashing and folding.
constexpr uint64_t kNsPerByte = 160;
const int kThreads[] = {1, 2, 4, 8};
constexpr size_t kConsumers = 4;

/// (i mod kGroups, i, pad): integer key and value keep partitioned SUMs
/// exact; the payload column fattens every raw-spilled row so the device
/// model has real bytes to charge.
Table Keyed(int64_t n) {
  Table table("t", Schema({Field("k", TypeId::kInt64),
                           Field("v", TypeId::kInt64),
                           Field("pad", TypeId::kString)}));
  for (int64_t i = 0; i < n; ++i) {
    std::string pad = StringPrintf("lineitem|status=%d|shipmode=TRUCK",
                                   static_cast<int>(i % 7));
    table.AppendRow(
        {Value::Int64(i % kGroups), Value::Int64(i), Value::String(pad)});
  }
  return table;
}

std::vector<AggregateDesc> CountSumAggs() {
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, eb::Col(1), "sv");
  return aggs;
}

/// Serial reference: one HashAggregate over a full scan, all on the driver
/// thread.
PhysicalPlan SerialPlan(const Table* t) {
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0));
  return PhysicalPlan(std::make_unique<HashAggregate>(
      std::make_unique<SeqScan>(t), std::move(groups),
      std::vector<std::string>{"k"}, CountSumAggs()));
}

/// Partitioned pipeline: `partitions` range scans -> partial aggregates ->
/// Exchange(hash on group key) -> FinalAggregate.
PhysicalPlan PartitionedPlan(const Table* t, size_t partitions) {
  const uint64_t n = t->num_rows();
  std::vector<OperatorPtr> producers;
  for (size_t p = 0; p < partitions; ++p) {
    auto scan = std::make_unique<SeqScan>(t, nullptr, n * p / partitions,
                                          n * (p + 1) / partitions);
    std::vector<ExprPtr> groups;
    groups.push_back(eb::Col(0));
    producers.push_back(std::make_unique<PartialAggregate>(
        std::move(scan), std::move(groups), std::vector<std::string>{"k"},
        CountSumAggs()));
  }
  auto exchange = std::make_unique<Exchange>(
      std::move(producers), std::vector<size_t>{0}, kConsumers);
  return PhysicalPlan(std::make_unique<FinalAggregate>(
      std::move(exchange), 1, std::vector<std::string>{"k"}, CountSumAggs()));
}

struct Result {
  std::string name;
  int threads = 0;  // 0 = serial plan, no pool
  bench::Spread wall_ms;
  double speedup = 1.0;  // median vs. the serial plan's median
  uint64_t root_rows = 0;
  uint64_t spill_bytes = 0;
  uint64_t spill_runs = 0;
};

/// `reps` executions under the tight budget with the device model charging
/// every spill byte. `threads` 0 runs without a pool.
Result Measure(const std::string& name,
               const std::function<PhysicalPlan()>& make_plan, int threads,
               int reps) {
  Result r;
  r.name = name;
  r.threads = threads;
  std::vector<double> wall_ms;
  for (int rep = 0; rep < reps; ++rep) {
    PhysicalPlan plan = make_plan();
    SpillManager spill;
    spill.set_device_model({kNsPerByte, kNsPerByte});
    QueryGuard guard;
    guard.set_max_buffered_rows(kBudget);
    std::unique_ptr<WorkerPool> pool;
    if (threads > 0) pool = std::make_unique<WorkerPool>(threads);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    if (pool != nullptr) ctx.set_worker_pool(pool.get());
    auto start = std::chrono::steady_clock::now();
    exec::DriveResult dr = exec::Drive(&plan, {.ctx = &ctx});
    auto end = std::chrono::steady_clock::now();
    QPROG_CHECK_MSG(ctx.ok(), "%s", ctx.status().ToString().c_str());
    QPROG_CHECK(dr.root_rows == static_cast<uint64_t>(kGroups));
    QPROG_CHECK(spill.live_runs() == 0);
    QPROG_CHECK(spill.stats().runs_created > 0);  // budget must bind
    wall_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    r.root_rows = dr.root_rows;
    r.spill_bytes = spill.stats().bytes_written;
    r.spill_runs = spill.stats().runs_created;
  }
  r.wall_ms = bench::SpreadOf(std::move(wall_ms));
  return r;
}

}  // namespace
}  // namespace qprog

int main(int argc, char** argv) {
  using namespace qprog;  // NOLINT(build/namespaces)
  bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const int reps = quick ? 1 : 3;

  std::printf("=== micro_exchange: partitioned pipeline scale-out ===\n");
  std::printf(
      "rows=%lld, groups=%lld, budget=%llu rows, device=%llu ns/byte, "
      "%d runs each\n\n",
      static_cast<long long>(kRows), static_cast<long long>(kGroups),
      static_cast<unsigned long long>(kBudget),
      static_cast<unsigned long long>(kNsPerByte), reps);

  Table t = Keyed(kRows);

  std::vector<Result> results;
  results.push_back(
      Measure("serial", [&] { return SerialPlan(&t); }, 0, reps));
  double serial_ms = results[0].wall_ms.median;
  double t1_ms = 0;
  double t4_ms = 0;
  double speedup_t4 = 0;
  for (int threads : kThreads) {
    Result r = Measure(StringPrintf("partitioned/t%d", threads),
                       [&] { return PartitionedPlan(&t, 4); }, threads, reps);
    r.speedup = serial_ms / r.wall_ms.median;
    if (threads == 1) t1_ms = r.wall_ms.median;
    if (threads == 4) {
      t4_ms = r.wall_ms.median;
      speedup_t4 = r.speedup;
    }
    results.push_back(r);
  }

  std::printf("%-16s %-10s %-10s %-10s %-12s %-8s %-14s %-6s\n", "scenario",
              "min_ms", "median_ms", "max_ms", "vs_serial", "rows",
              "spill_bytes", "runs");
  for (const Result& r : results) {
    std::printf("%-16s %-10.1f %-10.1f %-10.1f %-12.2f %-8llu %-14llu %-6llu\n",
                r.name.c_str(), r.wall_ms.min, r.wall_ms.median,
                r.wall_ms.max, r.speedup,
                static_cast<unsigned long long>(r.root_rows),
                static_cast<unsigned long long>(r.spill_bytes),
                static_cast<unsigned long long>(r.spill_runs));
  }
  std::printf(
      "\npartitioned speedup at 4 threads vs serial:   %.2fx\n"
      "pool scaling, 1 -> 4 threads (same pipeline):  %.2fx\n",
      speedup_t4, t1_ms / t4_ms);

  std::string json =
      "{\"bench\":\"micro_exchange\"," + bench::ProvenanceJson(reps) + "," +
      StringPrintf("\"rows\":%lld,\"groups\":%lld,\"budget_rows\":%llu,"
                   "\"device_ns_per_byte\":%llu,\"scenarios\":{",
                   static_cast<long long>(kRows),
                   static_cast<long long>(kGroups),
                   static_cast<unsigned long long>(kBudget),
                   static_cast<unsigned long long>(kNsPerByte));
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    if (i > 0) json += ',';
    json += StringPrintf("\"%s\":{", r.name.c_str()) +
            bench::SpreadJson("wall_ms", r.wall_ms) +
            StringPrintf(",\"speedup_vs_serial\":%.3f,\"spill_bytes\":%llu,"
                         "\"spill_runs\":%llu}",
                         r.speedup,
                         static_cast<unsigned long long>(r.spill_bytes),
                         static_cast<unsigned long long>(r.spill_runs));
  }
  json += StringPrintf(
      "},\"speedup_t4_vs_serial\":%.3f,\"scaling_t1_to_t4\":%.3f}\n",
      speedup_t4, t1_ms / t4_ms);
  std::FILE* out = std::fopen("BENCH_exchange.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote BENCH_exchange.json\n");
  }

  if (quick) {
    bool ok = true;
    if (speedup_t4 < 2.0) {
      std::printf("FAIL: partitioned 4-thread speedup is %.2fx (< 2x)\n",
                  speedup_t4);
      ok = false;
    }
    std::printf("quick check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}
