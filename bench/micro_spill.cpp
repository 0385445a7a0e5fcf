// Quantifies the cost of graceful degradation: the same blocking plans
// executed fully in memory and under progressively tighter buffered-row
// budgets that force the spill paths — external run-merge sort, Grace hash
// join, and partition-spilled aggregation — plus the raw SpillFile record
// write/read throughput that bounds them all.
//
// Results (min/median/max ns per unit of work over kReps runs after one
// untimed warm-up run, spill
// run/byte counts, median slowdown vs. the in-memory path) are printed and
// written, under a provenance header, to BENCH_spill.json in the working
// directory:
//
//   ./build/bench/micro_spill
//
// A final scenario times the HashAggregate's spilled-partition
// replay serially and on a 4-thread worker pool under the SpillManager's
// device model (DESIGN.md §9): replay reads overlap their simulated device
// time across the pool, so the speedup is measurable even on one core, and
// the parallel output must be row-for-row identical to the serial replay.

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/strings.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "storage/spill_file.h"
#include "types/string_arena.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"

namespace qprog {
namespace {

constexpr int64_t kRows = 100000;
constexpr int kReps = 3;

Table Numbers(int64_t n) {
  Table table("t", Schema({Field("v", TypeId::kInt64)}));
  // Anti-sorted so the sort and merge do real comparisons.
  for (int64_t i = n - 1; i >= 0; --i) table.AppendRow({Value::Int64(i)});
  return table;
}

Table Keyed(int64_t n, int64_t buckets) {
  Table table("k",
              Schema({Field("k", TypeId::kInt64), Field("v", TypeId::kInt64)}));
  for (int64_t i = 0; i < n; ++i) {
    table.AppendRow({Value::Int64(i % buckets), Value::Int64(i)});
  }
  return table;
}

PhysicalPlan SortPlan(const Table* t) {
  std::vector<SortKey> keys;
  keys.emplace_back(eb::Col(0));
  return PhysicalPlan(
      std::make_unique<Sort>(std::make_unique<SeqScan>(t), std::move(keys)));
}

PhysicalPlan JoinPlan(const Table* probe, const Table* build) {
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(0));
  bk.push_back(eb::Col(0));
  return PhysicalPlan(std::make_unique<HashJoin>(
      std::make_unique<SeqScan>(probe), std::make_unique<SeqScan>(build),
      std::move(pk), std::move(bk)));
}

PhysicalPlan AggPlan(const Table* t) {
  std::vector<ExprPtr> groups;
  groups.push_back(eb::Col(0));
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kSum, eb::Col(1), "total");
  return PhysicalPlan(std::make_unique<HashAggregate>(
      std::make_unique<SeqScan>(t), std::move(groups),
      std::vector<std::string>{"g"}, std::move(aggs)));
}

struct Result {
  std::string name;
  bench::Spread ns_per_work;  // wall time / final work counter
  double slowdown = 1.0;      // median wall time vs. the in-memory baseline
  uint64_t work = 0;          // revised total(Q)
  uint64_t spill_runs = 0;
  uint64_t spill_rows = 0;
  uint64_t spill_bytes = 0;
};

/// kReps executions under `soft_budget` (0 = unconstrained), after one
/// untimed warm-up execution: without it the first rep pays the allocator's
/// first touch of the plan's buffers and reads up to 2x slower than the
/// others.
Result Measure(const std::string& name,
               const std::function<PhysicalPlan()>& make_plan,
               uint64_t soft_budget) {
  Result r;
  r.name = name;
  std::vector<double> ns_per_work;
  for (int rep = -1; rep < kReps; ++rep) {  // rep -1 is the warm-up
    PhysicalPlan plan = make_plan();
    SpillManager spill;
    QueryGuard guard;
    ExecContext ctx;
    if (soft_budget > 0) {
      guard.set_max_buffered_rows(soft_budget);
      ctx.set_guard(&guard);
      ctx.set_spill_manager(&spill);
    }
    auto start = std::chrono::steady_clock::now();
    exec::Drive(&plan, {.ctx = &ctx});
    auto end = std::chrono::steady_clock::now();
    QPROG_CHECK_MSG(ctx.ok(), "%s", ctx.status().ToString().c_str());
    QPROG_CHECK(spill.live_runs() == 0);
    if (rep < 0) continue;
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    r.work = ctx.work();
    ns_per_work.push_back(ns / static_cast<double>(r.work));
    r.spill_runs = spill.stats().runs_created;
    r.spill_rows = spill.stats().rows_written;
    r.spill_bytes = spill.stats().bytes_written;
  }
  r.ns_per_work = bench::SpreadOf(std::move(ns_per_work));
  return r;
}

// -- parallel aggregate replay ----------------------------------------------

// Device cost per spill byte for the replay scenario; same flash-era figure
// as micro_parallel, high enough that replay I/O dominates the hash work.
constexpr uint64_t kReplayNsPerByte = 160;
constexpr int64_t kReplayRows = 20000;
constexpr int64_t kReplayGroups = 5000;

/// Grouped rows with a repetitive string payload so each spilled row carries
/// real bytes through the device model.
Table AggPayload(int64_t n, int64_t buckets) {
  Table table("p", Schema({Field("k", TypeId::kInt64),
                           Field("v", TypeId::kInt64),
                           Field("pad", TypeId::kString)}));
  for (int64_t i = n - 1; i >= 0; --i) {
    std::string pad = StringPrintf(
        "orderstatus=OK|priority=%d|comment="
        "final deps unwound along the regular instructions",
        static_cast<int>(i % 5));
    table.AppendRow(
        {Value::Int64(i % buckets), Value::Int64(i), Value::String(pad)});
  }
  return table;
}

/// kReps aggregate runs (wall ms) under a tight budget with the device
/// model charging every spill byte; `threads` == 0 runs the serial replay.
/// Output rows from the last rep land in `rows_out` for the identity check;
/// they hold only integers, so they outlive the rep's spill manager.
bench::Spread MeasureAggReplay(const Table* t, uint64_t soft_budget,
                               int threads, uint64_t* spill_runs,
                               std::vector<Row>* rows_out) {
  std::vector<double> wall_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    PhysicalPlan plan = AggPlan(t);
    SpillManager spill;
    spill.set_device_model({kReplayNsPerByte, kReplayNsPerByte});
    QueryGuard guard;
    guard.set_max_buffered_rows(soft_budget);
    std::unique_ptr<WorkerPool> pool;
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    if (threads > 0) {
      pool = std::make_unique<WorkerPool>(threads);
      ctx.set_worker_pool(pool.get());
    }
    rows_out->clear();
    auto start = std::chrono::steady_clock::now();
    exec::Drive(&plan,
                {.ctx = &ctx,
                 .sink = [rows_out](const Row& row) { rows_out->push_back(row); }});
    auto end = std::chrono::steady_clock::now();
    QPROG_CHECK_MSG(ctx.ok(), "%s", ctx.status().ToString().c_str());
    QPROG_CHECK(spill.live_runs() == 0);
    QPROG_CHECK(spill.stats().runs_created > 0);  // must exercise the replay
    wall_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    *spill_runs = spill.stats().runs_created;
  }
  return bench::SpreadOf(std::move(wall_ms));
}

/// Raw SpillFile throughput: rows serialized+written then re-read, ns/row.
std::pair<double, double> MeasureFileThroughputOnce(int64_t rows) {
  auto file = SpillFile::Create("");
  QPROG_CHECK(file.ok());
  Row row = {Value::Int64(123456789), Value::Int64(987654321)};
  std::string bytes;
  auto w0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < rows; ++i) {
    bytes.clear();
    AppendRowBytes(row, &bytes);
    QPROG_CHECK(file.value()->AppendRecord(bytes.data(), bytes.size()).ok());
  }
  auto w1 = std::chrono::steady_clock::now();
  QPROG_CHECK(file.value()->SeekToStart().ok());
  std::string payload;
  StringArena strings;
  int64_t read = 0;
  auto r0 = std::chrono::steady_clock::now();
  while (true) {
    StatusOr<bool> more = file.value()->ReadRecord(&payload);
    QPROG_CHECK(more.ok());
    if (!more.value()) break;
    Row back;
    QPROG_CHECK(ParseRowBytes(payload, &strings, &back).ok());
    ++read;
  }
  auto r1 = std::chrono::steady_clock::now();
  QPROG_CHECK(read == rows);
  auto ns = [](auto a, auto b) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  return {ns(w0, w1) / static_cast<double>(rows),
          ns(r0, r1) / static_cast<double>(rows)};
}

/// kReps MeasureFileThroughputOnce runs: write and read ns/row spreads.
std::pair<bench::Spread, bench::Spread> MeasureFileThroughput(int64_t rows) {
  std::vector<double> write_ns, read_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    auto [w, r] = MeasureFileThroughputOnce(rows);
    write_ns.push_back(w);
    read_ns.push_back(r);
  }
  return {bench::SpreadOf(std::move(write_ns)),
          bench::SpreadOf(std::move(read_ns))};
}

}  // namespace
}  // namespace qprog

int main() {
  using namespace qprog;  // NOLINT(build/namespaces)
  std::printf("=== micro_spill: cost of memory-adaptive execution ===\n");
  std::printf("rows=%lld, %d runs per scenario\n\n",
              static_cast<long long>(kRows), kReps);

  Table sort_t = Numbers(kRows);
  Table probe_t = Keyed(kRows / 2, 5000);
  Table build_t = Keyed(kRows / 2, 5000);
  Table agg_t = Keyed(kRows, kRows / 8);  // 12.5k groups

  std::vector<Result> results;
  auto run_family = [&](const char* family,
                        const std::function<PhysicalPlan()>& make_plan,
                        uint64_t mild, uint64_t harsh) {
    Result mem = Measure(std::string(family) + "/in_memory", make_plan, 0);
    Result spill_mild =
        Measure(std::string(family) + "/spill_mild", make_plan, mild);
    Result spill_harsh =
        Measure(std::string(family) + "/spill_harsh", make_plan, harsh);
    auto wall = [](const Result& r) {
      return r.ns_per_work.median * static_cast<double>(r.work);
    };
    spill_mild.slowdown = wall(spill_mild) / wall(mem);
    spill_harsh.slowdown = wall(spill_harsh) / wall(mem);
    results.push_back(mem);
    results.push_back(spill_mild);
    results.push_back(spill_harsh);
  };

  run_family("sort", [&] { return SortPlan(&sort_t); }, kRows / 4, kRows / 32);
  run_family("hashjoin", [&] { return JoinPlan(&probe_t, &build_t); },
             kRows / 8, kRows / 64);
  run_family("hashagg", [&] { return AggPlan(&agg_t); }, kRows / 16,
             kRows / 128);

  std::printf("%-22s %-21s %-10s %-8s %-8s %-12s %-10s\n", "scenario",
              "ns/work min/med/max", "work", "runs", "rows", "bytes",
              "slowdown");
  for (const Result& r : results) {
    std::printf("%-22s %6.1f/%6.1f/%6.1f %-10llu %-8llu %-8llu %-12llu %.2fx\n",
                r.name.c_str(), r.ns_per_work.min, r.ns_per_work.median,
                r.ns_per_work.max,
                static_cast<unsigned long long>(r.work),
                static_cast<unsigned long long>(r.spill_runs),
                static_cast<unsigned long long>(r.spill_rows),
                static_cast<unsigned long long>(r.spill_bytes), r.slowdown);
  }

  auto [write_ns, read_ns] = MeasureFileThroughput(kRows);
  std::printf("\nspill file (median): write=%.1f ns/row, read=%.1f ns/row\n",
              write_ns.median, read_ns.median);

  // Parallel spilled-partition replay: serial vs. a 4-thread pool on the
  // same device-modelled aggregate, outputs required identical.
  Table replay_t = AggPayload(kReplayRows, kReplayGroups);
  std::vector<Row> serial_rows, parallel_rows;
  uint64_t serial_runs = 0, parallel_runs = 0;
  bench::Spread serial_ms = MeasureAggReplay(&replay_t, kReplayGroups / 8, 0,
                                             &serial_runs, &serial_rows);
  bench::Spread parallel_ms = MeasureAggReplay(
      &replay_t, kReplayGroups / 8, 4, &parallel_runs, &parallel_rows);
  QPROG_CHECK(serial_rows.size() == parallel_rows.size());
  for (size_t i = 0; i < serial_rows.size(); ++i) {
    QPROG_CHECK_MSG(
        RowToString(serial_rows[i]) == RowToString(parallel_rows[i]),
        "parallel replay diverged from serial at row %zu", i);
  }
  double replay_speedup = serial_ms.median / parallel_ms.median;
  std::printf(
      "\nagg replay (device=%llu ns/byte, %lld rows, %lld groups, median): "
      "serial=%.1f ms, t4=%.1f ms, speedup=%.2fx, output identical "
      "(%zu rows)\n",
      static_cast<unsigned long long>(kReplayNsPerByte),
      static_cast<long long>(kReplayRows),
      static_cast<long long>(kReplayGroups), serial_ms.median,
      parallel_ms.median, replay_speedup, serial_rows.size());

  std::string json = "{\"bench\":\"micro_spill\"," +
                     bench::ProvenanceJson(kReps) + ",\"rows\":" +
                     StringPrintf("%lld", static_cast<long long>(kRows)) +
                     ",\"scenarios\":{";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    if (i > 0) json += ',';
    json += StringPrintf("\"%s\":{", r.name.c_str()) +
            bench::SpreadJson("ns_per_work", r.ns_per_work) +
            StringPrintf(
                ",\"work\":%llu,\"spill_runs\":%llu,\"spill_rows\":%llu,"
                "\"spill_bytes\":%llu,\"slowdown\":%.3f}",
                static_cast<unsigned long long>(r.work),
                static_cast<unsigned long long>(r.spill_runs),
                static_cast<unsigned long long>(r.spill_rows),
                static_cast<unsigned long long>(r.spill_bytes), r.slowdown);
  }
  json += "},\"spill_file\":{" +
          bench::SpreadJson("write_ns_per_row", write_ns) + "," +
          bench::SpreadJson("read_ns_per_row", read_ns) + "},";
  json += StringPrintf("\"agg_replay\":{\"device_ns_per_byte\":%llu,"
                       "\"rows\":%lld,\"groups\":%lld,",
                       static_cast<unsigned long long>(kReplayNsPerByte),
                       static_cast<long long>(kReplayRows),
                       static_cast<long long>(kReplayGroups)) +
          bench::SpreadJson("serial_ms", serial_ms) + "," +
          bench::SpreadJson("t4_ms", parallel_ms) +
          StringPrintf(",\"speedup_vs_serial\":%.3f,\"spill_runs\":%llu,"
                       "\"output_identical\":true}}\n",
                       replay_speedup,
                       static_cast<unsigned long long>(parallel_runs));
  std::FILE* out = std::fopen("BENCH_spill.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote BENCH_spill.json\n");
  }
  return 0;
}
