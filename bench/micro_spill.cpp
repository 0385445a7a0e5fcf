// Quantifies the cost of graceful degradation: the same blocking plans
// executed fully in memory and under progressively tighter buffered-row
// budgets that force the spill paths — external run-merge sort, Grace hash
// join, and partition-spilled aggregation — plus the raw SpillFile record
// write/read throughput that bounds them all.
//
// Each family's scenarios run interleaved: every rep runs the in-memory
// plan and then each spilling budget once, after one untimed warm-up rep,
// so host drift lands on a rep's scenarios alike. Results (ns per unit of
// work as min/q1/median/q3/max over kReps reps, spill run/byte counts, and
// the slowdown vs. the in-memory run of the same rep, as quartiles) are
// printed and written, under a provenance header, to BENCH_spill.json in
// the working directory:
//
//   ./build/bench/micro_spill

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
#include "storage/spill_file.h"
#include "types/string_arena.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"

namespace qprog {
namespace {

constexpr int64_t kRows = 100000;
constexpr int kReps = 10;

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
  bench::Spread slowdown;     // wall time / the same rep's in-memory wall time
  uint64_t work = 0;          // revised total(Q)
  uint64_t spill_runs = 0;
  uint64_t spill_rows = 0;
  uint64_t spill_bytes = 0;
};

/// One scenario of a family: a soft budget (0 = unconstrained, in memory).
struct Scenario {
  const char* name;
  uint64_t soft_budget;
};

/// Runs `make_plan` once under `soft_budget`; returns the wall time in ns
/// and records the counters in `r`.
double RunOnce(const std::function<PhysicalPlan()>& make_plan,
               uint64_t soft_budget, Result* r) {
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
  r->work = ctx.work();
  r->spill_runs = spill.stats().runs_created;
  r->spill_rows = spill.stats().rows_written;
  r->spill_bytes = spill.stats().bytes_written;
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

/// kReps interleaved reps of `scenarios` (the first must be the in-memory
/// baseline), after one untimed warm-up rep: without it the first rep pays
/// the allocator's first touch of the plan's buffers.
std::vector<Result> MeasureFamily(
    const std::string& family, const std::function<PhysicalPlan()>& make_plan,
    const std::vector<Scenario>& scenarios) {
  std::vector<Result> results(scenarios.size());
  std::vector<std::vector<double>> ns_per_work(scenarios.size());
  std::vector<std::vector<double>> slowdown(scenarios.size());
  for (int rep = -1; rep < kReps; ++rep) {  // rep -1 is the warm-up
    double baseline_ns = 0;
    for (size_t i = 0; i < scenarios.size(); ++i) {
      double ns = RunOnce(make_plan, scenarios[i].soft_budget, &results[i]);
      if (i == 0) baseline_ns = ns;
      if (rep < 0) continue;
      ns_per_work[i].push_back(ns / static_cast<double>(results[i].work));
      slowdown[i].push_back(ns / baseline_ns);
    }
  }
  for (size_t i = 0; i < scenarios.size(); ++i) {
    results[i].name = family + "/" + scenarios[i].name;
    results[i].ns_per_work = bench::SpreadOf(std::move(ns_per_work[i]));
    results[i].slowdown = bench::SpreadOf(std::move(slowdown[i]));
  }
  return results;
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
  std::printf("rows=%lld, %d reps per scenario\n\n",
              static_cast<long long>(kRows), kReps);

  Table sort_t = Numbers(kRows);
  Table probe_t = Keyed(kRows / 2, 5000);
  Table build_t = Keyed(kRows / 2, 5000);
  Table agg_t = Keyed(kRows, kRows / 8);  // 12.5k groups

  std::vector<Result> results;
  auto run_family = [&](const char* family,
                        const std::function<PhysicalPlan()>& make_plan,
                        uint64_t mild, uint64_t harsh) {
    std::vector<Result> family_results = MeasureFamily(
        family, make_plan,
        {{"in_memory", 0}, {"spill_mild", mild}, {"spill_harsh", harsh}});
    results.insert(results.end(), family_results.begin(),
                   family_results.end());
  };

  run_family("sort", [&] { return SortPlan(&sort_t); }, kRows / 4, kRows / 32);
  run_family("hashjoin", [&] { return JoinPlan(&probe_t, &build_t); },
             kRows / 8, kRows / 64);
  run_family("hashagg", [&] { return AggPlan(&agg_t); }, kRows / 16,
             kRows / 128);

  std::printf("%-22s %-27s %-10s %-6s %-8s %-10s %s\n", "scenario",
              "ns/work q1/med/q3", "work", "runs", "rows", "bytes",
              "slowdown q1/med/q3");
  for (const Result& r : results) {
    std::printf("%-22s %8.1f/%8.1f/%8.1f %-10llu %-6llu %-8llu %-10llu "
                "%.2f/%.2f/%.2fx\n",
                r.name.c_str(), r.ns_per_work.q1, r.ns_per_work.median,
                r.ns_per_work.q3, static_cast<unsigned long long>(r.work),
                static_cast<unsigned long long>(r.spill_runs),
                static_cast<unsigned long long>(r.spill_rows),
                static_cast<unsigned long long>(r.spill_bytes), r.slowdown.q1,
                r.slowdown.median, r.slowdown.q3);
  }

  auto [write_ns, read_ns] = MeasureFileThroughput(kRows);
  std::printf("\nspill file (median): write=%.1f ns/row, read=%.1f ns/row\n",
              write_ns.median, read_ns.median);

  std::string json = "{\"bench\":\"micro_spill\"," +
                     bench::ProvenanceJson(kReps) + ",\"rows\":" +
                     StringPrintf("%lld", static_cast<long long>(kRows)) +
                     ",\"scenarios\":{";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    if (i > 0) json += ',';
    json += StringPrintf("\"%s\":{", r.name.c_str()) +
            bench::SpreadJson("ns_per_work", r.ns_per_work) + "," +
            StringPrintf(
                "\"slowdown_q1\":%.3f,\"slowdown_median\":%.3f,"
                "\"slowdown_q3\":%.3f",
                r.slowdown.q1, r.slowdown.median, r.slowdown.q3) +
            StringPrintf(
                ",\"work\":%llu,\"spill_runs\":%llu,\"spill_rows\":%llu,"
                "\"spill_bytes\":%llu}",
                static_cast<unsigned long long>(r.work),
                static_cast<unsigned long long>(r.spill_runs),
                static_cast<unsigned long long>(r.spill_rows),
                static_cast<unsigned long long>(r.spill_bytes));
  }
  json += "},\"spill_file\":{" +
          bench::SpreadJson("write_ns_per_row", write_ns) + "," +
          bench::SpreadJson("read_ns_per_row", read_ns) + "}}\n";
  std::FILE* out = std::fopen("BENCH_spill.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote BENCH_spill.json\n");
  }
  return 0;
}
