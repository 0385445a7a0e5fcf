// Quantifies intra-query parallelism (DESIGN.md §10): the spill-heavy
// external sort swept over worker-pool sizes {1, 2, 4, 8}. Sort run
// formation is the one phase the pool runs. The SpillManager's device model
// charges a fixed cost per spill byte on the thread doing the I/O, so run
// formation overlaps its device time across the pool exactly like
// bandwidth-bound disk I/O — which is what makes parallel speedup
// measurable even on a single-core host. The sort's one-level merge runs on
// the query thread, so its device time is serial; e2ebench, not this model,
// decides whether a path earns its pool.
//
// Results (min/q1/median/q3/max wall ms over kReps runs, median speedup vs. the
// 1-thread pool, spill bytes and runs) are printed and written, under a
// provenance header, to BENCH_parallel.json in the working directory:
//
//   ./build/bench/micro_parallel

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/strings.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"

namespace qprog {
namespace {

constexpr int64_t kRows = 40000;
constexpr int kReps = 3;
// ~row-serialization-sized payloads at a plausible flash-era byte cost; big
// enough that device time dominates the CPU work of sorting/hashing.
constexpr uint64_t kNsPerByte = 160;
const int kThreads[] = {1, 2, 4, 8};

/// Anti-sorted keys plus a TPC-H-ish string payload: the sort and merge do
/// real comparisons, and every spilled row carries ~100 bytes to the device.
Table Payload(int64_t n, int64_t buckets) {
  Table table("t", Schema({Field("k", TypeId::kInt64),
                           Field("pad", TypeId::kString)}));
  for (int64_t i = n - 1; i >= 0; --i) {
    std::string pad = StringPrintf(
        "orderstatus=OK|priority=%d|comment="
        "final deps unwound along the regular instructions",
        static_cast<int>(i % 5));
    table.AppendRow({Value::Int64(i % buckets), Value::String(pad)});
  }
  return table;
}

PhysicalPlan SortPlan(const Table* t) {
  std::vector<SortKey> keys;
  keys.emplace_back(eb::Col(0));
  return PhysicalPlan(
      std::make_unique<Sort>(std::make_unique<SeqScan>(t), std::move(keys)));
}

struct Result {
  std::string name;
  bench::Spread wall_ms;
  double speedup = 1.0;        // median vs. threads=1
  uint64_t spill_bytes = 0;    // serialized row bytes
  uint64_t spill_runs = 0;
};

/// kReps executions of `make_plan` under a tight budget with a
/// `threads`-wide pool and the device model charging every spill byte.
Result Measure(const std::string& name,
               const std::function<PhysicalPlan()>& make_plan,
               uint64_t soft_budget, int threads) {
  Result r;
  r.name = name;
  std::vector<double> wall_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    PhysicalPlan plan = make_plan();
    SpillManager spill;
    spill.set_device_model({kNsPerByte, kNsPerByte});
    QueryGuard guard;
    guard.set_max_buffered_rows(soft_budget);
    WorkerPool pool(threads);
    ExecContext ctx;
    ctx.set_guard(&guard);
    ctx.set_spill_manager(&spill);
    ctx.set_worker_pool(&pool);
    auto start = std::chrono::steady_clock::now();
    exec::Drive(&plan, {.ctx = &ctx});
    auto end = std::chrono::steady_clock::now();
    QPROG_CHECK_MSG(ctx.ok(), "%s", ctx.status().ToString().c_str());
    QPROG_CHECK(spill.live_runs() == 0);
    QPROG_CHECK(spill.stats().runs_created > 0);  // must exercise the pool
    wall_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    r.spill_bytes = spill.stats().bytes_written;
    r.spill_runs = spill.stats().runs_created;
  }
  r.wall_ms = bench::SpreadOf(std::move(wall_ms));
  return r;
}

}  // namespace
}  // namespace qprog

int main() {
  using namespace qprog;  // NOLINT(build/namespaces)
  std::printf("=== micro_parallel: worker-pool speedup ===\n");
  std::printf("rows=%lld, device=%llu ns/byte each way, %d runs each\n\n",
              static_cast<long long>(kRows),
              static_cast<unsigned long long>(kNsPerByte), kReps);

  Table sort_t = Payload(kRows, 9973);

  std::vector<Result> results;
  auto sweep = [&](const char* family,
                   const std::function<PhysicalPlan()>& make_plan,
                   uint64_t budget) {
    double base_ms = 0;
    for (int threads : kThreads) {
      Result r = Measure(StringPrintf("%s/t%d", family, threads), make_plan,
                         budget, threads);
      if (threads == 1) base_ms = r.wall_ms.median;
      r.speedup = base_ms / r.wall_ms.median;
      results.push_back(r);
    }
  };

  sweep("sort", [&] { return SortPlan(&sort_t); }, kRows / 32);

  std::printf("%-10s %-10s %-10s %-10s %-9s %-14s %-6s\n", "scenario",
              "min_ms", "median_ms", "max_ms", "speedup", "spill_bytes",
              "runs");
  for (const Result& r : results) {
    std::printf("%-10s %-10.1f %-10.1f %-10.1f %-9.2f %-14llu %-6llu\n",
                r.name.c_str(), r.wall_ms.min, r.wall_ms.median,
                r.wall_ms.max, r.speedup,
                static_cast<unsigned long long>(r.spill_bytes),
                static_cast<unsigned long long>(r.spill_runs));
  }

  std::string json =
      "{\"bench\":\"micro_parallel\"," + bench::ProvenanceJson(kReps) +
      ",\"rows\":" + StringPrintf("%lld", static_cast<long long>(kRows)) +
      StringPrintf(",\"device_ns_per_byte\":%llu",
                   static_cast<unsigned long long>(kNsPerByte)) +
      ",\"scenarios\":{";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    if (i > 0) json += ',';
    json += StringPrintf("\"%s\":{", r.name.c_str()) +
            bench::SpreadJson("wall_ms", r.wall_ms) +
            StringPrintf(",\"speedup_vs_t1\":%.3f,\"spill_bytes\":%llu,"
                         "\"spill_runs\":%llu}",
                         r.speedup,
                         static_cast<unsigned long long>(r.spill_bytes),
                         static_cast<unsigned long long>(r.spill_runs));
  }
  json += "}}\n";
  std::FILE* out = std::fopen("BENCH_parallel.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_parallel.json\n");
  }
  return 0;
}
