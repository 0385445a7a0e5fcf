// End-to-end benchmark binary.
//
//   e2ebench --workload <tpch_mem|tpch_spill|fleet> --seed <n>
//            --seconds <s> --trace <0|1> [--quick] [--corrupt-reference]
//            [--state-dir <dir>] [--source-hash <h>] [--git-sha <sha>]
//   e2ebench --manifest        prints BENCHMARK.json from the metric catalog
//
// The last line of stdout is the result: {"correct", "attempted", "failed",
// "metrics"}; with --trace 0 the metrics are the end-to-end catalog, with
// --trace 1 the per-layer catalog. A provenance line precedes it. Exit code
// 0 = correct; 1 = a wrong result or a determinism violation; 2 = usage or
// an unfit build (Debug, sanitizer, assertions on).

#include <malloc.h>

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

#ifndef QPROG_E2E_BUILD_TYPE
#define QPROG_E2E_BUILD_TYPE "unknown"
#endif

namespace {

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<tpch_mem|tpch_spill|fleet> --seed N --seconds S --trace 0|1 "
               "[--quick] [--corrupt-reference] [--state-dir D] "
               "[--source-hash H] [--git-sha S] | --manifest\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "e2ebench: %s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--manifest") {
      std::fputs(e2e::ManifestJson().c_str(), stdout);
      return 0;
    } else if (a == "--workload") {
      opts.workload = value("--workload");
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value("--seed"), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(value("--seconds"));
    } else if (a == "--trace") {
      opts.trace = std::atoi(value("--trace")) != 0;
    } else if (a == "--quick") {
      opts.quick = true;
    } else if (a == "--corrupt-reference") {
      opts.corrupt_reference = true;
    } else if (a == "--state-dir") {
      opts.state_dir = value("--state-dir");
    } else if (a == "--source-hash") {
      opts.source_hash = value("--source-hash");
    } else if (a == "--git-sha") {
      opts.git_sha = value("--git-sha");
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (opts.seconds <= 0) return Usage("--seconds must be positive");

  // Timings from an unoptimized or instrumented build are not comparable.
  std::string build_type = QPROG_E2E_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    return Usage(("refusing a " + build_type + " build").c_str());
  }
  if (SanitizedBuild()) return Usage("refusing a sanitizer build");
#ifndef NDEBUG
  return Usage("refusing a build with assertions enabled");
#endif

  // Keep freed memory in the process: a VM's page faults cost a
  // host-dependent amount, and re-faulting the same heap on every query
  // made timings swing with the host rather than with the engine.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  std::printf(
      "{\"provenance\": {\"nproc\": %d, \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\", \"source_hash\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"quick\": %s}}\n",
      e2e::Nproc(), build_type.c_str(), opts.git_sha.c_str(),
      opts.source_hash.c_str(), opts.seed, opts.seconds,
      opts.quick ? "true" : "false");
  std::fflush(stdout);

  if (opts.workload == "tpch_mem") return e2e::RunTpch(opts, false);
  if (opts.workload == "tpch_spill") return e2e::RunTpch(opts, true);
  if (opts.workload == "fleet") return e2e::RunFleet(opts);
  return Usage(("unknown workload '" + opts.workload + "'").c_str());
}
