// FaultInjector: a seeded, deterministic fault-point registry for exercising
// the engine's error paths. Physical operators consult the injector (via
// ExecContext::ConsultFault) at named sites — "<operator>.<phase>" — and a
// fired fault becomes the execution's sticky error Status, propagating out of
// the plan exactly like a real operator failure.
//
// A fault spec can fire on the Nth hit of a site ("fail the scan at row N"),
// probabilistically per hit (seeded xoshiro draw, so runs replay bit-for-bit
// with the same seed), and/or inject deterministic latency (a fixed busy-wait
// that perturbs wall-clock timing without touching clocks or results).
//
// Reset() restores the injector to its initial state — hit counters zeroed,
// RNG reseeded — so the same injector replays identically across runs; the
// ProgressMonitor resets it at the start of every monitored run.

#ifndef QPROG_EXEC_FAULT_INJECTOR_H_
#define QPROG_EXEC_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace qprog {

/// Canonical fault-site names. One name per operator phase that can fail;
/// operators consult exactly these sites (tests iterate the list via
/// FaultInjector::KnownSites()).
namespace faults {
inline constexpr char kSeqScanOpen[] = "seqscan.open";
inline constexpr char kSeqScanNext[] = "seqscan.next";
inline constexpr char kIndexSeekNext[] = "indexseek.next";
inline constexpr char kFilterNext[] = "filter.next";
inline constexpr char kProjectNext[] = "project.next";
inline constexpr char kLimitNext[] = "limit.next";
inline constexpr char kNestedLoopsJoinNext[] = "nljoin.next";
inline constexpr char kIndexNestedLoopsJoinNext[] = "inljoin.next";
inline constexpr char kHashJoinOpen[] = "hashjoin.open";
inline constexpr char kHashJoinBuild[] = "hashjoin.build";
inline constexpr char kHashJoinProbe[] = "hashjoin.probe";
inline constexpr char kMergeJoinNext[] = "mergejoin.next";
inline constexpr char kSortOpen[] = "sort.open";
inline constexpr char kSortBuild[] = "sort.build";
inline constexpr char kHashAggregateBuild[] = "hashagg.build";
inline constexpr char kStreamAggregateNext[] = "streamagg.next";
// Spill-layer I/O sites, consulted by the SpillManager (exec/spill.h) once
// per temp-file open / record write / record read. Transient faults armed
// here exercise the bounded-retry path; permanent ones the cleanup path.
inline constexpr char kSpillOpen[] = "spill.open";
inline constexpr char kSpillWrite[] = "spill.write";
inline constexpr char kSpillRead[] = "spill.read";
// Cross-run registry persistence sites (storage/registry_log.h), consulted
// through the log's fault hook once per open / append / compact. Transient
// faults exercise the deterministic retry path; permanent ones must surface
// as clean errors with no partial on-disk state.
inline constexpr char kRegistryOpen[] = "registry.open";
inline constexpr char kRegistryAppend[] = "registry.append";
inline constexpr char kRegistryCompact[] = "registry.compact";
}  // namespace faults

/// Failure taxonomy. A permanent fault latches: once fired, every later hit
/// of the site fails too (until Disarm or Reset) — the model of a corrupted
/// file or a dead disk. A transient fault fails for a bounded window of
/// `transient_failures` consecutive hits and then recovers — the model of a
/// full page cache or a flaky device that a bounded retry loop can ride out.
enum class FaultClass {
  kPermanent,
  kTransient,
};

/// One armed fault. `fail_on_hit` and `fail_probability` may be combined;
/// whichever condition is met first fires. A fired site stays armed (a
/// probabilistic fault can fire again on a later run after Reset()).
struct FaultSpec {
  std::string site;            // one of faults::k* (or any custom site name)
  uint64_t fail_on_hit = 0;    // fire on the Nth hit of the site; 0 disables
  double fail_probability = 0; // per-hit Bernoulli draw; 0 disables
  StatusCode code = StatusCode::kInternal;
  std::string message;         // defaults to "injected fault at <site>"
  uint64_t latency_spins = 0;  // busy-wait iterations added to every hit
  FaultClass fault_class = FaultClass::kPermanent;
  // Transient faults only: consecutive failing hits (the trigger included)
  // before the site recovers. Arm() defaults a transient fault's code to
  // kUnavailable so retry loops recognize it as retryable.
  uint64_t transient_failures = 1;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms (or replaces) the fault for `spec.site`.
  void Arm(FaultSpec spec);

  /// Removes the fault armed at `site`, if any. Hit counting continues.
  void Disarm(const std::string& site);

  /// Called by the execution layer each time a site is reached. Returns a
  /// non-OK Status when the armed fault fires.
  Status OnHit(const char* site);

  /// Times `site` has been reached since construction or the last Reset().
  uint64_t hit_count(const std::string& site) const;

  /// Zeroes every hit counter and reseeds the RNG: the injector will replay
  /// the exact same fault schedule on the next run.
  void Reset();

  /// Deterministic per-task fork for parallel execution: a new injector with
  /// the same armed specs, fresh hit counters, and a seed mixed from this
  /// injector's seed and `task_key`. Task keys are derived from the task's
  /// *data identity* (partition index, run index) — never from thread IDs or
  /// scheduling order — so a parallel run replays the same fault schedule at
  /// every thread count. Fork the same key twice, get the same schedule.
  std::unique_ptr<FaultInjector> Fork(uint64_t task_key) const;

  uint64_t seed() const { return seed_; }

  /// Every canonical operator fault site, in a stable order.
  static const std::vector<std::string>& KnownSites();

 private:
  struct SiteState {
    FaultSpec spec;
    bool armed = false;
    uint64_t hits = 0;
    bool latched = false;           // permanent fault has fired
    uint64_t failing_remaining = 0; // transient failing window still open
  };

  uint64_t seed_;
  Rng rng_;
  std::unordered_map<std::string, SiteState> sites_;
};

}  // namespace qprog

#endif  // QPROG_EXEC_FAULT_INJECTOR_H_
