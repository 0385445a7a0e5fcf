#include "exec/fault_injector.h"

#include <utility>

#include "common/strings.h"

namespace qprog {

FaultInjector::FaultInjector(uint64_t seed) : seed_(seed), rng_(seed) {}

void FaultInjector::Arm(FaultSpec spec) {
  if (spec.fault_class == FaultClass::kTransient &&
      spec.code == StatusCode::kInternal) {
    spec.code = StatusCode::kUnavailable;  // retryable by convention
  }
  SiteState& state = sites_[spec.site];
  state.spec = std::move(spec);
  state.armed = true;
  state.latched = false;
  state.failing_remaining = 0;
}

void FaultInjector::Disarm(const std::string& site) {
  auto it = sites_.find(site);
  if (it != sites_.end()) it->second.armed = false;
}

namespace {

Status FaultStatus(const FaultSpec& spec, const char* site, uint64_t hits) {
  std::string message =
      spec.message.empty()
          ? StringPrintf("injected fault at %s (hit %llu)", site,
                         static_cast<unsigned long long>(hits))
          : spec.message;
  return Status(spec.code, std::move(message));
}

}  // namespace

Status FaultInjector::OnHit(const char* site) {
  SiteState& state = sites_[site];
  ++state.hits;
  if (!state.armed) return OkStatus();
  const FaultSpec& spec = state.spec;
  if (spec.latency_spins > 0) {
    // Deterministic latency: a fixed busy-wait that slows the site down
    // without reading a clock (results and reports stay byte-identical).
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < spec.latency_spins; ++i) sink = sink + i;
  }
  // A fired permanent fault latches: the site keeps failing until Disarm or
  // Reset. A transient fault keeps failing while its window is open, then
  // recovers (OnHit returns OK again).
  if (state.latched) return FaultStatus(spec, site, state.hits);
  if (state.failing_remaining > 0) {
    --state.failing_remaining;
    return FaultStatus(spec, site, state.hits);
  }
  bool fire = spec.fail_on_hit != 0 && state.hits == spec.fail_on_hit;
  if (!fire && spec.fail_probability > 0) {
    fire = rng_.Bernoulli(spec.fail_probability);
  }
  if (!fire) return OkStatus();
  if (spec.fault_class == FaultClass::kTransient) {
    // The trigger consumes the first failing hit of the window.
    state.failing_remaining =
        spec.transient_failures > 0 ? spec.transient_failures - 1 : 0;
  } else {
    state.latched = true;
  }
  return FaultStatus(spec, site, state.hits);
}

uint64_t FaultInjector::hit_count(const std::string& site) const {
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

void FaultInjector::Reset() {
  rng_ = Rng(seed_);
  for (auto& [site, state] : sites_) {
    state.hits = 0;
    state.latched = false;
    state.failing_remaining = 0;
  }
}

const std::vector<std::string>& FaultInjector::KnownSites() {
  static const std::vector<std::string>* kSites = new std::vector<std::string>{
      faults::kSeqScanOpen,       faults::kSeqScanNext,
      faults::kIndexSeekNext,     faults::kFilterNext,
      faults::kProjectNext,       faults::kLimitNext,
      faults::kNestedLoopsJoinNext,
      faults::kIndexNestedLoopsJoinNext,
      faults::kHashJoinOpen,      faults::kHashJoinBuild,
      faults::kHashJoinProbe,     faults::kMergeJoinNext,
      faults::kSortOpen,          faults::kSortBuild,
      faults::kHashAggregateBuild, faults::kStreamAggregateNext,
      faults::kSpillOpen,         faults::kSpillWrite,
      faults::kSpillRead,
  };
  return *kSites;
}

}  // namespace qprog
