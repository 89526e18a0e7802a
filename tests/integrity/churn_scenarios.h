// Chaos scenarios shared by the digest goldens and the resume-equivalence
// tests. They reach the dispatch paths the single-concurrency AWS and
// uncapped fleet scenarios never do: random routing among several eligible
// multi-concurrency sandboxes, 429s at the instance cap, scale-down that
// reaps idle and drains busy instances, and a per-function sandbox cap with
// an admission queue under host faults.

#ifndef FAASCOST_TESTS_INTEGRITY_CHURN_SCENARIOS_H_
#define FAASCOST_TESTS_INTEGRITY_CHURN_SCENARIOS_H_

#include <vector>

#include "src/cluster/fleet_sim.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/trace/generator.h"

namespace faascost {

// GCP with a small instance cap and a short metric window, so the
// deployment scales out under load, hits the cap, and scales back in while
// long jobs are still running.
inline PlatformSimConfig ChurnyGcpConfig() {
  PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
  cfg.concurrency_limit = 4;
  cfg.max_instances = 6;
  cfg.autoscaler.metric_window = 5 * kMicrosPerSec;
  cfg.autoscaler.action_cooldown = 6 * kMicrosPerSec;
  cfg.faults.crash_prob = 0.05;
  cfg.faults.reject_on_overload = true;
  cfg.retry.max_attempts = 3;
  cfg.scaledown_drains_busy = true;
  cfg.drain_deadline = 1 * kMicrosPerSec;  // Shorter than a job: drains kill.
  return cfg;
}

// Five cycles of 30 s steady load, a silence that empties the metric
// window, and a volley that lands on the still-warm fleet.
inline std::vector<MicroSecs> ChurnyGcpArrivals() {
  std::vector<MicroSecs> arrivals;
  for (int cycle = 0; cycle < 5; ++cycle) {
    const MicroSecs base = cycle * 60 * kMicrosPerSec;
    for (MicroSecs t = 0; t < 30 * kMicrosPerSec; t += 500 * kMicrosPerMilli) {
      arrivals.push_back(base + t);
    }
    for (int i = 0; i < 16; ++i) {
      arrivals.push_back(base + 40 * kMicrosPerSec + i * 10 * kMicrosPerMilli);
    }
  }
  return arrivals;
}

inline WorkloadSpec ChurnyGcpWorkload() { return ProfilerProbeWorkload(2 * kMicrosPerSec); }

// Two sandboxes per function with a short admission queue, on hosts that
// crash, drain, and lose whole zones.
inline FleetSimConfig CappedFleetConfig(uint64_t seed) {
  FleetSimConfig cfg;
  cfg.fault_seed = seed;
  cfg.retry.max_attempts = 3;
  cfg.max_sandboxes_per_function = 2;
  cfg.admission.enabled = true;
  cfg.admission.queue_depth = 4;
  cfg.admission.queue_timeout = 2 * kMicrosPerSec;
  cfg.host_faults.hosts = 16;
  cfg.host_faults.mtbf_seconds = 300.0;
  cfg.host_faults.mttr_seconds = 30.0;
  cfg.host_faults.zones = 4;
  cfg.host_faults.zone_outage_mtbf_seconds = 600.0;
  cfg.host_faults.graceful_fraction = 0.3;
  return cfg;
}

inline std::vector<RequestRecord> CappedFleetTrace(uint64_t seed) {
  TraceGenConfig cfg;
  cfg.num_requests = 8'000;
  cfg.num_functions = 20;
  cfg.window = 120 * kMicrosPerSec;
  return TraceGenerator(cfg, seed).Generate();
}

}  // namespace faascost

#endif  // FAASCOST_TESTS_INTEGRITY_CHURN_SCENARIOS_H_
