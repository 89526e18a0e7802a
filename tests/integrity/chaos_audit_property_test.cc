// Property suite: chaos scenarios across many seeds with the auditor at max
// level must complete with zero violations. This is the positive half of the
// integrity contract (the negative half — each invariant demonstrably fires
// on corrupted state — lives in audit_rules_test.cc). Any seed that throws
// IntegrityViolation here is a real conservation bug in the simulator, not a
// flaky test.

#include <gtest/gtest.h>

#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/integrity.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/sched/host_sim.h"
#include "src/trace/generator.h"
#include "tests/integrity/churn_scenarios.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr int kSeeds = 20;

TEST(ChaosAuditProperty, PlatformZeroViolationsAcrossSeeds) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1769.0);
    cfg.faults.crash_prob = 0.08;
    cfg.faults.init_failure_prob = 0.02;
    cfg.faults.max_exec_duration = 400 * kMicrosPerMilli;
    cfg.retry.max_attempts = 3;
    // Exercise admission-control and breaker paths under audit too.
    cfg.admission.enabled = true;
    cfg.admission.queue_depth = 16;
    cfg.admission.queue_timeout = 2 * kSec;
    cfg.retry.breaker_threshold = 5;

    Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/64);
    cfg.auditor = &auditor;
    PlatformSim sim(cfg, seed);
    PlatformSimResult res;
    ASSERT_NO_THROW(res = sim.Run(UniformArrivals(40.0, 20 * kSec), PyAesWorkload()))
        << "seed " << seed;
    EXPECT_GT(auditor.checks_run(), 0) << "seed " << seed;
    EXPECT_GT(auditor.scans_run(), 0) << "seed " << seed;

    Usd total = 0.0;
    for (const auto& att : res.attempts) {
      total += ComputeInvoice(billing, BillableRecord(att, cfg.vcpus, cfg.mem_mb)).total;
    }
    ASSERT_NO_THROW(AuditPlatformRun(res, cfg, seed, auditor, &billing, total))
        << "seed " << seed;
  }
}

TEST(ChaosAuditProperty, FleetZeroViolationsAcrossSeeds) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  TraceGenConfig tcfg;
  tcfg.num_requests = 2'000;
  tcfg.num_functions = 50;
  tcfg.window = 300 * kSec;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    FleetSimConfig cfg;
    cfg.fault_seed = seed;
    cfg.retry.max_attempts = 3;
    cfg.retry.breaker_threshold = 5;
    cfg.host_faults.hosts = 16;
    cfg.host_faults.mtbf_seconds = 300.0;
    cfg.host_faults.mttr_seconds = 30.0;
    cfg.host_faults.zones = 4;
    cfg.host_faults.zone_outage_mtbf_seconds = 3'600.0;
    cfg.host_faults.graceful_fraction = 0.3;

    Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/64);
    cfg.auditor = &auditor;
    const std::vector<RequestRecord> trace = TraceGenerator(tcfg, seed).Generate();
    FleetResult res;
    ASSERT_NO_THROW(res = SimulateFleet(trace, billing, cfg)) << "seed " << seed;
    EXPECT_GT(auditor.checks_run(), 0) << "seed " << seed;
    EXPECT_GT(auditor.scans_run(), 0) << "seed " << seed;
    ASSERT_NO_THROW(AuditFleetRun(res, cfg, auditor)) << "seed " << seed;
  }
}

// The multi-concurrency and capped-fleet dispatch paths under a dense scan
// cadence, so the derived-index invariants (platform.live_index,
// fleet.scan_index) are checked mid-churn, not only on single-concurrency
// and uncapped runs.
TEST(ChaosAuditProperty, ChurnScenariosZeroViolations) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/16);
    PlatformSimConfig cfg = ChurnyGcpConfig();
    cfg.auditor = &auditor;
    PlatformSim sim(cfg, seed);
    ASSERT_NO_THROW(sim.Run(ChurnyGcpArrivals(), ChurnyGcpWorkload())) << "seed " << seed;
    EXPECT_GT(auditor.scans_run(), 0) << "seed " << seed;
  }
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/16);
    FleetSimConfig cfg = CappedFleetConfig(seed);
    cfg.auditor = &auditor;
    const std::vector<RequestRecord> trace = CappedFleetTrace(seed);
    ASSERT_NO_THROW(SimulateFleet(trace, billing, cfg)) << "seed " << seed;
    EXPECT_GT(auditor.scans_run(), 0) << "seed " << seed;
  }
}

TEST(ChaosAuditProperty, HostZeroViolationsAcrossSeeds) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    HostSimConfig cfg;
    cfg.cores = 4;
    cfg.duration = 20LL * kSec;
    Auditor auditor(AuditLevel::kFull);
    cfg.auditor = &auditor;
    std::vector<TenantSpec> tenants(8);
    for (size_t i = 0; i < tenants.size(); ++i) {
      tenants[i].quota_fraction = 0.4;
      tenants[i].weight = 1.0 + static_cast<double>(i % 3);
      tenants[i].demand_fraction = i % 2 == 0 ? 1.0 : 0.6;
    }
    ASSERT_NO_THROW(SimulateHost(cfg, tenants, seed)) << "seed " << seed;
    EXPECT_GT(auditor.checks_run(), 0) << "seed " << seed;
    EXPECT_GT(auditor.scans_run(), 0) << "seed " << seed;
  }
}

// The null-auditor (detached) contract: attaching an auditor at any level
// must not change simulation results. Digest equality proves it bit-for-bit.
TEST(ChaosAuditProperty, AuditorDoesNotPerturbResults) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1769.0);
    cfg.faults.crash_prob = 0.05;
    cfg.retry.max_attempts = 3;

    PlatformEngine detached(cfg, seed);
    detached.Start(UniformArrivals(20.0, 15 * kSec), PyAesWorkload());
    detached.RunToEnd();

    Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/32);
    PlatformSimConfig audited_cfg = cfg;
    audited_cfg.auditor = &auditor;
    PlatformEngine audited(audited_cfg, seed);
    audited.Start(UniformArrivals(20.0, 15 * kSec), PyAesWorkload());
    audited.RunToEnd();

    EXPECT_EQ(detached.Digest(), audited.Digest()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace faascost
