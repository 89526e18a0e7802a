// Invariant auditor negative tests: every invariant in the catalog must
// actually fire. Each test runs a clean chaos scenario (which must pass the
// full audit), corrupts exactly one field of the public result struct, and
// asserts that the end-of-run audit throws IntegrityViolation naming the
// corresponding invariant. The in-run invariants are exercised through the
// checkpoint path: serialize mid-run state, tamper one counter in the JSON,
// restore, and run on with a full-level auditor at cadence 1.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/integrity.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr uint64_t kSeed = 1;

PlatformSimConfig ChaosPlatformConfig() {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1769.0);
  cfg.faults.crash_prob = 0.05;
  cfg.faults.init_failure_prob = 0.0125;
  cfg.retry.max_attempts = 3;
  return cfg;
}

PlatformSimResult RunPlatform() {
  PlatformSim sim(ChaosPlatformConfig(), kSeed);
  return sim.Run(UniformArrivals(20.0, 30 * kSec), PyAesWorkload());
}

// Expects `audit` to throw IntegrityViolation for exactly `invariant`, naming
// `entity` and carrying `detail_part` in its detail string: the failure
// message, not just the invariant name, must survive lazy formatting.
template <typename Fn>
void ExpectViolation(const std::string& invariant, const std::string& entity,
                     const std::string& detail_part, Fn&& audit) {
  try {
    audit();
    FAIL() << "expected IntegrityViolation " << invariant << ", none thrown";
  } catch (const IntegrityViolation& e) {
    EXPECT_EQ(e.invariant(), invariant) << e.what();
    EXPECT_EQ(e.entity(), entity) << e.what();
    EXPECT_NE(e.detail().find(detail_part), std::string::npos) << e.what();
  }
}

Usd PlatformTotalUsd(const PlatformSimResult& res, const PlatformSimConfig& cfg,
                     const BillingModel& billing) {
  Usd total = 0.0;
  for (const auto& att : res.attempts) {
    total += ComputeInvoice(billing, BillableRecord(att, cfg.vcpus, cfg.mem_mb)).total;
  }
  return total;
}

TEST(PlatformAuditRules, CleanRunPasses) {
  const PlatformSimResult res = RunPlatform();
  Auditor auditor(AuditLevel::kFull);
  AuditPlatformRun(res, ChaosPlatformConfig(), kSeed, auditor);
  EXPECT_GT(auditor.checks_run(), 0);
}

TEST(PlatformAuditRules, CleanRunReconcilesUsd) {
  const PlatformSimConfig cfg = ChaosPlatformConfig();
  const PlatformSimResult res = RunPlatform();
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  Auditor auditor(AuditLevel::kFull);
  AuditPlatformRun(res, cfg, kSeed, auditor, &billing,
                   PlatformTotalUsd(res, cfg, billing));
}

// Golden count of end-of-run checks on the fixed-seed run, recorded before
// the audit rules were made lazy: any change that drops (or adds) a check
// moves it. Two per request, two per sandbox, one per attempt and timeline
// step, seven run-level (the USD reconciliation included).
TEST(PlatformAuditRules, ChecksRunGolden) {
  const PlatformSimConfig cfg = ChaosPlatformConfig();
  const PlatformSimResult res = RunPlatform();
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  Auditor auditor(AuditLevel::kFull);
  AuditPlatformRun(res, cfg, kSeed, auditor, &billing,
                   PlatformTotalUsd(res, cfg, billing));
  EXPECT_EQ(auditor.checks_run(), 1943);
  EXPECT_EQ(auditor.checks_run(),
            static_cast<int64_t>(2 * res.requests.size() + 2 * res.sandboxes.size() +
                                 res.attempts.size() + res.timeline.size() - 1 + 7));
}

TEST(PlatformAuditRules, FailureTaxonomyFires) {
  PlatformSimResult res = RunPlatform();
  res.failed_attempts += 1;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("platform.failure_taxonomy", "counters", "taxonomy=", [&] {
    AuditPlatformRun(res, ChaosPlatformConfig(), kSeed, auditor);
  });
}

TEST(PlatformAuditRules, AttemptConservationFires) {
  PlatformSimResult res = RunPlatform();
  res.retries += 1;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("platform.attempt_conservation", "attempts",
                  "retries=" + std::to_string(res.retries), [&] {
    AuditPlatformRun(res, ChaosPlatformConfig(), kSeed, auditor);
  });
}

TEST(PlatformAuditRules, RequestConservationFires) {
  PlatformSimResult res = RunPlatform();
  ASSERT_FALSE(res.requests.empty());
  res.requests[0].e2e_latency += 1;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("platform.request_conservation", "request 0",
                  "e2e=" + std::to_string(res.requests[0].e2e_latency), [&] {
    AuditPlatformRun(res, ChaosPlatformConfig(), kSeed, auditor);
  });

  PlatformSimResult res2 = RunPlatform();
  res2.successes -= 1;
  Auditor auditor2(AuditLevel::kFull);
  ExpectViolation("platform.request_conservation", "requests", "recounted successes=",
                  [&] {
    AuditPlatformRun(res2, ChaosPlatformConfig(), kSeed, auditor2);
  });
}

TEST(PlatformAuditRules, SandboxTimeAccountingFires) {
  PlatformSimResult res = RunPlatform();
  ASSERT_FALSE(res.sandboxes.empty());
  res.sandboxes[0].idle_time = -1;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("platform.sandbox_time_accounting",
                  "sandbox " + std::to_string(res.sandboxes[0].sandbox_id), "idle=-1", [&] {
    AuditPlatformRun(res, ChaosPlatformConfig(), kSeed, auditor);
  });
}

TEST(PlatformAuditRules, BilledTimeConservationFires) {
  PlatformSimResult res = RunPlatform();
  ASSERT_FALSE(res.attempts.empty());
  // Shrink one attempt's execution record: sandbox busy time no longer
  // matches the sum of attempt execution durations.
  res.attempts[0].exec_duration -= 1;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("platform.billed_time_conservation", "sandboxes", "sandbox busy=", [&] {
    AuditPlatformRun(res, ChaosPlatformConfig(), kSeed, auditor);
  });
}

TEST(PlatformAuditRules, MonotoneTimelineFires) {
  PlatformSimResult res = RunPlatform();
  ASSERT_GE(res.timeline.size(), 2u);
  res.timeline[1].time = res.timeline[0].time;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("platform.monotone_timeline", "sample 1",
                  std::to_string(res.timeline[1].time) + " after ", [&] {
    AuditPlatformRun(res, ChaosPlatformConfig(), kSeed, auditor);
  });
}

TEST(PlatformAuditRules, UsdReconciliationFires) {
  const PlatformSimConfig cfg = ChaosPlatformConfig();
  const PlatformSimResult res = RunPlatform();
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  const Usd total = PlatformTotalUsd(res, cfg, billing);
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("platform.usd_reconciliation", "billing", "got=", [&] {
    AuditPlatformRun(res, cfg, kSeed, auditor, &billing, total + 1e-3);
  });
}

// --- Fleet ---

FleetSimConfig ChaosFleetConfig() {
  FleetSimConfig cfg;
  cfg.fault_seed = 7;
  cfg.retry.max_attempts = 3;
  cfg.host_faults.hosts = 16;
  cfg.host_faults.mtbf_seconds = 600.0;
  cfg.host_faults.mttr_seconds = 60.0;
  cfg.host_faults.graceful_fraction = 0.3;
  return cfg;
}

FleetResult RunFleet() {
  TraceGenConfig tcfg;
  tcfg.num_requests = 4'000;
  tcfg.num_functions = 100;
  tcfg.window = 600 * kSec;
  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, 7).Generate();
  return SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), ChaosFleetConfig());
}

TEST(FleetAuditRules, CleanRunPasses) {
  const FleetResult res = RunFleet();
  Auditor auditor(AuditLevel::kFull);
  AuditFleetRun(res, ChaosFleetConfig(), auditor);
  EXPECT_GT(auditor.checks_run(), 0);
}

// Golden count of end-of-run checks on the fixed-seed fleet run, recorded
// before the audit rules were made lazy. Two per span, nine run-level (the
// margin check included: the run has revenue).
TEST(FleetAuditRules, ChecksRunGolden) {
  const FleetResult res = RunFleet();
  ASSERT_GT(res.revenue, 0.0);
  Auditor auditor(AuditLevel::kFull);
  AuditFleetRun(res, ChaosFleetConfig(), auditor);
  EXPECT_EQ(auditor.checks_run(), 477);
  EXPECT_EQ(auditor.checks_run(), static_cast<int64_t>(2 * res.spans.size() + 9));
}

TEST(FleetAuditRules, FailureTaxonomyFires) {
  FleetResult res = RunFleet();
  res.crash_attempts += 1;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("fleet.failure_taxonomy", "counters", "taxonomy=",
                  [&] { AuditFleetRun(res, ChaosFleetConfig(), auditor); });
}

TEST(FleetAuditRules, AttemptConservationFires) {
  FleetResult res = RunFleet();
  res.attempts += 1;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("fleet.attempt_conservation", "counters",
                  "attempts=" + std::to_string(res.attempts),
                  [&] { AuditFleetRun(res, ChaosFleetConfig(), auditor); });
}

TEST(FleetAuditRules, RequestConservationFires) {
  FleetResult res = RunFleet();
  res.successes += 1;
  res.retries_exhausted -= 1;
  res.e2e_latency.pop_back();  // Also break the latency-record count.
  Auditor auditor(AuditLevel::kFull);
  // The moved outcome keeps the successes+exhausted sum, so the short
  // latency record is what fires.
  ExpectViolation("fleet.request_conservation", "e2e_latency",
                  std::to_string(res.e2e_latency.size()) + " entries for ",
                  [&] { AuditFleetRun(res, ChaosFleetConfig(), auditor); });
}

TEST(FleetAuditRules, CapacityAccountingFires) {
  FleetResult res = RunFleet();
  res.cold_starts += 1;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("fleet.capacity_accounting", "spans",
                  "cold_starts=" + std::to_string(res.cold_starts),
                  [&] { AuditFleetRun(res, ChaosFleetConfig(), auditor); });
}

TEST(FleetAuditRules, SpanTimeAccountingFires) {
  FleetResult res = RunFleet();
  ASSERT_FALSE(res.spans.empty());
  res.spans[0].idle += 1;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("fleet.span_time_accounting", "span 0", "busy+idle=",
                  [&] { AuditFleetRun(res, ChaosFleetConfig(), auditor); });
}

TEST(FleetAuditRules, UsdReconciliationFires) {
  FleetResult res = RunFleet();
  res.hardware_cost *= 1.01;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("fleet.usd_reconciliation", "hardware_cost", "got=",
                  [&] { AuditFleetRun(res, ChaosFleetConfig(), auditor); });
}

TEST(FleetAuditRules, UsdConservationFires) {
  FleetResult res = RunFleet();
  res.fee_revenue = res.revenue + 1.0;
  Auditor auditor(AuditLevel::kFull);
  ExpectViolation("fleet.usd_conservation", "revenue", "fees=",
                  [&] { AuditFleetRun(res, ChaosFleetConfig(), auditor); });
}

// --- In-run invariants through tampered checkpoint state ---

// Corrupting the serialized open-attempt counter makes the live request-
// conservation scan fire on the first event after restore.
TEST(InRunInvariants, PlatformScanCatchesTamperedCounter) {
  PlatformSimConfig cfg = ChaosPlatformConfig();
  PlatformEngine engine(cfg, kSeed);
  engine.Start(UniformArrivals(20.0, 30 * kSec), PyAesWorkload());
  engine.AdvanceUntil(10 * kSec);
  ASSERT_FALSE(engine.done());
  JsonWriter w;
  engine.SaveState(w);
  std::string state = w.str();

  const std::string needle = "\"open_attempts\":";
  const size_t pos = state.find(needle);
  ASSERT_NE(pos, std::string::npos);
  state.insert(pos + needle.size(), "4");  // Prepend a digit: count is wrong.

  Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/1);
  cfg.auditor = &auditor;
  PlatformEngine resumed(cfg, kSeed);
  resumed.LoadState(ParseJson(state));
  EXPECT_THROW(resumed.RunToEnd(), IntegrityViolation);
}

TEST(InRunInvariants, FleetScanCatchesTamperedCounter) {
  TraceGenConfig tcfg;
  tcfg.num_requests = 4'000;
  tcfg.num_functions = 100;
  tcfg.window = 600 * kSec;
  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, 7).Generate();
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

  FleetSimConfig cfg = ChaosFleetConfig();
  FleetEngine engine(cfg);
  engine.Start(trace, billing);
  engine.AdvanceUntil(200 * kSec);
  ASSERT_FALSE(engine.done());
  JsonWriter w;
  engine.SaveState(w);
  std::string state = w.str();

  const std::string needle = "\"successes\":";
  const size_t pos = state.find(needle);
  ASSERT_NE(pos, std::string::npos);
  state.insert(pos + needle.size(), "4");

  Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/1);
  cfg.auditor = &auditor;
  FleetEngine resumed(cfg);
  resumed.Resume(trace, billing, ParseJson(state));
  EXPECT_THROW(resumed.RunToEnd(), IntegrityViolation);
}

}  // namespace
}  // namespace faascost
