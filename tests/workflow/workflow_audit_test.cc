// Workflow USD-conservation audit: clean runs (including a ≥20-seed chaos
// sweep) pass at full level, and corrupting any single field of the public
// result fires the matching invariant. Follows the audit_rules_test idiom:
// one corruption per test, exact invariant name, entity and detail
// asserted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/billing/catalog.h"
#include "src/billing/model.h"
#include "src/common/units.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/integrity.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {
namespace {

constexpr uint64_t kSeed = 3;

WorkflowSimConfig ChaosConfig() {
  WorkflowSimConfig cfg;
  HopSpec proto;
  cfg.dags.push_back(MakeChainDag("c", 4, proto, /*spread_zones=*/true));
  cfg.dags.push_back(MakeFanOutDag("f", 4, 3, proto));
  cfg.workflows = 60;
  cfg.wps = 4.0;
  cfg.failure_rate = 0.08;
  cfg.init_failure_rate = 0.02;
  cfg.zones = 3;
  ZonalOutageSpec outage;
  outage.zone = 1;
  outage.start = 4 * kMicrosPerSec;
  outage.duration = 6 * kMicrosPerSec;
  cfg.outages.push_back(outage);
  cfg.policy.retry.max_attempts = 3;
  cfg.policy.retry.breaker_threshold = 4;
  cfg.policy.hedge.hedge_after = 600 * kMicrosPerMilli;
  cfg.pricing = MakeWorkflowPricing(Platform::kAwsLambda);
  return cfg;
}

WorkflowSimResult RunChaos(uint64_t seed = kSeed) {
  return SimulateWorkflows(ChaosConfig(), MakeBillingModel(Platform::kAwsLambda), seed);
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

int64_t Audit(const WorkflowSimResult& res, uint64_t seed = kSeed) {
  Auditor auditor(AuditLevel::kFull);
  AuditWorkflowRun(res, ChaosConfig(), seed, auditor,
                   MakeBillingModel(Platform::kAwsLambda));
  return auditor.checks_run();
}

std::string AttemptEntity(size_t i) { return "attempt " + std::to_string(i); }

// Index of the first attempt row matching `pred`, or attempts.size().
template <typename Pred>
size_t FirstAttempt(const WorkflowSimResult& res, Pred pred) {
  return static_cast<size_t>(
      std::find_if(res.attempts.begin(), res.attempts.end(), pred) -
      res.attempts.begin());
}

// The acceptance sweep: the full-level workflow audit passes on ≥20 chaos
// seeds, with both in-run and end-of-run auditors attached.
TEST(WorkflowAudit, CleanChaosSweepPassesTwentySeeds) {
  const BillingModel aws = MakeBillingModel(Platform::kAwsLambda);
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    WorkflowSimConfig cfg = ChaosConfig();
    Auditor in_run(AuditLevel::kFull);
    cfg.auditor = &in_run;
    const WorkflowSimResult res = SimulateWorkflows(cfg, aws, seed);
    EXPECT_GT(in_run.checks_run(), 0);
    Auditor post(AuditLevel::kFull);
    AuditWorkflowRun(res, cfg, seed, post, aws);
    EXPECT_GT(post.checks_run(), 0) << "seed " << seed;
  }
}

// Golden count of end-of-run checks on the fixed-seed chaos run, recorded
// before the audit rules were made lazy: any change that drops (or adds) a
// check moves it. Three per attempt, two per workflow, eight run-level.
TEST(WorkflowAudit, ChecksRunGolden) {
  const WorkflowSimResult res = RunChaos();
  const int64_t checks = Audit(res);
  EXPECT_EQ(checks, 1292);
  EXPECT_EQ(checks, static_cast<int64_t>(3 * res.attempts.size() +
                                         2 * res.workflows.size() + 8));
}

TEST(WorkflowAudit, InflatedAttemptUsdFiresReconciliation) {
  WorkflowSimResult res = RunChaos();
  const size_t row =
      FirstAttempt(res, [](const HopAttempt& att) { return att.platform_dispatched; });
  ASSERT_LT(row, res.attempts.size());
  res.attempts[row].usd += 1.0;
  ExpectViolation("workflow.usd_reconciliation", AttemptEntity(row), "got=",
                  [&] { Audit(res); });
}

TEST(WorkflowAudit, BilledCircuitOpenFiresNeverBilled) {
  WorkflowSimResult res = RunChaos();
  const size_t row = FirstAttempt(res, [](const HopAttempt& att) {
    return att.attempt.outcome == Outcome::kCircuitOpen;
  });
  ASSERT_LT(row, res.attempts.size()) << "chaos run produced no circuit-open rows";
  res.attempts[row].platform_dispatched = true;
  ExpectViolation("workflow.never_billed", AttemptEntity(row),
                  std::string("outcome=") + OutcomeName(Outcome::kCircuitOpen),
                  [&] { Audit(res); });
}

TEST(WorkflowAudit, UsdOnUndispatchedRowFiresNeverBilled) {
  WorkflowSimResult res = RunChaos();
  const size_t row =
      FirstAttempt(res, [](const HopAttempt& att) { return !att.platform_dispatched; });
  ASSERT_LT(row, res.attempts.size()) << "chaos run produced no undispatched rows";
  res.attempts[row].usd = 0.001;
  ExpectViolation("workflow.never_billed", AttemptEntity(row),
                  "undispatched row carries usd=", [&] { Audit(res); });
}

TEST(WorkflowAudit, DroppedCounterFiresAttemptConservation) {
  WorkflowSimResult res = RunChaos();
  res.counters.dispatched_attempts -= 1;
  ExpectViolation("workflow.attempt_conservation", "counters", "recounted dispatched=",
                  [&] { Audit(res); });
}

TEST(WorkflowAudit, InflatedWorkflowRowFiresUsdConservation) {
  WorkflowSimResult res = RunChaos();
  ASSERT_FALSE(res.workflows.empty());
  res.workflows[0].usd += 0.01;
  ExpectViolation("workflow.usd_conservation", "wf 0", "got=", [&] { Audit(res); });
}

TEST(WorkflowAudit, MiscountedSuccessesFiresOutcomePartition) {
  WorkflowSimResult res = RunChaos();
  res.counters.workflows_succeeded += 1;
  ExpectViolation("workflow.outcome_partition", "counters", "recounted ok=",
                  [&] { Audit(res); });
}

TEST(WorkflowAudit, BackwardsAttemptTimeFiresMonotoneCheck) {
  WorkflowSimResult res = RunChaos();
  const size_t row = FirstAttempt(res, [](const HopAttempt& att) {
    return att.platform_dispatched && att.attempt.dispatched > 0;
  });
  ASSERT_LT(row, res.attempts.size());
  res.attempts[row].attempt.end = res.attempts[row].attempt.dispatched - 1;
  ExpectViolation("workflow.monotone_attempt_time", AttemptEntity(row),
                  "end=" + std::to_string(res.attempts[row].attempt.end),
                  [&] { Audit(res); });
}

TEST(WorkflowAudit, InflatedRunTotalFiresUsdConservation) {
  WorkflowSimResult res = RunChaos();
  res.usd_total += 0.5;
  ExpectViolation("workflow.usd_conservation", "usd_total", "got=", [&] { Audit(res); });
}

TEST(WorkflowAudit, WasteDecompositionFires) {
  WorkflowSimResult res = RunChaos();
  res.usd_wasted += 0.25;
  ExpectViolation("workflow.usd_conservation", "waste decomposition", "got=",
                  [&] { Audit(res); });
}

}  // namespace
}  // namespace faascost
