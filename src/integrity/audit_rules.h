// End-of-run reconciliation audits over finished simulation results.
//
// The in-run Auditor hooks (src/platform, src/cluster, src/sched) check
// invariants over live engine state; the rules here take the *public* result
// structs, so they can audit any run — fresh, resumed, or deserialized from
// an artifact — and so negative tests can corrupt a field directly and prove
// the corresponding invariant fires. Every violation throws
// IntegrityViolation with the offending entity and a counter-by-counter
// detail string. See DESIGN.md §9 for the invariant catalog.

#ifndef FAASCOST_INTEGRITY_AUDIT_RULES_H_
#define FAASCOST_INTEGRITY_AUDIT_RULES_H_

#include <cstdint>

#include "src/billing/model.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/units.h"
#include "src/integrity/integrity.h"
#include "src/platform/platform_sim.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {

// Independent USD recomputation for a platform run: every attempt billed
// through BillableRecord + ComputeInvoice at the config's allocation. This is
// the reference total that AuditPlatformRun reconciles against.
Usd RecomputePlatformTotalUsd(const PlatformSimResult& result,
                              const PlatformSimConfig& config,
                              const BillingModel& billing);

// Audits a finished PlatformSim run: failure-taxonomy partition, attempt and
// request conservation, busy-time conservation against attempt execution
// durations, sandbox time accounting, monotone timeline, and — when
// `billing` is non-null — reconciliation of `expected_total_usd` (the
// caller's invoiced total, e.g. from a run artifact) against the independent
// recomputation above. Throws IntegrityViolation on the first failure.
void AuditPlatformRun(const PlatformSimResult& result, const PlatformSimConfig& config,
                      uint64_t seed, Auditor& auditor,
                      const BillingModel* billing = nullptr,
                      Usd expected_total_usd = 0.0);

// Audits a finished fleet run: failure-taxonomy partition, attempt/request
// conservation, per-span time accounting, and reconciliation of the
// hardware-cost, span-seconds, and margin aggregates against an independent
// recomputation from the spans. Throws IntegrityViolation on the first
// failure.
void AuditFleetRun(const FleetResult& result, const FleetSimConfig& config,
                   Auditor& auditor);

// Audits a finished workflow run: USD conservation (workflow USD == sum of
// hop-attempt USD including hedge losers and dead letters, == independent
// billing recomputation), never-billed invariants (kCircuitOpen /
// kUpstreamFailed / fail-fast rows carry exactly $0), workflow-outcome
// partition, attempt-counter conservation, and monotone per-attempt times.
// The recomputation prices every platform-dispatched attempt once, through
// BillableRecord + ComputeInvoice at its hop's allocation, and adds the
// transition and DLQ fees from the counters. Throws IntegrityViolation on
// the first failure.
void AuditWorkflowRun(const WorkflowSimResult& result, const WorkflowSimConfig& config,
                      uint64_t seed, Auditor& auditor, const BillingModel& billing);

}  // namespace faascost

#endif  // FAASCOST_INTEGRITY_AUDIT_RULES_H_
