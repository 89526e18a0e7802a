// End-to-end telemetry contracts across all three engines:
//   1. bitwise billed-USD reconciliation between the attached TimeSeries and
//      the run's terminal spans (fleet chaos, platform, workflow);
//   2. detached telemetry is free: a run with no TimeSeries/EngineProfiler
//      attached produces results identical to one that had them;
//   3. the engine profiler's deterministic side (event counts, RNG draws)
//      is reproducible across identical runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/billing/catalog.h"
#include "src/billing/model.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/units.h"
#include "src/core/observe.h"
#include "src/obs/engine_profiler.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/sched/host_sim.h"
#include "src/trace/generator.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {
namespace {

constexpr MicroSecs kWindow = 60 * kMicrosPerSec;

BillingModel Aws() { return MakeBillingModel(Platform::kAwsLambda); }

FleetSimConfig ChaosConfig() {
  FleetSimConfig cfg;
  cfg.fault_seed = 11;
  cfg.retry.max_attempts = 3;
  cfg.host_faults.hosts = 8;
  cfg.host_faults.mtbf_seconds = 900.0;
  cfg.host_faults.mttr_seconds = 60.0;
  cfg.host_faults.graceful_fraction = 0.3;
  return cfg;
}

std::vector<RequestRecord> ChaosTrace() {
  TraceGenConfig tcfg;
  tcfg.num_requests = 4'000;
  tcfg.num_functions = 50;
  tcfg.window = 1'800 * kMicrosPerSec;
  return TraceGenerator(tcfg, 11).Generate();
}

TEST(TelemetryIntegrationTest, FleetChaosReconcilesBitwise) {
  const std::vector<RequestRecord> trace = ChaosTrace();
  TimeSeries series(kWindow);
  SpanCollector spans;
  FleetSimConfig cfg = ChaosConfig();
  cfg.trace_sink = &spans;
  cfg.timeseries = &series;
  const FleetResult res = SimulateFleet(trace, Aws(), cfg);
  ASSERT_GT(res.host_fault_sandbox_kills, 0) << "chaos scenario too tame";

  const BilledReconciliation rec = ReconcileBilledUsd(series, spans.spans());
  EXPECT_TRUE(rec.ok) << "first mismatch at window " << rec.first_mismatch_window;
  EXPECT_GT(rec.span_total, 0.0);
  // The windowed series also reproduces the result's revenue (per-window
  // sums vs the simulator's own accumulator may differ only by FP order, so
  // this is a tolerance check, not the bitwise one above).
  EXPECT_NEAR(series.TotalBilledUsd(), res.revenue, 1e-12);
}

TEST(TelemetryIntegrationTest, FleetDetachedResultsAreUnchangedByTelemetry) {
  const std::vector<RequestRecord> trace = ChaosTrace();
  FleetSimConfig plain = ChaosConfig();
  const FleetResult bare = SimulateFleet(trace, Aws(), plain);

  TimeSeries series(kWindow);
  EngineProfiler prof;
  FleetSimConfig wired = ChaosConfig();
  wired.timeseries = &series;
  wired.profiler = &prof;
  const FleetResult observed = SimulateFleet(trace, Aws(), wired);

  EXPECT_EQ(bare.requests, observed.requests);
  EXPECT_EQ(bare.attempts, observed.attempts);
  EXPECT_EQ(bare.cold_starts, observed.cold_starts);
  EXPECT_EQ(bare.failed_attempts, observed.failed_attempts);
  EXPECT_EQ(bare.retries, observed.retries);
  EXPECT_EQ(bare.revenue, observed.revenue);  // Bitwise: same fold order.
  EXPECT_EQ(bare.hardware_cost, observed.hardware_cost);
  EXPECT_EQ(bare.e2e_latency, observed.e2e_latency);
  EXPECT_EQ(prof.events_total(), bare.attempts);
}

TEST(TelemetryIntegrationTest, PlatformIngestedSpansReconcileBitwise) {
  // With co-tenants the collector also carries the sched layer's
  // throttle/preempt spans (the `faascost observe --cotenants` path); they
  // are non-terminal, so reconciliation must ignore them.
  for (const int cotenants : {0, 2}) {
    SCOPED_TRACE(cotenants);
    PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
    cfg.faults.crash_prob = 0.05;
    cfg.retry.max_attempts = 3;
    TimeSeries series(kWindow);
    SpanCollector spans;
    cfg.trace = &spans;
    cfg.timeseries = &series;
    PlatformSim sim(cfg, 5);
    const PlatformSimResult res =
        sim.Run(UniformArrivals(10.0, 120 * kMicrosPerSec), PyAesWorkload());
    const size_t platform_spans = spans.spans().size();
    if (cotenants > 0) {
      HostSimConfig host;
      host.duration = 120 * kMicrosPerSec;
      host.trace = &spans;
      const std::vector<TenantSpec> tenants{{0.5, 1.0, 1.0}, {0.5, 1.0, 0.7}};
      SimulateHost(host, tenants, 5);
      ASSERT_GT(spans.spans().size(), platform_spans);
    }
    const BillingModel billing = Aws();
    TagPlatformSpanBilling(spans.mutable_spans(), res, cfg, billing);
    IngestBilledSpans(series, spans.spans());
    const BilledReconciliation rec = ReconcileBilledUsd(series, spans.spans());
    EXPECT_TRUE(rec.ok) << "first mismatch at window " << rec.first_mismatch_window;
    EXPECT_GT(rec.span_total, 0.0);
    // Inline counters flowed too: completions cover every request.
    int64_t completions = 0;
    for (size_t i = 0; i < series.window_count(); ++i) {
      completions += series.window_at(i).completions;
    }
    EXPECT_EQ(completions, static_cast<int64_t>(res.requests.size()));
  }
}

TEST(TelemetryIntegrationTest, WorkflowAttemptsReconcileBitwise) {
  WorkflowSimConfig cfg;
  HopSpec hop;
  hop.exec_mean = 80 * kMicrosPerMilli;
  cfg.dags.push_back(MakeChainDag("chain", 4, hop));
  cfg.workflows = 200;
  cfg.wps = 5.0;
  cfg.failure_rate = 0.1;
  cfg.policy.retry.max_attempts = 3;
  cfg.policy.hedge.hedge_after = 300 * kMicrosPerMilli;
  cfg.pricing = MakeWorkflowPricing(Platform::kAwsLambda);
  TimeSeries series(kWindow);
  SpanCollector spans;
  cfg.trace = &spans;
  cfg.timeseries = &series;
  const WorkflowSimResult res = SimulateWorkflows(cfg, Aws(), 21);
  ASSERT_GT(res.counters.dispatched_attempts, 0);

  const BilledReconciliation rec = ReconcileBilledUsd(series, spans.spans());
  EXPECT_TRUE(rec.ok) << "first mismatch at window " << rec.first_mismatch_window;
  // The series' billed column covers attempt invoices (not the workflow-level
  // transition/DLQ fees, which ride the kWorkflow roll-up spans).
  EXPECT_NEAR(series.TotalBilledUsd(), res.usd_attempts, 1e-12);
}

TEST(TelemetryIntegrationTest, ProfilerDeterministicSideIsReproducible) {
  const std::vector<RequestRecord> trace = ChaosTrace();
  EngineProfiler a;
  EngineProfiler b;
  for (EngineProfiler* prof : {&a, &b}) {
    FleetSimConfig cfg = ChaosConfig();
    cfg.profiler = prof;
    SimulateFleet(trace, Aws(), cfg);
  }
  EXPECT_EQ(a.events_total(), b.events_total());
  EXPECT_EQ(a.rng_draws(), b.rng_draws());
  EXPECT_GT(a.rng_draws(), 0u);
  EXPECT_EQ(a.queue_depth_peak(), b.queue_depth_peak());
  ASSERT_EQ(a.queue_samples().size(), b.queue_samples().size());
  for (size_t i = 0; i < a.queue_samples().size(); ++i) {
    EXPECT_EQ(a.queue_samples()[i].time, b.queue_samples()[i].time);
    EXPECT_EQ(a.queue_samples()[i].depth, b.queue_samples()[i].depth);
  }
}

}  // namespace
}  // namespace faascost
