// Simulator-throughput micro-benchmarks (google-benchmark): how fast the
// substrates run, for sizing larger experiments.

#include <benchmark/benchmark.h>

#include "src/billing/analysis.h"
#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/integrity/integrity.h"
#include "src/obs/engine_profiler.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/presets.h"
#include "src/sched/bandwidth_sim.h"
#include "src/sched/host_sim.h"
#include "src/trace/generator.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {
namespace {

void BM_TraceGeneration(benchmark::State& state) {
  TraceGenConfig cfg;
  cfg.num_requests = state.range(0);
  cfg.num_functions = 500;
  for (auto _ : state) {
    TraceGenerator gen(cfg, 1);
    auto trace = gen.Generate();
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(10'000)->Arg(100'000);

void BM_InvoiceComputation(benchmark::State& state) {
  TraceGenConfig cfg;
  cfg.num_requests = 10'000;
  cfg.num_functions = 200;
  const auto trace = TraceGenerator(cfg, 2).Generate();
  const BillingModel aws = MakeBillingModel(Platform::kAwsLambda);
  size_t i = 0;
  for (auto _ : state) {
    const Invoice inv = ComputeInvoice(aws, trace[i++ % trace.size()]);
    benchmark::DoNotOptimize(inv.total);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvoiceComputation);

void BM_BandwidthSimRun(benchmark::State& state) {
  const SchedConfig cfg = MakeSchedConfig(20 * kMicrosPerMilli, 0.25, 250);
  const CpuBandwidthSim sim(cfg);
  Rng rng(3);
  for (auto _ : state) {
    const TaskRunResult r =
        sim.RunWithRandomPhase(160 * kMicrosPerMilli, 60LL * kMicrosPerSec, rng);
    benchmark::DoNotOptimize(r.wall_duration);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BandwidthSimRun);

void BM_ProfilerTenSeconds(benchmark::State& state) {
  const SchedConfig cfg = MakeSchedConfig(20 * kMicrosPerMilli, 0.072, 250);
  const CpuBandwidthSim sim(cfg);
  Rng rng(4);
  for (auto _ : state) {
    const TaskRunResult r =
        sim.RunWithRandomPhase(kUnlimitedDemand, 10LL * kMicrosPerSec, rng);
    benchmark::DoNotOptimize(r.throttles.size());
  }
}
BENCHMARK(BM_ProfilerTenSeconds);

// The platform trio below times sim construction + Run together, with the
// arrival vector hoisted out of the loop. No PauseTiming/ResumeTiming: the
// pause syscalls cost more than sim construction and made the audited-vs-
// detached overhead ratio flap around CI's 10% budget. Construction cost is
// identical across the three variants, so the ratio stays honest.
std::vector<MicroSecs> PlatformArrivals() {
  Rng rng(6);
  return PoissonArrivals(10.0, 100LL * kMicrosPerSec, rng);
}

void BM_PlatformSimThousandRequests(benchmark::State& state) {
  const WorkloadSpec wl = PyAesWorkload();
  const auto arrivals = PlatformArrivals();
  for (auto _ : state) {
    PlatformSim sim(GcpPlatform(1.0, 1'024.0), 5);
    const auto result = sim.Run(arrivals, wl);
    benchmark::DoNotOptimize(result.requests.size());
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_PlatformSimThousandRequests);

// Same run with the span sink attached: the delta against the untraced
// variant is the observability overhead (budgeted <10%).
void BM_PlatformSimThousandRequestsTraced(benchmark::State& state) {
  const WorkloadSpec wl = PyAesWorkload();
  // The sink lives across iterations, as it does in a real `observe` run:
  // what is measured is the steady-state emission cost, not allocator warmup.
  const auto arrivals = PlatformArrivals();
  SpanCollector spans;
  for (auto _ : state) {
    spans.Clear();
    PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
    cfg.trace = &spans;
    PlatformSim sim(cfg, 5);
    const auto result = sim.Run(arrivals, wl);
    benchmark::DoNotOptimize(result.requests.size());
    benchmark::DoNotOptimize(spans.spans().size());
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_PlatformSimThousandRequestsTraced);

// Audited counterpart: full-level runtime invariant auditor at the default
// scan cadence. The delta against the detached variant is the integrity
// overhead (budgeted <10% in CI, see tools/ci.sh).
void BM_PlatformSimThousandRequestsAudited(benchmark::State& state) {
  const WorkloadSpec wl = PyAesWorkload();
  const auto arrivals = PlatformArrivals();
  for (auto _ : state) {
    Auditor auditor(AuditLevel::kFull);
    PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
    cfg.auditor = &auditor;
    PlatformSim sim(cfg, 5);
    const auto result = sim.Run(arrivals, wl);
    benchmark::DoNotOptimize(result.requests.size());
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_PlatformSimThousandRequestsAudited);

// Monitored counterpart: windowed TimeSeries plus the engine flight recorder
// attached, as `faascost monitor` runs them. The delta against the detached
// variant is the telemetry overhead, gated under the same <10% budget as the
// traced and audited pairs (tools/make_bench_micro.py). The series and
// profiler are rebuilt per iteration, like the Auditor above: both are a
// handful of small vectors, and a fresh instance is what a monitor run sees.
void BM_PlatformSimThousandRequestsMonitored(benchmark::State& state) {
  const WorkloadSpec wl = PyAesWorkload();
  const auto arrivals = PlatformArrivals();
  for (auto _ : state) {
    TimeSeries series(60 * kMicrosPerSec);
    EngineProfiler profiler;
    PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
    cfg.timeseries = &series;
    cfg.profiler = &profiler;
    PlatformSim sim(cfg, 5);
    const auto result = sim.Run(arrivals, wl);
    benchmark::DoNotOptimize(result.requests.size());
    benchmark::DoNotOptimize(series.window_count());
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_PlatformSimThousandRequestsMonitored);

void BM_HostSimSecond(benchmark::State& state) {
  HostSimConfig cfg;
  cfg.cores = 4;
  cfg.duration = 1LL * kMicrosPerSec;
  std::vector<TenantSpec> tenants(static_cast<size_t>(state.range(0)), {0.5, 1.0, 0.5});
  uint64_t seed = 1;
  for (auto _ : state) {
    const HostSimResult r = SimulateHost(cfg, tenants, seed++);
    benchmark::DoNotOptimize(r.host_utilization);
  }
}
BENCHMARK(BM_HostSimSecond)->Arg(4)->Arg(16)->Arg(64);

void BM_FleetSimDay(benchmark::State& state) {
  TraceGenConfig cfg;
  cfg.num_requests = state.range(0);
  cfg.num_functions = 500;
  const auto trace = TraceGenerator(cfg, 7).Generate();
  const BillingModel aws = MakeBillingModel(Platform::kAwsLambda);
  for (auto _ : state) {
    const FleetResult r = SimulateFleet(trace, aws, FleetSimConfig{});
    benchmark::DoNotOptimize(r.revenue);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FleetSimDay)->Arg(50'000);

// Traced counterpart of BM_FleetSimDay (USD-tagged spans), for the same
// overhead comparison. The sink lives across iterations as in a real
// `observe` run.
void BM_FleetSimDayTraced(benchmark::State& state) {
  TraceGenConfig cfg;
  cfg.num_requests = state.range(0);
  cfg.num_functions = 500;
  const auto trace = TraceGenerator(cfg, 7).Generate();
  const BillingModel aws = MakeBillingModel(Platform::kAwsLambda);
  SpanCollector spans;
  for (auto _ : state) {
    spans.Clear();
    FleetSimConfig fleet_cfg;
    fleet_cfg.trace_sink = &spans;
    const FleetResult r = SimulateFleet(trace, aws, fleet_cfg);
    benchmark::DoNotOptimize(r.revenue);
    benchmark::DoNotOptimize(spans.spans().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FleetSimDayTraced)->Arg(50'000);

// Audited counterpart of BM_FleetSimDay, for the integrity-overhead budget.
void BM_FleetSimDayAudited(benchmark::State& state) {
  TraceGenConfig cfg;
  cfg.num_requests = state.range(0);
  cfg.num_functions = 500;
  const auto trace = TraceGenerator(cfg, 7).Generate();
  const BillingModel aws = MakeBillingModel(Platform::kAwsLambda);
  for (auto _ : state) {
    Auditor auditor(AuditLevel::kFull);
    FleetSimConfig fleet_cfg;
    fleet_cfg.auditor = &auditor;
    const FleetResult r = SimulateFleet(trace, aws, fleet_cfg);
    benchmark::DoNotOptimize(r.revenue);
    benchmark::DoNotOptimize(auditor.checks_run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FleetSimDayAudited)->Arg(50'000);

// Monitored counterpart of BM_FleetSimDay, for the telemetry-overhead budget.
void BM_FleetSimDayMonitored(benchmark::State& state) {
  TraceGenConfig cfg;
  cfg.num_requests = state.range(0);
  cfg.num_functions = 500;
  const auto trace = TraceGenerator(cfg, 7).Generate();
  const BillingModel aws = MakeBillingModel(Platform::kAwsLambda);
  for (auto _ : state) {
    TimeSeries series(60 * kMicrosPerSec);
    EngineProfiler profiler;
    FleetSimConfig fleet_cfg;
    fleet_cfg.timeseries = &series;
    fleet_cfg.profiler = &profiler;
    const FleetResult r = SimulateFleet(trace, aws, fleet_cfg);
    benchmark::DoNotOptimize(r.revenue);
    benchmark::DoNotOptimize(series.window_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FleetSimDayMonitored)->Arg(50'000);

// Workflow-engine throughput: 200 five-hop chains with retries and 5%
// faults, the bench_cost_of_workflows working set. Items are hop executions.
void BM_WorkflowSimChains(benchmark::State& state) {
  WorkflowSimConfig cfg;
  HopSpec proto;
  cfg.dags.push_back(MakeChainDag("bench", 5, proto));
  cfg.workflows = 200;
  cfg.wps = 4.0;
  cfg.failure_rate = 0.05;
  cfg.init_failure_rate = 0.0125;
  cfg.policy.retry.max_attempts = 3;
  cfg.pricing = MakeWorkflowPricing(Platform::kAwsLambda);
  const BillingModel aws = MakeBillingModel(Platform::kAwsLambda);
  for (auto _ : state) {
    const WorkflowSimResult r = SimulateWorkflows(cfg, aws, 9);
    benchmark::DoNotOptimize(r.usd_total);
  }
  state.SetItemsProcessed(state.iterations() * 200 * 5);
}
BENCHMARK(BM_WorkflowSimChains);

}  // namespace
}  // namespace faascost

BENCHMARK_MAIN();
