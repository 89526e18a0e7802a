// faasbench: runs one benchmark workload once, in this process, and prints
// one JSON object describing it on stdout.
//
//   faasbench --workload <fleet-day|fleet-net|platform-churn|workflow-fanout>
//             --seed <n> --mode <untraced|traced|resume> [--size full|tiny]
//             [--run-id <id>]
//
// Modes:
//   untraced  the timed scenario with phase-level clock reads only (the
//             end-to-end pass: setup, four AdvanceUntil quarters, finish).
//   traced    the same scenario with a span around every public call, the
//             engine stepped in simulated-minute AdvanceUntil slices and (on
//             the fleet workloads) an EngineProfiler attached.
//   resume    fleet-day only: the resume-equivalence check. A straight run
//             checkpoints mid-day into memory; a fresh engine restores the
//             checkpoint and runs to the end; both digests must agree.
//
// The program calls only the public API of the simulator libraries. It does
// its own correctness checks (the repo's end-of-run audit rules and USD
// reconciliations) and reports them under "checks"; perfbench/run.py adds the
// cross-process checks (determinism, goldens, traced == untraced) and turns
// the output into metrics.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/billing/catalog.h"
#include "src/billing/model.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/common/wallclock.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/digest.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/obs/engine_profiler.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/trace/generator.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {
namespace {

// Stream id of the platform-churn arrival RNG, kept apart from the engine's
// own streams (src/common/stream_registry.h) so arrivals and faults are
// independent draws of the same seed.
constexpr uint64_t kArrivalStream = 64;

// Slice length of the traced pass: one simulated minute per AdvanceUntil.
constexpr MicroSecs kTraceSlice = 60 * kMicrosPerSec;

// One workload's scenario sizes. "tiny" is for the smoke test.
struct Sizes {
  int64_t fleet_requests = 1'000'000;
  int64_t fleet_functions = 2'000;
  MicroSecs fleet_window = 86'400 * kMicrosPerSec;
  MicroSecs fleet_outage = 7'200 * kMicrosPerSec;
  double platform_rps = 50.0;
  MicroSecs platform_window = 4'000 * kMicrosPerSec;
  int64_t workflows = 200'000;
  MicroSecs workflow_outage = 3'600 * kMicrosPerSec;
};

Sizes TinySizes() {
  Sizes s;
  s.fleet_requests = 20'000;
  s.fleet_functions = 200;
  s.fleet_window = 3'600 * kMicrosPerSec;
  s.fleet_outage = 600 * kMicrosPerSec;
  s.platform_rps = 20.0;
  s.platform_window = 200 * kMicrosPerSec;
  s.workflows = 2'000;
  s.workflow_outage = 120 * kMicrosPerSec;
  return s;
}

struct Args {
  std::string workload;
  std::string mode = "untraced";
  std::string size = "full";
  std::string run_id = "run";
  uint64_t seed = 1;
};

// Host-time spans recorded around calls into the simulator. Both passes
// record the phase spans the end-to-end metrics need; the traced pass adds
// per-slice and per-call spans under them.
class Recorder {
 public:
  explicit Recorder(bool traced) : traced_(traced) {}

  bool traced() const { return traced_; }

  int Open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Rec{std::move(name), MonotonicNanos(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }

  // Closes the innermost open span; returns its host nanoseconds.
  int64_t Close(int id) {
    Rec& r = spans_[static_cast<size_t>(id)];
    r.end_ns = MonotonicNanos();
    open_.pop_back();
    return r.end_ns - r.start_ns;
  }

  // Runs `f` inside a span and returns its host nanoseconds.
  int64_t Time(std::string name, const std::function<void()>& f) {
    const int id = Open(std::move(name));
    f();
    return Close(id);
  }

  void Write(JsonWriter& w) const {
    w.BeginArray();
    for (const Rec& r : spans_) {
      w.BeginObject();
      w.KV("name", r.name);
      w.KV("start_ns", r.start_ns);
      w.KV("end_ns", r.end_ns);
      w.KV("parent", r.parent);
      w.EndObject();
    }
    w.EndArray();
  }

 private:
  struct Rec {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };
  bool traced_;
  std::vector<Rec> spans_;
  std::vector<int> open_;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Everything one run reports besides its spans.
struct Report {
  int64_t requests = 0;      // Simulated requests (nominal hops for workflows).
  int64_t setup_ns = 0;      // Input generation + engine construction + Start.
  int64_t scenario_ns = 0;   // Whole timed scenario, setup included.
  // Host ns and requests per quarter of simulated time, behind
  // per_req_growth. workflow-fanout fills only [0], a quarter-length run, and
  // [3], the full run.
  int64_t quarter_ns[4] = {0, 0, 0, 0};
  int64_t quarter_reqs[4] = {0, 0, 0, 0};
  // Stats that must be identical across runs of one seed (and equal the
  // goldens at the default seed).
  std::vector<std::pair<std::string, std::string>> stats;
  // Deterministic per-layer counts.
  std::vector<std::pair<std::string, double>> counts;
  std::vector<Check> checks;

  // Counts one timed phase into the scenario; returns its nanoseconds.
  int64_t AddPhase(int64_t ns) {
    scenario_ns += ns;
    return ns;
  }
};

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string Bits(double v) { return Hex(std::bit_cast<uint64_t>(v)); }

// Runs an end-of-run rule and records it; a thrown IntegrityViolation (or any
// other exception) fails the check instead of ending the run.
void RunCheck(Report& rep, const std::string& name, const std::function<void()>& rule) {
  Check c{name, true, ""};
  try {
    rule();
  } catch (const std::exception& e) {
    c.ok = false;
    c.detail = e.what();
  }
  rep.checks.push_back(std::move(c));
}

void Expect(Report& rep, const std::string& name, bool ok, const std::string& detail) {
  rep.checks.push_back(Check{name, ok, ok ? "" : detail});
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Steps an engine through four quarters of `window` (the fourth also drains
// everything after the window) and times each quarter as one phase. The
// untraced pass makes one AdvanceUntil call per quarter; the traced pass
// slices every quarter into simulated minutes, one span per slice. `at_half`
// runs between the second and third quarter (the fleet-day checkpoint).
template <typename Engine>
void StepQuarters(Engine& engine, MicroSecs window, Recorder& rec, Report& rep,
                  const std::string& layer, const std::function<void()>& at_half) {
  for (int q = 0; q < 4; ++q) {
    const MicroSecs hi = window * (q + 1) / 4;
    const MicroSecs step = rec.traced() ? kTraceSlice : hi;
    const std::string quarter = layer + ".q" + std::to_string(q + 1);
    const int id = rec.Open(quarter);
    for (MicroSecs t = window * q / 4; t < hi;) {
      t = std::min(t + step, hi);
      rec.Time(layer + ".advance", [&] { engine.AdvanceUntil(t); });
    }
    if (q == 3) {
      rec.Time(layer + ".drain", [&] { engine.RunToEnd(); });
    }
    rep.quarter_ns[q] = rep.AddPhase(rec.Close(id));
    if (q == 1 && at_half) {
      at_half();
    }
  }
}

// Request counts per quarter from sorted arrival times (<= boundary, the
// AdvanceUntil contract).
void CountQuarters(const std::vector<MicroSecs>& arrivals, MicroSecs window, Report& rep) {
  int64_t prev = 0;
  for (int q = 0; q < 4; ++q) {
    const int64_t upto =
        q == 3 ? static_cast<int64_t>(arrivals.size())
               : std::upper_bound(arrivals.begin(), arrivals.end(), window * (q + 1) / 4) -
                     arrivals.begin();
    rep.quarter_reqs[q] = upto - prev;
    prev = upto;
  }
}

// ---------------------------------------------------------------- fleet ---

TraceGenConfig FleetTraceConfig(const Sizes& s, bool net) {
  TraceGenConfig tcfg;
  tcfg.num_requests = s.fleet_requests;
  tcfg.num_functions = s.fleet_functions;
  tcfg.window = s.fleet_window;
  if (net) {
    // `faascost network` defaults plus 5% failures.
    tcfg.payload_request_mean_kb = 16.0;
    tcfg.payload_response_mean_kb = 64.0;
    tcfg.failure_rate_mean = 0.05;
  }
  return tcfg;
}

FleetSimConfig FleetConfig(uint64_t seed, bool net) {
  FleetSimConfig fcfg;
  fcfg.fault_seed = seed;
  fcfg.retry.max_attempts = 3;
  if (!net) {
    // `faascost audit --sim fleet` defaults.
    fcfg.retry.breaker_threshold = 0;
    fcfg.host_faults.hosts = 16;
    fcfg.host_faults.mtbf_seconds = 3'600.0;
    fcfg.host_faults.mttr_seconds = 120.0;
    fcfg.host_faults.graceful_fraction = 0.3;
  }
  return fcfg;
}

NetworkModelConfig FleetNetConfig(const Sizes& s) {
  NetworkModelConfig ncfg;
  ncfg.topology.zones = 3;
  ncfg.topology.zones_per_region = 3;
  ncfg.class_a_ops_per_request = 1;
  ncfg.class_b_ops_per_request = 2;
  NetOutage outage;
  outage.zone = 0;
  outage.start = 10 * kMicrosPerSec;
  outage.duration = s.fleet_outage;
  ncfg.outages.push_back(outage);
  return ncfg;
}

void RunFleet(const Args& a, const Sizes& s, bool net, Recorder& rec, Report& rep) {
  const TraceGenConfig tcfg = FleetTraceConfig(s, net);
  FleetSimConfig fcfg = FleetConfig(a.seed, net);
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

  std::vector<RequestRecord> trace;
  const int64_t gen_ns = rep.AddPhase(
      rec.Time("trace.generate", [&] { trace = TraceGenerator(tcfg, a.seed).Generate(); }));

  // Sinks of the `faascost network` path, attached to the fleet-net engine.
  std::optional<NetworkModel> netmodel;
  SpanCollector sink;
  TimeSeries series(5 * kMicrosPerSec);
  if (net) {
    netmodel.emplace(FleetNetConfig(s), MakeNetworkPricing(Platform::kAwsLambda), a.seed);
    fcfg.network = &*netmodel;
    fcfg.trace_sink = &sink;
    fcfg.timeseries = &series;
  }
  EngineProfiler profiler;
  if (rec.traced()) {
    fcfg.profiler = &profiler;
  }

  FleetEngine engine(fcfg);
  const int64_t start_ns =
      rep.AddPhase(rec.Time("cluster.start", [&] { engine.Start(trace, billing); }));
  rep.setup_ns = gen_ns + start_ns;

  std::vector<MicroSecs> arrivals;
  arrivals.reserve(trace.size());
  for (const RequestRecord& r : trace) {
    arrivals.push_back(r.arrival);
  }
  CountQuarters(arrivals, tcfg.window, rep);
  arrivals = {};

  // fleet-day: one mid-day checkpoint into memory, as `audit --checkpoint-at`
  // would write it, minus the disk.
  size_t checkpoint_bytes = 0;
  const auto checkpoint = [&] {
    rep.AddPhase(rec.Time("integrity.checkpoint", [&] {
      JsonWriter w;
      engine.SaveState(w);
      checkpoint_bytes = w.str().size();
    }));
  };
  StepQuarters(engine, tcfg.window, rec, rep, "cluster",
               net ? std::function<void()>() : std::function<void()>(checkpoint));

  // fleet-net's CLI path takes no digest: there it is a golden stat only.
  uint64_t digest = 0;
  const int64_t digest_ns = rec.Time(net ? "check.digest" : "integrity.digest",
                                     [&] { digest = engine.Digest(); });
  if (!net) {
    rep.AddPhase(digest_ns);
  }
  FleetResult res;
  rep.AddPhase(rec.Time("cluster.finish", [&] { res = engine.Finish(); }));

  if (net) {
    // The `faascost network` acceptance gates are part of the scenario.
    BilledReconciliation xfer;
    BilledReconciliation priced;
    rep.AddPhase(rec.Time("obs.reconcile", [&] {
      xfer = ReconcileTransferUsd(series, sink.spans());
      priced = ReconcileBilledUsd(series, sink.spans());
    }));
    const NetworkBill& bill = netmodel->bill();
    Expect(rep, "obs.reconcile_transfer_usd", xfer.ok,
           "first mismatching window " + std::to_string(xfer.first_mismatch_window));
    Expect(rep, "obs.reconcile_billed_usd", priced.ok,
           "first mismatching window " + std::to_string(priced.first_mismatch_window));
    Expect(rep, "net.meter_vs_engine",
           res.net_transfers == bill.transfers && res.net_bytes == series.TotalNetBytes(),
           "meter " + std::to_string(bill.transfers) + " transfers vs engine " +
               std::to_string(res.net_transfers));
    int64_t bytes = 0;
    for (int c = 0; c < kTransferClassCount; ++c) {
      bytes += bill.bytes[c];
    }
    rep.counts.emplace_back("net.transfers", static_cast<double>(bill.transfers));
    rep.counts.emplace_back("net.rerouted", static_cast<double>(bill.rerouted_transfers));
    rep.counts.emplace_back("net.gb",
                            static_cast<double>(bytes) / static_cast<double>(kBytesPerGb));
    rep.counts.emplace_back("obs.spans", static_cast<double>(sink.spans().size()));
    rep.counts.emplace_back("obs.span_mb", static_cast<double>(sink.spans().size()) *
                                               static_cast<double>(sizeof(Span)) /
                                               (1024.0 * 1024.0));
    rep.counts.emplace_back("obs.windows", static_cast<double>(series.window_count()));
    rep.stats.emplace_back("network_usd_bits", Bits(bill.TotalUsd()));
    rep.stats.emplace_back("net_transfers", std::to_string(bill.transfers));
  }

  Auditor auditor(AuditLevel::kFull);
  RunCheck(rep, "integrity.audit_fleet_run", [&] { AuditFleetRun(res, fcfg, auditor); });

  rep.requests = static_cast<int64_t>(trace.size());
  rep.stats.emplace_back("state_digest", Hex(digest));
  rep.stats.emplace_back("attempts", std::to_string(res.attempts));
  rep.stats.emplace_back("cold_starts", std::to_string(res.cold_starts));
  rep.stats.emplace_back("successes", std::to_string(res.successes));
  rep.stats.emplace_back("billed_usd_bits", Bits(res.revenue));

  rep.counts.emplace_back("trace.records", static_cast<double>(trace.size()));
  rep.counts.emplace_back("cluster.attempts", static_cast<double>(res.attempts));
  rep.counts.emplace_back("cluster.sandboxes", static_cast<double>(res.sandboxes));
  rep.counts.emplace_back("cluster.cold_starts", static_cast<double>(res.cold_starts));
  rep.counts.emplace_back("cluster.success_ratio",
                          Ratio(static_cast<double>(res.successes),
                                static_cast<double>(res.requests)));
  if (!net) {
    rep.counts.emplace_back("integrity.checkpoint_mb",
                            static_cast<double>(checkpoint_bytes) / (1024.0 * 1024.0));
  }
  if (rec.traced()) {
    rep.counts.emplace_back("cluster.queue_peak",
                            static_cast<double>(profiler.queue_depth_peak()));
  }
}

// fleet-day resume equivalence: straight run with a mid-day checkpoint vs a
// fresh engine restored from it. Outside any timed scenario.
void RunFleetResume(const Args& a, const Sizes& s, Recorder& rec, Report& rep) {
  const TraceGenConfig tcfg = FleetTraceConfig(s, false);
  const FleetSimConfig fcfg = FleetConfig(a.seed, false);
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, a.seed).Generate();

  std::string state;
  uint64_t checkpoint_digest = 0;
  uint64_t straight_digest = 0;
  Usd straight_usd = 0.0;
  {
    FleetEngine engine(fcfg);
    engine.Start(trace, billing);
    engine.AdvanceUntil(tcfg.window / 2);
    JsonWriter w;
    engine.SaveState(w);
    state = w.str();
    checkpoint_digest = engine.Digest();
    engine.RunToEnd();
    straight_digest = engine.Digest();
    straight_usd = engine.Finish().revenue;
  }

  FleetEngine resumed(fcfg);
  uint64_t restored_digest = 0;
  uint64_t resumed_digest = 0;
  Usd resumed_usd = 0.0;
  RunCheck(rep, "integrity.resume_runs", [&] {
    const JsonValue parsed = ParseJson(state);
    state = {};
    rec.Time("integrity.resume", [&] {
      resumed.Resume(trace, billing, parsed);
      restored_digest = resumed.Digest();
      resumed.RunToEnd();
    });
    resumed_digest = resumed.Digest();
    resumed_usd = resumed.Finish().revenue;
  });
  Expect(rep, "integrity.resume_restored_digest", restored_digest == checkpoint_digest,
         "restored " + Hex(restored_digest) + " vs checkpoint " + Hex(checkpoint_digest));
  Expect(rep, "integrity.resume_final_digest", resumed_digest == straight_digest,
         "resumed " + Hex(resumed_digest) + " vs straight " + Hex(straight_digest));
  Expect(rep, "integrity.resume_billed_usd",
         std::bit_cast<uint64_t>(resumed_usd) == std::bit_cast<uint64_t>(straight_usd),
         "resumed " + Bits(resumed_usd) + " vs straight " + Bits(straight_usd));
  rep.requests = static_cast<int64_t>(trace.size());
  rep.stats.emplace_back("state_digest", Hex(straight_digest));
  rep.stats.emplace_back("billed_usd_bits", Bits(straight_usd));
}

// ------------------------------------------------------------- platform ---

void RunPlatform(const Args& a, const Sizes& s, Recorder& rec, Report& rep) {
  // `faascost audit --sim platform` on AWS with --rate 0.05 --retries 3.
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1769.0);
  cfg.faults.crash_prob = 0.05;
  cfg.faults.init_failure_prob = 0.05 / 4.0;
  cfg.retry.max_attempts = 3;
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

  std::vector<MicroSecs> arrivals;
  const int64_t gen_ns = rec.Time("platform.arrivals", [&] {
    Rng rng(DeriveSeed(a.seed, kArrivalStream));
    arrivals = PoissonArrivals(s.platform_rps, s.platform_window, rng);
  });
  std::unique_ptr<PlatformEngine> engine;
  const int64_t start_ns = rec.Time("platform.start", [&] {
    engine = std::make_unique<PlatformEngine>(cfg, a.seed);
    engine->Start(arrivals, PyAesWorkload());
  });
  rep.setup_ns = rep.AddPhase(gen_ns) + rep.AddPhase(start_ns);
  CountQuarters(arrivals, s.platform_window, rep);

  StepQuarters(*engine, s.platform_window, rec, rep, "platform", {});
  uint64_t digest = 0;
  rep.AddPhase(rec.Time("integrity.digest", [&] { digest = engine->Digest(); }));
  PlatformSimResult res;
  rep.AddPhase(rec.Time("platform.finish", [&] { res = engine->Finish(); }));

  // The post-run rebill, as `audit --sim platform` prices every attempt.
  Usd total = 0.0;
  rep.AddPhase(rec.Time("billing.rebill", [&] {
    for (const AttemptOutcome& att : res.attempts) {
      total += ComputeInvoice(billing, BillableRecord(att, cfg.vcpus, cfg.mem_mb)).total;
    }
  }));

  Auditor auditor(AuditLevel::kFull);
  RunCheck(rep, "integrity.audit_platform_run",
           [&] { AuditPlatformRun(res, cfg, a.seed, auditor, &billing, total); });

  rep.requests = static_cast<int64_t>(arrivals.size());
  rep.stats.emplace_back("state_digest", Hex(digest));
  rep.stats.emplace_back("attempts", std::to_string(res.attempts.size()));
  rep.stats.emplace_back("cold_starts", std::to_string(res.cold_starts));
  rep.stats.emplace_back("successes", std::to_string(res.successes));
  rep.stats.emplace_back("billed_usd_bits", Bits(total));

  rep.counts.emplace_back("platform.sandboxes_created",
                          static_cast<double>(res.sandboxes.size()));
  rep.counts.emplace_back("platform.attempts", static_cast<double>(res.attempts.size()));
  rep.counts.emplace_back("platform.cold_starts", static_cast<double>(res.cold_starts));
  rep.counts.emplace_back("platform.success_ratio",
                          Ratio(static_cast<double>(res.successes),
                                static_cast<double>(res.requests.size())));
  rep.counts.emplace_back("billing.invoices", static_cast<double>(res.attempts.size()));
}

// ------------------------------------------------------------- workflow ---

constexpr int kFanOutHops = 6;

// `faascost workflows --archetype fanout --hops 6 --quorum 4 --wps 4
// --rate 0.05 --retries 3 --zones 3 --outage-zone 1 --hedge-ms 600`.
WorkflowSimConfig WorkflowConfig(int64_t workflows, MicroSecs outage_len) {
  WorkflowSimConfig cfg;
  cfg.workflows = workflows;
  cfg.wps = 4.0;
  cfg.zones = 3;
  cfg.failure_rate = 0.05;
  cfg.init_failure_rate = cfg.failure_rate / 4.0;
  cfg.pricing = MakeWorkflowPricing(Platform::kAwsLambda);
  HopSpec proto;
  proto.exec_mean = MillisToMicros(80.0);
  cfg.dags.push_back(MakeFanOutDag("fanout", kFanOutHops, 4, proto));
  cfg.policy.retry.max_attempts = 3;
  cfg.policy.hedge.hedge_after = MillisToMicros(600.0);
  cfg.policy.redrive.max_redrives = 2;
  ZonalOutageSpec outage;
  outage.zone = 1;
  outage.start = 10 * kMicrosPerSec;
  outage.duration = outage_len;
  cfg.outages.push_back(outage);
  return cfg;
}

// Workflow inputs are a config, so one build takes microseconds: too short to
// time alone against clock and scheduler granularity. Blocks of builds are
// timed instead, and the fastest block's time per build is reported. On a
// shared host the same block runs up to 2x slower for spells of up to a few
// seconds, so blocks are timed before the run and again after each later step
// of the process. A block lasts well under a millisecond, so within a process
// the fastest one is the steady estimate of the work itself; run.py then takes
// the median over processes, as for every other metric.
constexpr int kWorkflowSetupBlocks = 100;
constexpr int kWorkflowSetupBlockBuilds = 64;

// Builds the workflow inputs into `cfg` and `billing` over and over; returns
// the fastest block's nanoseconds per build.
int64_t BuildWorkflowInputs(const Sizes& s, WorkflowSimConfig& cfg, BillingModel& billing) {
  int64_t best = INT64_MAX;
  for (int b = 0; b < kWorkflowSetupBlocks; ++b) {
    bool valid = true;
    const int64_t t0 = MonotonicNanos();
    for (int i = 0; i < kWorkflowSetupBlockBuilds; ++i) {
      cfg = WorkflowConfig(s.workflows, s.workflow_outage);
      billing = MakeBillingModel(Platform::kAwsLambda);
      valid = valid && cfg.Validate().empty();
    }
    best = std::min(best, MonotonicNanos() - t0);
    if (!valid) {
      std::fprintf(stderr, "faasbench: invalid workflow config\n");
      std::exit(2);
    }
  }
  return best / kWorkflowSetupBlockBuilds;
}

void RunWorkflow(const Args& a, const Sizes& s, Recorder& rec, Report& rep) {
  WorkflowSimConfig cfg;
  BillingModel billing;
  int64_t setup_ns = 0;
  rec.Time("workflow.setup", [&] { setup_ns = BuildWorkflowInputs(s, cfg, billing); });
  WorkflowSimConfig spare_cfg;
  BillingModel spare_billing;
  const auto resample_setup = [&] {
    setup_ns = std::min(setup_ns, BuildWorkflowInputs(s, spare_cfg, spare_billing));
  };

  // The workflow engine has no AdvanceUntil, so its growth figure compares
  // the full run with a quarter-length one, per nominal hop. The quarter-length
  // run goes once before the full run and once after the audit, and the growth
  // figure takes their mean, so a host that gets slower or faster over the
  // process cancels out of it.
  WorkflowSimConfig quarter = cfg;
  quarter.workflows = cfg.workflows / 4;
  const auto run_quarter = [&] {
    return rec.Time("workflow.run_quarter_length",
                    [&] { SimulateWorkflows(quarter, billing, a.seed); });
  };
  const int64_t quarter_before_ns = run_quarter();
  resample_setup();

  WorkflowSimResult res;
  const int64_t run_ns =
      rec.Time("workflow.run", [&] { res = SimulateWorkflows(cfg, billing, a.seed); });
  rep.AddPhase(run_ns);
  resample_setup();
  Auditor auditor(AuditLevel::kFull);
  rep.AddPhase(rec.Time("workflow.audit", [&] {
    RunCheck(rep, "integrity.audit_workflow_run",
             [&] { AuditWorkflowRun(res, cfg, a.seed, auditor, billing); });
  }));
  resample_setup();
  rep.requests = cfg.workflows * kFanOutHops;

  const int64_t quarter_after_ns = run_quarter();
  resample_setup();
  rep.quarter_ns[0] = (quarter_before_ns + quarter_after_ns) / 2;
  rep.quarter_reqs[0] = quarter.workflows * kFanOutHops;
  rep.quarter_ns[3] = run_ns;
  rep.quarter_reqs[3] = rep.requests;
  rep.setup_ns = rep.AddPhase(setup_ns);

  StateDigest d;
  d.MixI64(static_cast<int64_t>(res.attempts.size()));
  for (const HopAttempt& h : res.attempts) {
    d.MixI64(h.wf);
    d.MixI64(h.hop);
    d.MixI64(static_cast<int64_t>(h.attempt.outcome));
    d.MixI64(h.attempt.dispatched);
    d.MixI64(h.attempt.end);
    d.MixDouble(h.usd);
  }
  for (const WorkflowRow& w : res.workflows) {
    d.MixI64(static_cast<int64_t>(w.outcome));
    d.MixI64(w.end);
    d.MixDouble(w.usd);
  }
  const WorkflowCounters& c = res.counters;
  rep.stats.emplace_back("result_digest", Hex(d.value()));
  rep.stats.emplace_back("attempts", std::to_string(res.attempts.size()));
  rep.stats.emplace_back("cold_starts", std::to_string(c.cold_starts));
  rep.stats.emplace_back("succeeded", std::to_string(c.workflows_succeeded));
  rep.stats.emplace_back("billed_usd_bits", Bits(res.usd_total));

  rep.counts.emplace_back("workflow.attempts", static_cast<double>(res.attempts.size()));
  rep.counts.emplace_back("workflow.dispatched", static_cast<double>(c.dispatched_attempts));
  rep.counts.emplace_back("workflow.hedges", static_cast<double>(c.hedges));
  rep.counts.emplace_back("workflow.useful_usd_ratio", Ratio(res.usd_useful, res.usd_total));
}

// ----------------------------------------------------------------- main ---

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--mode") {
      a->mode = val;
    } else if (key == "--size") {
      a->size = val;
    } else if (key == "--run-id") {
      a->run_id = val;
    } else if (key == "--seed") {
      char* end = nullptr;
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') {
        return false;
      }
    } else {
      return false;
    }
  }
  const bool known = a->workload == "fleet-day" || a->workload == "fleet-net" ||
                     a->workload == "platform-churn" || a->workload == "workflow-fanout";
  const bool mode_ok = a->mode == "untraced" || a->mode == "traced" ||
                       (a->mode == "resume" && a->workload == "fleet-day");
  return argc % 2 == 1 && known && mode_ok && (a->size == "full" || a->size == "tiny");
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: faasbench --workload <fleet-day|fleet-net|platform-churn|"
                 "workflow-fanout> --seed N --mode <untraced|traced|resume> "
                 "[--size full|tiny] [--run-id ID]\n");
    return 2;
  }
  const Sizes sizes = a.size == "tiny" ? TinySizes() : Sizes{};
  Recorder rec(a.mode == "traced");
  Report rep;
  if (a.mode == "resume") {
    RunFleetResume(a, sizes, rec, rep);
  } else if (a.workload == "fleet-day" || a.workload == "fleet-net") {
    RunFleet(a, sizes, a.workload == "fleet-net", rec, rep);
  } else if (a.workload == "platform-churn") {
    RunPlatform(a, sizes, rec, rep);
  } else {
    RunWorkflow(a, sizes, rec, rep);
  }

  JsonWriter w;
  w.BeginObject();
  w.KV("workload", a.workload);
  w.KV("mode", a.mode);
  w.KV("size", a.size);
  w.KV("run_id", a.run_id);
  w.KV("seed", a.seed);
  w.KV("requests", rep.requests);
  w.KV("setup_ns", rep.setup_ns);
  w.KV("scenario_ns", rep.scenario_ns);
  w.Key("quarter_ns");
  w.BeginArray();
  for (const int64_t v : rep.quarter_ns) {
    w.Value(v);
  }
  w.EndArray();
  w.Key("quarter_reqs");
  w.BeginArray();
  for (const int64_t v : rep.quarter_reqs) {
    w.Value(v);
  }
  w.EndArray();
  w.KV("peak_rss_mb", PeakRssMb());
  w.Key("stats");
  w.BeginObject();
  for (const auto& [k, v] : rep.stats) {
    w.KV(k, v);
  }
  w.EndObject();
  w.Key("counts");
  w.BeginObject();
  for (const auto& [k, v] : rep.counts) {
    w.KV(k, v);
  }
  w.EndObject();
  w.Key("checks");
  w.BeginArray();
  for (const Check& c : rep.checks) {
    w.BeginObject();
    w.KV("name", c.name);
    w.KV("ok", c.ok);
    w.KV("detail", c.detail);
    w.EndObject();
  }
  w.EndArray();
  w.Key("spans");
  rec.Write(w);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace faascost

int main(int argc, char** argv) { return faascost::Main(argc, argv); }
