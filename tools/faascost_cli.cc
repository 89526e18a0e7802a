// faascost command-line tool: billing, auditing, rightsizing and trace
// generation from the shell.
//
//   faascost bill      --platform aws --exec-ms 150 --cpu-ms 80
//                      --vcpus 1 --mem-mb 1769 [--init-ms 400] [--used-mem-mb 300]
//   faascost cost      [--trace file.csv] [--requests N] [--functions N] [--seed S]
//   faascost audit     --sim platform|fleet [--audit-level off|basic|full]
//                      [--checkpoint f.json --checkpoint-every N|--checkpoint-at N]
//                      [--resume f.json] [--scan-cadence N] [--seed S] [--json]
//                      (platform: the `failures` scenario flags but --timeout-ms;
//                       fleet: the `chaos` ones but --zones, --zone-outage-mtbf-s)
//   faascost rightsize --cpu-ms 160 --slo-ms 500 [--platform aws|gcp]
//                      [--mem-mb N (gcp)] [--seed S]
//   faascost generate  --out file.csv [--requests N] [--functions N] [--seed S]
//   faascost failures  --platform aws --rate 0.05 --retries 3 [--rps N]
//                      [--seconds N] [--timeout-ms N] [--seed S]
//   faascost chaos     --platform aws --hosts 16 --mtbf-s 3600 [--mttr-s N]
//                      [--zones N] [--zone-outage-mtbf-s N] [--graceful F]
//                      [--breaker-threshold N] [--retries N] [--requests N]
//                      [--functions N] [--seconds N] [--seed S]
//   faascost observe   --out DIR [--platform P] [--rps N] [--seconds N]
//                      [--rate R] [--retries N] [--cotenants N] [--seed S]
//   faascost monitor   --out DIR [--sim fleet|platform] [--window SECONDS]
//                      [--slo MS --slo-target F] [--fast-windows N]
//                      [--slow-windows N] [--fast-burn X] [--slow-burn X]
//                      [--profile-engine] [--platform P] [--seed S]
//                      (fleet: [--requests N] [--functions N] [--seconds N]
//                       [--hosts N] [--mtbf-s N] [--mttr-s N] [--graceful F]
//                       [--retries N]; platform: [--rps N] [--seconds N]
//                       [--rate R] [--retries N])
//   faascost workflows --archetype chain|fanout|mapreduce [--hops N]
//                      [--workflows N] [--wps R] [--rate R] [--init-fail-rate R]
//                      [--exec-ms N] [--retries N]
//                      [--timeout-ms N] [--deadline-ms N] [--no-propagate]
//                      [--hedge-ms N] [--async --async-redrives N] [--quorum K]
//                      [--zones N --outage-zone Z --outage-start-s S
//                       --outage-seconds N] [--breaker-threshold N]
//                      [--platform P] [--audit-level L] [--seed S] [--json]
//   faascost network   [--platform P] [--requests N] [--functions N]
//                      [--seconds N] [--zones N] [--zones-per-region N]
//                      [--req-kb K] [--resp-kb K] [--class-a N] [--class-b N]
//                      [--rate R] [--retries N] [--outage-zone Z
//                       --outage-start-s S --outage-seconds N] [--window S]
//                      [--seed S] [--json]
//   faascost platforms
//
// `failures`, `chaos`, `workflows`, `network` and `audit` accept --json for
// machine-readable output.
//
// Exit status (src/cli/exit_codes.h, documented in README): 0 on success,
// 1 on usage errors (including a flag the command does not read, a stray
// argument, a nan or inf number, and a duration that overflows int64
// microseconds), 2 when an integrity invariant or a bit-for-bit USD
// reconciliation fails mid-run (IntegrityViolation), 3 on a malformed or
// mismatched checkpoint / unparseable artifact (CheckpointError).

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/billing/analysis.h"
#include "src/billing/catalog.h"
#include "src/billing/tiered.h"
#include "src/cli/exit_codes.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/chart.h"
#include "src/common/json_writer.h"
#include "src/common/table.h"
#include "src/core/observe.h"
#include "src/core/rightsizing.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/checkpoint.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/obs/engine_profiler.h"
#include "src/obs/exporters.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/sched/host_sim.h"
#include "src/trace/generator.h"
#include "src/trace/io.h"
#include "src/workflow/dag.h"
#include "src/workflow/policy.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {
namespace {

// A bad flag, flag combination or config value. Main prints each line of the
// message as "<command>: <line>" and exits 1 (cli::kUsage), so the flag
// readers below report an error by throwing it.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Minimal --flag value parser. Every lookup is recorded, so a subcommand can
// reject, before it runs, a flag it never read: a typo such as --hostz, or a
// flag that has no effect with the others given.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        extra_.push_back(key);
        continue;
      }
      // A flag followed by another flag (or nothing) is boolean-valued:
      // `--json --platform aws` must not swallow `--platform` as a value.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key.substr(2)] = argv[++i];
      } else {
        values_[key.substr(2)] = "true";
      }
    }
  }

  std::optional<std::string> Get(const std::string& key) const {
    read_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

  // Present (bare `--flag` or with any value other than false/0).
  bool GetBool(const std::string& key) const {
    const auto v = Get(key);
    return v.has_value() && *v != "false" && *v != "0";
  }

  // Numeric flags are parsed strictly (no atof/atoll: those report neither
  // garbage nor overflow). A malformed value aborts with a usage error
  // instead of silently running the experiment with 0, and so does nan or
  // inf: no flag has a meaning for them, and they slip past range checks
  // written as `x <= 0`.
  double GetDouble(const std::string& key, double fallback) const {
    const auto v = Get(key);
    if (!v.has_value()) {
      return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    const bool malformed = end == v->c_str() || *end != '\0' || errno == ERANGE;
    if (malformed || !std::isfinite(parsed)) {
      std::fprintf(stderr, "faascost: --%s expects a %s, got '%s'\n", key.c_str(),
                   malformed ? "number" : "finite number", v->c_str());
      std::exit(1);
    }
    return parsed;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const auto v = Get(key);
    if (!v.has_value()) {
      return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "faascost: --%s expects an integer, got '%s'\n",
                   key.c_str(), v->c_str());
      std::exit(1);
    }
    return parsed;
  }

  // A whole-seconds duration flag: exits 1 with a usage error when the value
  // times kMicrosPerSec would overflow MicroSecs, so callers can convert it
  // without wrapping to a bogus (often negative) duration.
  int64_t GetSeconds(const std::string& key, int64_t fallback) const {
    const int64_t secs = GetInt(key, fallback);
    constexpr int64_t kMax = std::numeric_limits<MicroSecs>::max() / kMicrosPerSec;
    if (secs > kMax || secs < -kMax) {
      std::fprintf(stderr, "faascost: --%s %lld is out of range (overflows in microseconds)\n",
                   key.c_str(), static_cast<long long>(secs));
      std::exit(1);
    }
    return secs;
  }

  // A fractional duration flag in `-ms` or `-s` units, `micros_per_unit`
  // microseconds each: exits 1 with a usage error when the value in
  // microseconds would not fit MicroSecs, so MillisToMicros/SecsToMicros
  // never cast out of range.
  double GetDuration(const std::string& key, double fallback, MicroSecs micros_per_unit) const {
    const double value = GetDouble(key, fallback);
    // 2^63 is exact in a double; a product at or past it overflows the cast.
    constexpr double kLimit = 0x1p63;
    if (!(std::fabs(value * static_cast<double>(micros_per_unit)) < kLimit)) {
      std::fprintf(stderr, "faascost: --%s %g is out of range (overflows in microseconds)\n",
                   key.c_str(), value);
      std::exit(1);
    }
    return value;
  }

  // Called by each subcommand once it has read all of its flags, before it
  // runs or prints anything: a positional argument or a flag that was never
  // read is a usage error.
  void RequireAllRead() const {
    if (!extra_.empty()) {
      throw UsageError("unexpected argument '" + extra_.front() + "'");
    }
    for (const auto& entry : values_) {
      if (read_.count(entry.first) == 0) {
        throw UsageError("unknown flag --" + entry.first +
                         ", or it has no effect with the flags given");
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> extra_;
  mutable std::set<std::string> read_;  // Keys looked up so far.
};

// Short names accepted by --platform; `faascost platforms` lists them.
constexpr std::pair<const char*, Platform> kPlatformNames[] = {
    {"aws", Platform::kAwsLambda},
    {"gcp", Platform::kGcpCloudRunFunctions},
    {"azure", Platform::kAzureConsumption},
    {"azure-flex", Platform::kAzureFlexConsumption},
    {"ibm", Platform::kIbmCodeEngine},
    {"huawei", Platform::kHuaweiFunctionGraph},
    {"alibaba", Platform::kAlibabaFunctionCompute},
    {"oracle", Platform::kOracleFunctions},
    {"vercel", Platform::kVercelFunctions},
    {"cloudflare", Platform::kCloudflareWorkers},
};

// --platform (default aws), one of kPlatformNames.
Platform ReadPlatform(const Flags& flags) {
  const std::string name = flags.Get("platform").value_or("aws");
  for (const auto& [short_name, platform] : kPlatformNames) {
    if (name == short_name) {
      return platform;
    }
  }
  throw UsageError("unknown platform '" + name + "'");
}

// Throws the config's Validate() errors, one per line, so that bad flag
// values surface as CLI messages rather than a simulator constructor's.
void RequireValid(const std::vector<std::string>& errors) {
  if (errors.empty()) {
    return;
  }
  std::string message;
  for (const std::string& err : errors) {
    message += (message.empty() ? "" : "\n") + err;
  }
  throw UsageError(message);
}

template <typename T>
void RequirePositive(const char* flag, T value) {
  if (value <= 0) {
    throw UsageError(std::string("--") + flag + " must be > 0");
  }
}

// --requests and --functions (per-command defaults) of a synthetic trace.
TraceGenConfig ReadTraceShape(const Flags& flags, int64_t requests, int64_t functions) {
  TraceGenConfig cfg;
  cfg.num_requests = flags.GetInt("requests", requests);
  cfg.num_functions = flags.GetInt("functions", functions);
  RequirePositive("requests", cfg.num_requests);
  RequirePositive("functions", cfg.num_functions);
  return cfg;
}

int CmdPlatforms(const Flags& flags) {
  flags.RequireAllRead();
  TextTable t({"Short name", "Platform", "Billable time", "Fee"});
  for (const auto& [name, p] : kPlatformNames) {
    const BillingModel m = MakeBillingModel(p);
    const char* time_kind = m.billable_time == BillableTime::kTurnaround ? "turnaround"
                            : m.billable_time == BillableTime::kExecution
                                ? "execution"
                                : "consumed CPU";
    t.AddRow({name, m.platform, time_kind,
              m.invocation_fee > 0 ? FormatSci(m.invocation_fee, 1) : "none"});
  }
  std::printf("%s", t.Render().c_str());
  return 0;
}

int CmdBill(const Flags& flags) {
  if (!flags.Get("platform").has_value()) {
    throw UsageError("--platform is required (see 'faascost platforms')");
  }
  const Platform platform = ReadPlatform(flags);
  RequestRecord r;
  r.exec_duration = MillisToMicros(flags.GetDuration("exec-ms", 100.0, kMicrosPerMilli));
  r.cpu_time = MillisToMicros(flags.GetDuration("cpu-ms", 50.0, kMicrosPerMilli));
  r.alloc_vcpus = flags.GetDouble("vcpus", 1.0);
  r.alloc_mem_mb = flags.GetDouble("mem-mb", 1'024.0);
  r.used_mem_mb = flags.GetDouble("used-mem-mb", r.alloc_mem_mb / 4.0);
  r.init_duration = MillisToMicros(flags.GetDuration("init-ms", 0.0, kMicrosPerMilli));
  r.cold_start = r.init_duration > 0;
  flags.RequireAllRead();

  const BillingModel model = MakeBillingModel(platform);
  const SnappedAllocation alloc = SnapAllocation(model, r.alloc_vcpus, r.alloc_mem_mb);
  const Invoice inv = ComputeInvoice(model, r);

  std::printf("Platform: %s\n", model.platform.c_str());
  std::printf("Snapped allocation:   %.3f vCPUs, %.0f MB\n", alloc.vcpus, alloc.mem_mb);
  std::printf("Billable time:        %.3f ms\n", MicrosToMillis(inv.billable_time));
  std::printf("Billable vCPU-time:   %.6f vCPU-s\n", inv.billable_vcpu_seconds);
  std::printf("Billable memory:      %.6f GB-s\n", inv.billable_gb_seconds);
  std::printf("Resource cost:        $%.4g\n", inv.resource_cost);
  std::printf("Invocation fee:       $%.4g\n", inv.invocation_cost);
  std::printf("Total:                $%.4g\n", inv.total);
  std::printf("Per million requests: $%.2f\n", inv.total * 1e6);
  return 0;
}

int CmdCost(const Flags& flags) {
  std::vector<RequestRecord> trace;
  const auto path = flags.Get("trace");
  if (path.has_value()) {
    flags.RequireAllRead();
    size_t skipped = 0;
    trace = ReadTraceCsvFile(*path, &skipped);
    if (trace.empty()) {
      std::fprintf(stderr, "cost: no records read from %s\n", path->c_str());
      return 1;
    }
    std::printf("Read %zu records (%zu skipped) from %s\n", trace.size(), skipped,
                path->c_str());
  } else {
    const TraceGenConfig cfg = ReadTraceShape(flags, 200'000, 1'000);
    const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    flags.RequireAllRead();
    std::printf("Generating %lld synthetic requests...\n",
                static_cast<long long>(cfg.num_requests));
    trace = TraceGenerator(cfg, seed).Generate();
  }

  TextTable t({"Platform", "total $", "$ / 1k requests", "fees share", "CPU inflation",
               "memory inflation"});
  for (Platform p : AllPlatforms()) {
    const BillingModel m = MakeBillingModel(p);
    Usd resource = 0.0;
    Usd fees = 0.0;
    for (const auto& r : trace) {
      const Invoice inv = ComputeInvoice(m, r);
      resource += inv.resource_cost;
      fees += inv.invocation_cost;
    }
    const InflationResult infl = AnalyzeInflation(m, trace);
    const Usd total = resource + fees;
    t.AddRow({m.platform, FormatDouble(total, 4),
              FormatDouble(total / static_cast<double>(trace.size()) * 1'000.0, 6),
              FormatPercent(total > 0 ? fees / total : 0, 1),
              FormatDouble(infl.cpu_inflation, 2) + "x",
              infl.mem_inflation > 0 ? FormatDouble(infl.mem_inflation, 2) + "x"
                                     : std::string("-")});
  }
  std::printf("%s", t.Render().c_str());
  return 0;
}

int CmdRightsize(const Flags& flags) {
  const std::string platform = flags.Get("platform").value_or("aws");
  const MicroSecs cpu_demand =
      MillisToMicros(flags.GetDuration("cpu-ms", 160.0, kMicrosPerMilli));
  const double slo_ms = flags.GetDouble("slo-ms", 1'000.0);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  if (platform == "aws") {
    flags.RequireAllRead();
    RightsizingConfig cfg;
    cfg.cpu_demand = cpu_demand;
    cfg.latency_slo_ms = slo_ms;
    const RightsizingResult r =
        RightsizeAwsMemory(cfg, MakeBillingModel(Platform::kAwsLambda), seed);
    std::printf("AWS Lambda, %.0f ms CPU, SLO %.0f ms:\n",
                MicrosToMillis(cpu_demand), slo_ms);
    std::printf("  recommended memory: %.0f MB (%.1f ms, $%.4g per invocation)\n",
                r.best.mem_mb, r.best.mean_duration_ms, r.best.cost_per_invocation);
    std::printf("  reciprocal-model pick: %.0f MB ($%.4g real)\n", r.model_choice.mem_mb,
                r.model_choice.cost_per_invocation);
    std::printf("  savings from quantization-awareness: %.2f%%\n",
                r.savings_fraction * 100.0);
    return 0;
  }
  if (platform == "gcp") {
    GcpRightsizingConfig cfg;
    cfg.cpu_demand = cpu_demand;
    cfg.latency_slo_ms = slo_ms;
    cfg.mem_mb = flags.GetDouble("mem-mb", 512.0);
    flags.RequireAllRead();
    const RightsizingResult r =
        RightsizeGcpCpu(cfg, MakeBillingModel(Platform::kGcpCloudRunFunctions), seed);
    std::printf("GCP, %.0f ms CPU at %.0f MB, SLO %.0f ms:\n",
                MicrosToMillis(cpu_demand), cfg.mem_mb, slo_ms);
    std::printf("  recommended CPU: %.2f vCPUs (%.1f ms, $%.4g per invocation)\n",
                r.best.vcpu_fraction, r.best.mean_duration_ms, r.best.cost_per_invocation);
    std::printf("  reciprocal-model pick: %.2f vCPUs ($%.4g real)\n",
                r.model_choice.vcpu_fraction, r.model_choice.cost_per_invocation);
    std::printf("  savings from quantization-awareness: %.2f%%\n",
                r.savings_fraction * 100.0);
    return 0;
  }
  throw UsageError("--platform must be aws or gcp");
}

int CmdGenerate(const Flags& flags) {
  const auto out = flags.Get("out");
  if (!out.has_value()) {
    throw UsageError("--out is required");
  }
  const TraceGenConfig cfg = ReadTraceShape(flags, 100'000, 1'000);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  flags.RequireAllRead();
  const auto trace = TraceGenerator(cfg, seed).Generate();
  const size_t written = WriteTraceCsvFile(*out, trace);
  if (written == 0) {
    std::fprintf(stderr, "generate: could not write %s\n", out->c_str());
    return 1;
  }
  std::printf("Wrote %zu records to %s\n", written, out->c_str());
  return 0;
}

// Platform-sim preset for the subset of platforms that have one.
PlatformSimConfig SimPreset(Platform platform, const std::string& platform_name) {
  switch (platform) {
    case Platform::kAwsLambda:
      return AwsLambdaPlatform(1.0, 1769.0);
    case Platform::kGcpCloudRunFunctions:
      return GcpPlatform(1.0, 1024.0);
    case Platform::kAzureConsumption:
      return AzurePlatform();
    case Platform::kCloudflareWorkers:
      return CloudflarePlatform();
    case Platform::kIbmCodeEngine:
      return IbmPlatform(1.0, 2048.0);
    default:
      throw UsageError("no platform-sim preset for '" + platform_name +
                       "' (use aws, gcp, azure, ibm or cloudflare)");
  }
}

// A steady request stream on a platform-sim preset: the scenario that
// `failures`, `observe`, `monitor --sim platform` and `audit --sim platform`
// share.
struct PlatformScenario {
  Platform platform;
  PlatformSimConfig sim;
  double rps = 0.0;
  int64_t seconds = 0;
  uint64_t seed = 0;

  std::vector<MicroSecs> Arrivals() const {
    return UniformArrivals(rps, seconds * kMicrosPerSec);
  }
};

// Reads --platform (one with a sim preset), --rate (crash probability; init
// failures at rate / 4), --retries, --rps, --seconds and --seed, each
// defaulting to the caller's value. Callers set their own flags on `sim`,
// then RequireValid(sim.Validate()).
PlatformScenario ReadPlatformScenario(const Flags& flags, double rate, double rps,
                                      int64_t seconds, int64_t seed) {
  const Platform platform = ReadPlatform(flags);
  PlatformScenario sc{platform, SimPreset(platform, flags.Get("platform").value_or(""))};
  const double crash_prob = flags.GetDouble("rate", rate);
  if (crash_prob < 0.0 || crash_prob > 1.0) {
    throw UsageError("--rate must be in [0, 1]");
  }
  sc.sim.faults.crash_prob = crash_prob;
  sc.sim.faults.init_failure_prob = crash_prob / 4.0;
  sc.sim.retry.max_attempts = static_cast<int>(flags.GetInt("retries", 3));
  sc.rps = flags.GetDouble("rps", rps);
  sc.seconds = flags.GetSeconds("seconds", seconds);
  sc.seed = static_cast<uint64_t>(flags.GetInt("seed", seed));
  RequirePositive("rps", sc.rps);
  RequirePositive("seconds", sc.seconds);
  return sc;
}

// A synthetic trace replayed on the fleet: the scenario that `chaos`,
// `monitor --sim fleet`, `audit --sim fleet` and `network` share.
struct FleetScenario {
  Platform platform;
  TraceGenConfig trace;
  FleetSimConfig sim;
  uint64_t seed = 0;
};

// Reads --platform, --requests, --functions, --seconds, --seed and --retries
// and, with `host_faults`, the host fault domains (--hosts, --mtbf-s,
// --mttr-s, --graceful). Callers set their own flags, then
// RequireValid(sim.Validate()).
FleetScenario ReadFleetScenario(const Flags& flags, bool host_faults) {
  FleetScenario sc{ReadPlatform(flags), ReadTraceShape(flags, 20'000, 200), {}};
  sc.trace.window = flags.GetSeconds("seconds", 3'600) * kMicrosPerSec;
  RequirePositive("seconds", sc.trace.window);
  sc.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  sc.sim.fault_seed = sc.seed;
  sc.sim.retry.max_attempts = static_cast<int>(flags.GetInt("retries", 3));
  if (host_faults) {
    sc.sim.host_faults.hosts = static_cast<int>(flags.GetInt("hosts", 16));
    sc.sim.host_faults.mtbf_seconds = flags.GetDouble("mtbf-s", 3'600.0);
    sc.sim.host_faults.mttr_seconds = flags.GetDouble("mttr-s", 120.0);
    sc.sim.host_faults.graceful_fraction = flags.GetDouble("graceful", 0.3);
  }
  return sc;
}

// Integrity gate shared by observe, monitor and network: per-window USD must
// reproduce the span totals bit-for-bit. False after a report under `cmd`.
bool Reconciled(const char* cmd, const char* what, const BilledReconciliation& rec) {
  if (rec.ok) {
    return true;
  }
  std::fprintf(stderr,
               "%s: %s reconciliation FAILED: window %lld, "
               "series total %.17g vs span total %.17g\n",
               cmd, what, static_cast<long long>(rec.first_mismatch_window),
               rec.timeseries_total, rec.span_total);
  return false;
}

AuditLevel ReadAuditLevel(const Flags& flags, const char* fallback) {
  const std::string name = flags.Get("audit-level").value_or(fallback);
  try {
    return ParseAuditLevel(name);
  } catch (const std::invalid_argument&) {
    throw UsageError("--audit-level must be off, basic or full, got '" + name + "'");
  }
}

// --outage-zone Z [--outage-start-s S] [--outage-seconds N], when given.
template <typename Outage>
std::optional<Outage> ReadOutage(const Flags& flags) {
  if (!flags.Get("outage-zone").has_value()) {
    return std::nullopt;
  }
  Outage outage;
  outage.zone = static_cast<int>(flags.GetInt("outage-zone", 0));
  outage.start = SecsToMicros(flags.GetDuration("outage-start-s", 10.0, kMicrosPerSec));
  outage.duration = SecsToMicros(flags.GetDuration("outage-seconds", 30.0, kMicrosPerSec));
  return outage;
}

// Prints a two-series ASCII chart over sim time.
void PrintChart(const char* title, const char* y_label, ChartSeries a, ChartSeries b) {
  AsciiChart chart(72, 12);
  chart.SetTitle(title);
  chart.SetXLabel("sim time (s)");
  chart.SetYLabel(y_label);
  chart.AddSeries(std::move(a));
  chart.AddSeries(std::move(b));
  std::printf("%s", chart.Render().c_str());
}

// Cost-of-failure exploration on a simulated platform: run a steady request
// stream with fault injection and client retries, then report the outcome
// taxonomy and what the failures were billed.
int CmdFailures(const Flags& flags) {
  PlatformScenario sc = ReadPlatformScenario(flags, /*rate=*/0.05, /*rps=*/5.0,
                                             /*seconds=*/120, /*seed=*/1);
  PlatformSimConfig& sim_config = sc.sim;
  sim_config.faults.max_exec_duration =
      MillisToMicros(flags.GetDuration("timeout-ms", 0.0, kMicrosPerMilli));
  const bool json = flags.GetBool("json");
  RequireValid(sim_config.Validate());
  flags.RequireAllRead();

  PlatformSim sim(sim_config, sc.seed);
  const PlatformSimResult res = sim.Run(sc.Arrivals(), PyAesWorkload());

  const BillingModel billing = MakeBillingModel(sc.platform);
  Usd total = 0.0;
  Usd failed_cost = 0.0;
  for (const auto& att : res.attempts) {
    const Invoice inv =
        ComputeInvoice(billing, BillableRecord(att, sim_config.vcpus, sim_config.mem_mb));
    total += inv.total;
    if (att.outcome != Outcome::kOk) {
      failed_cost += inv.total;
    }
  }

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.KV("platform", billing.platform);
    w.KV("rps", sc.rps);
    w.KV("seconds", sc.seconds);
    w.KV("crash_prob", sim_config.faults.crash_prob);
    w.KV("init_failure_prob", sim_config.faults.init_failure_prob);
    w.KV("max_attempts", sim_config.retry.max_attempts);
    w.KV("seed", static_cast<int64_t>(sc.seed));
    w.KV("requests", static_cast<int64_t>(res.requests.size()));
    w.KV("successes", res.successes);
    w.KV("attempts", static_cast<int64_t>(res.attempts.size()));
    w.KV("retries", res.retries);
    w.KV("crashes", res.crash_attempts);
    w.KV("init_failures", res.init_failure_attempts);
    w.KV("timeouts", res.timeout_attempts);
    w.KV("rejections", res.rejected_attempts);
    w.KV("cold_starts", res.cold_starts);
    w.KV("billed_usd", total);
    w.KV("failed_usd", failed_cost);
    w.KV("cost_per_success",
         res.successes > 0 ? total / static_cast<double>(res.successes) : 0.0);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("%s: %.1f rps for %llds, crash %.1f%%, init-failure %.2f%%, %d attempts max\n",
              billing.platform.c_str(), sc.rps, static_cast<long long>(sc.seconds),
              sim_config.faults.crash_prob * 100.0,
              sim_config.faults.init_failure_prob * 100.0, sim_config.retry.max_attempts);
  std::printf("Requests:             %zu (%lld ok, %lld failed terminally)\n",
              res.requests.size(), static_cast<long long>(res.successes),
              static_cast<long long>(static_cast<int64_t>(res.requests.size()) -
                                     res.successes));
  std::printf("Attempts:             %zu (%lld retries)\n", res.attempts.size(),
              static_cast<long long>(res.retries));
  std::printf("  crashes:            %lld\n", static_cast<long long>(res.crash_attempts));
  std::printf("  init failures:      %lld\n",
              static_cast<long long>(res.init_failure_attempts));
  std::printf("  timeouts:           %lld\n", static_cast<long long>(res.timeout_attempts));
  std::printf("  rejections:         %lld\n", static_cast<long long>(res.rejected_attempts));
  std::printf("Cold starts:          %d\n", res.cold_starts);
  std::printf("Billed total:         $%.6g ($%.4g on failed attempts, %.1f%%)\n", total,
              failed_cost, total > 0 ? failed_cost / total * 100.0 : 0.0);
  if (res.successes > 0) {
    std::printf("Cost per success:     $%.6g\n",
                total / static_cast<double>(res.successes));
  }
  return 0;
}

// Fleet-level chaos: run the same synthetic trace healthy and with host
// fault injection, and report what the failures cost in availability, tail
// latency and dollars per successful request.
int CmdChaos(const Flags& flags) {
  FleetScenario sc = ReadFleetScenario(flags, /*host_faults=*/true);
  const TraceGenConfig& tcfg = sc.trace;
  const uint64_t seed = sc.seed;
  FleetSimConfig& chaos = sc.sim;
  chaos.retry.breaker_threshold =
      static_cast<int>(flags.GetInt("breaker-threshold", 0));
  chaos.host_faults.zones = static_cast<int>(flags.GetInt("zones", 1));
  chaos.host_faults.zone_outage_mtbf_seconds =
      flags.GetDouble("zone-outage-mtbf-s", 0.0);
  const bool json = flags.GetBool("json");
  RequireValid(chaos.Validate());
  flags.RequireAllRead();

  FleetSimConfig healthy = chaos;
  healthy.host_faults = HostFaultModelConfig{};
  healthy.retry.breaker_threshold = 0;

  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, seed).Generate();
  const BillingModel billing = MakeBillingModel(sc.platform);
  const FleetResult base = SimulateFleet(trace, billing, healthy);
  const FleetResult res = SimulateFleet(trace, billing, chaos);

  const auto p99_ms = [](std::vector<MicroSecs> lat) {
    if (lat.empty()) {
      return 0.0;
    }
    std::sort(lat.begin(), lat.end());
    const size_t idx = (lat.size() * 99 + 99) / 100 - 1;
    return static_cast<double>(lat[std::min(idx, lat.size() - 1)]) /
           static_cast<double>(kMicrosPerMilli);
  };
  const auto availability = [](const FleetResult& r) {
    return r.requests > 0
               ? static_cast<double>(r.successes) / static_cast<double>(r.requests)
               : 0.0;
  };
  const auto cost_per_success = [](const FleetResult& r) {
    return r.successes > 0 ? r.revenue / static_cast<double>(r.successes) : 0.0;
  };

  if (json) {
    JsonWriter w;
    const auto scenario = [&](const char* key, const FleetResult& r) {
      w.Key(key);
      w.BeginObject();
      w.KV("availability", availability(r));
      w.KV("p99_e2e_ms", p99_ms(r.e2e_latency));
      w.KV("cost_per_success", cost_per_success(r));
      w.KV("revenue_usd", r.revenue);
      w.KV("cold_starts", r.cold_starts);
      w.KV("attempts", r.attempts);
      w.KV("attempt_kills", r.host_fault_attempt_kills);
      w.KV("sandbox_kills", r.host_fault_sandbox_kills);
      w.KV("drain_survivals", r.drain_survivals);
      w.KV("breaker_trips", r.breaker_trips);
      w.EndObject();
    };
    w.BeginObject();
    w.KV("platform", billing.platform);
    w.KV("requests", tcfg.num_requests);
    w.KV("functions", tcfg.num_functions);
    w.KV("seconds", tcfg.window / kMicrosPerSec);
    w.KV("hosts", chaos.host_faults.hosts);
    w.KV("mtbf_seconds", chaos.host_faults.mtbf_seconds);
    w.KV("mttr_seconds", chaos.host_faults.mttr_seconds);
    w.KV("graceful_fraction", chaos.host_faults.graceful_fraction);
    w.KV("max_attempts", chaos.retry.max_attempts);
    w.KV("breaker", chaos.retry.breaker_threshold > 0);
    w.KV("seed", static_cast<int64_t>(seed));
    scenario("healthy", base);
    scenario("chaos", res);
    const double base_cps = cost_per_success(base);
    w.KV("cost_of_chaos",
         base_cps > 0.0 && res.successes > 0 ? cost_per_success(res) / base_cps - 1.0 : 0.0);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("%s: %lld requests / %lld functions over %llds, %d hosts, "
              "MTBF %.0fs, MTTR %.0fs, %.0f%% graceful, %d attempts%s\n",
              billing.platform.c_str(), static_cast<long long>(tcfg.num_requests),
              static_cast<long long>(tcfg.num_functions),
              static_cast<long long>(tcfg.window / kMicrosPerSec),
              chaos.host_faults.hosts, chaos.host_faults.mtbf_seconds,
              chaos.host_faults.mttr_seconds,
              chaos.host_faults.graceful_fraction * 100.0, chaos.retry.max_attempts,
              chaos.retry.breaker_threshold > 0 ? ", breaker on" : "");
  TextTable t({"", "healthy", "chaos"});
  t.AddRow({"availability", FormatPercent(availability(base), 3),
            FormatPercent(availability(res), 3)});
  t.AddRow({"p99 e2e ms", FormatDouble(p99_ms(base.e2e_latency), 1),
            FormatDouble(p99_ms(res.e2e_latency), 1)});
  t.AddRow({"$/success", FormatSci(cost_per_success(base), 3),
            FormatSci(cost_per_success(res), 3)});
  t.AddRow({"cold starts", FormatDouble(static_cast<double>(base.cold_starts), 0),
            FormatDouble(static_cast<double>(res.cold_starts), 0)});
  t.AddRow({"attempts", FormatDouble(static_cast<double>(base.attempts), 0),
            FormatDouble(static_cast<double>(res.attempts), 0)});
  t.AddRow({"attempt kills", "0",
            FormatDouble(static_cast<double>(res.host_fault_attempt_kills), 0)});
  t.AddRow({"sandbox kills", "0",
            FormatDouble(static_cast<double>(res.host_fault_sandbox_kills), 0)});
  t.AddRow({"drain survivals", "0",
            FormatDouble(static_cast<double>(res.drain_survivals), 0)});
  t.AddRow({"breaker trips", "0",
            FormatDouble(static_cast<double>(res.breaker_trips), 0)});
  std::printf("%s", t.Render().c_str());
  const double base_cps = cost_per_success(base);
  if (base_cps > 0.0 && res.successes > 0) {
    std::printf("Cost of chaos: %+.2f%% per successful request\n",
                (cost_per_success(res) / base_cps - 1.0) * 100.0);
  }
  return 0;
}

// Instrumented platform-sim run with machine-readable artifacts: writes
// <out>/trace.json (Chrome trace-event JSON; load in Perfetto or
// chrome://tracing) and <out>/timeseries.jsonl (one tumbling window per line,
// on the autoscaler's sample cadence), and prints an ASCII cost-provenance
// summary. Deterministic: the same flags always produce the same artifact
// bytes. As in `monitor`, the windows' billed USD must reconcile bit-for-bit
// against the priced spans before anything is written (exit 2 otherwise).
int CmdObserve(const Flags& flags) {
  const auto out = flags.Get("out");
  if (!out.has_value()) {
    throw UsageError("--out DIR is required");
  }
  PlatformScenario sc = ReadPlatformScenario(flags, /*rate=*/0.02, /*rps=*/5.0,
                                             /*seconds=*/60, /*seed=*/1);
  PlatformSimConfig& sim_config = sc.sim;
  RequireValid(sim_config.Validate());
  const int cotenants = static_cast<int>(flags.GetInt("cotenants", 0));
  if (cotenants < 0) {
    throw UsageError("--cotenants must be >= 0");
  }
  flags.RequireAllRead();

  SpanCollector collector;
  TimeSeries series(sim_config.autoscaler.sample_interval);
  sim_config.trace = &collector;
  sim_config.timeseries = &series;
  PlatformSim sim(sim_config, sc.seed);
  const PlatformSimResult res = sim.Run(sc.Arrivals(), PyAesWorkload());

  // Optional OS-scheduling layer: co-tenants contending on a shared host for
  // the same window, emitting throttle/preempt spans onto sched.tenants
  // tracks in the same trace.
  if (cotenants > 0) {
    HostSimConfig host;
    host.duration = sc.seconds * kMicrosPerSec;
    host.trace = &collector;
    std::vector<TenantSpec> tenants(static_cast<size_t>(cotenants));
    for (size_t i = 0; i < tenants.size(); ++i) {
      tenants[i].quota_fraction = 0.5;
      tenants[i].demand_fraction = i == 0 ? 1.0 : 0.7;
    }
    SimulateHost(host, tenants, sc.seed);
  }

  // Attach billing provenance to the platform spans, then export.
  const BillingModel billing = MakeBillingModel(sc.platform);
  const ProvenanceTotals totals =
      TagPlatformSpanBilling(collector.mutable_spans(), res, sim_config, billing);
  IngestBilledSpans(series, collector.spans());
  if (!Reconciled("observe", "billed-USD", ReconcileBilledUsd(series, collector.spans()))) {
    return cli::kIntegrityViolation;
  }

  std::error_code ec;
  std::filesystem::create_directories(*out, ec);
  if (ec) {
    std::fprintf(stderr, "observe: cannot create %s: %s\n", out->c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string trace_path = *out + "/trace.json";
  const std::string series_path = *out + "/timeseries.jsonl";
  if (!WriteTextFile(trace_path, ChromeTraceJson(collector.spans())) ||
      !WriteTextFile(series_path, TimeSeriesJsonl(series))) {
    std::fprintf(stderr, "observe: cannot write artifacts under %s\n", out->c_str());
    return 1;
  }

  // ASCII summary: where the run's time and dollars went, by span kind.
  std::printf("%s: %.1f rps for %llds, crash %.1f%%, %d attempts max, seed %llu\n",
              billing.platform.c_str(), sc.rps, static_cast<long long>(sc.seconds),
              sim_config.faults.crash_prob * 100.0, sim_config.retry.max_attempts,
              static_cast<unsigned long long>(sc.seed));
  std::printf("Requests: %zu (%lld ok), attempts: %zu, cold starts: %d\n",
              res.requests.size(), static_cast<long long>(res.successes),
              res.attempts.size(), res.cold_starts);
  std::printf("Billed: $%.9g total, $%.9g on failed attempts, across %lld tagged spans\n",
              totals.billed_usd, totals.failed_usd,
              static_cast<long long>(totals.tagged_spans));

  constexpr SpanKind kKinds[] = {
      SpanKind::kQueueWait, SpanKind::kInit,    SpanKind::kServingOverhead,
      SpanKind::kExec,      SpanKind::kBackoff, SpanKind::kDrain,
      SpanKind::kSandboxLife, SpanKind::kThrottle, SpanKind::kPreempt};
  struct KindAgg {
    int64_t count = 0;
    MicroSecs total = 0;
    Usd usd = 0.0;
  };
  KindAgg agg[sizeof(kKinds) / sizeof(kKinds[0])];
  for (const Span& sp : collector.spans()) {
    KindAgg& a = agg[static_cast<size_t>(sp.kind)];
    ++a.count;
    a.total += sp.duration;
    a.usd += sp.billed_usd;
  }
  TextTable table({"span kind", "spans", "total ms", "billed $"});
  for (const SpanKind kind : kKinds) {
    const KindAgg& a = agg[static_cast<size_t>(kind)];
    if (a.count == 0) {
      continue;
    }
    table.AddRow({SpanKindName(kind), FormatDouble(static_cast<double>(a.count), 0),
                  FormatDouble(MicrosToMillis(a.total), 1),
                  std::abs(a.usd) > 0.0 ? FormatSci(a.usd, 3) : std::string("-")});
  }
  std::printf("%s", table.Render().c_str());

  // Warm pool and queue depth at each autoscaler sample: the engine's
  // timeline has the pool; the queue depth is the high-water mark of the
  // window holding the sample (window width = sample interval, so one
  // sample per window).
  if (!res.timeline.empty()) {
    ChartSeries warm{"warm pool", 'w', {}};
    ChartSeries queue{"queue depth", 'q', {}};
    for (const TimelineSample& sample : res.timeline) {
      const double t = MicrosToSecs(sample.time);
      const size_t window = static_cast<size_t>(sample.time / series.window());
      warm.points.push_back({t, static_cast<double>(sample.ready_instances)});
      queue.points.push_back(
          {t, static_cast<double>(series.window_at(window).queue_depth_max)});
    }
    PrintChart("warm pool (w) and queue depth (q) over time", "sandboxes / requests",
               std::move(warm), std::move(queue));
  }

  std::printf("Wrote %s (%zu spans) and %s (%zu windows)\n", trace_path.c_str(),
              collector.spans().size(), series_path.c_str(), series.window_count());
  return 0;
}

// Windowed sim-time telemetry over a monitored run: tumbling-window
// time-series JSONL, SLO burn-rate alerts, and (optionally) an engine
// flight-recorder profile, plus an ASCII dashboard. timeseries.jsonl and
// alerts.jsonl are byte-deterministic for a given flag set; profile.json
// contains host wall-clock phase timings and is intentionally not (CI
// byte-compares must exclude it). The billed-USD column is reconciled
// bit-for-bit against the run's terminal-span totals before anything is
// written; a mismatch is an integrity failure (exit 2).
int CmdMonitor(const Flags& flags) {
  const auto out = flags.Get("out");
  if (!out.has_value()) {
    throw UsageError("--out DIR is required");
  }
  const std::string sim_name = flags.Get("sim").value_or("fleet");
  if (sim_name != "fleet" && sim_name != "platform") {
    throw UsageError("--sim must be fleet or platform, got '" + sim_name + "'");
  }
  const int64_t window_s = flags.GetSeconds("window", 60);
  if (window_s <= 0) {
    throw UsageError("--window must be > 0 seconds");
  }
  const double slo_ms = flags.GetDuration("slo", 1'000.0, kMicrosPerMilli);
  if (slo_ms <= 0.0) {
    throw UsageError("--slo must be a positive latency in ms");
  }
  SloSpec slo;
  slo.target = flags.GetDouble("slo-target", 0.99);
  slo.fast_windows = static_cast<int>(flags.GetInt("fast-windows", 1));
  slo.slow_windows = static_cast<int>(flags.GetInt("slow-windows", 12));
  slo.fast_burn = flags.GetDouble("fast-burn", 14.4);
  slo.slow_burn = flags.GetDouble("slow-burn", 6.0);
  RequireValid(slo.Validate());
  const bool profile = flags.GetBool("profile-engine");

  TimeSeries series(window_s * kMicrosPerSec);
  slo.objective_id = series.AddLatencyObjective(MillisToMicros(slo_ms));
  EngineProfiler profiler;
  SpanCollector collector;
  BillingModel billing;
  uint64_t seed = 0;

  std::string scenario;
  if (sim_name == "fleet") {
    // Fleet chaos scenario (the `faascost chaos` shape): host fault domains,
    // client retries, admission defaults — the run where windowed telemetry
    // has something to show.
    FleetScenario sc = ReadFleetScenario(flags, /*host_faults=*/true);
    const TraceGenConfig& tcfg = sc.trace;
    FleetSimConfig& cfg = sc.sim;
    cfg.trace_sink = &collector;
    cfg.timeseries = &series;
    if (profile) {
      cfg.profiler = &profiler;
    }
    RequireValid(cfg.Validate());
    flags.RequireAllRead();
    billing = MakeBillingModel(sc.platform);
    seed = sc.seed;

    if (profile) {
      profiler.BeginPhase("generate_trace");
    }
    const std::vector<RequestRecord> trace = TraceGenerator(tcfg, seed).Generate();
    if (profile) {
      profiler.EndPhase();
      profiler.BeginPhase("simulate");
    }
    const FleetResult res = SimulateFleet(trace, billing, cfg);
    if (profile) {
      profiler.EndPhase();
    }
    scenario = "fleet chaos: " + std::to_string(tcfg.num_requests) + " requests / " +
               std::to_string(tcfg.num_functions) + " functions, " +
               std::to_string(cfg.host_faults.hosts) + " hosts, " +
               std::to_string(res.host_fault_sandbox_kills) + " sandbox kills";
  } else {
    PlatformScenario sc = ReadPlatformScenario(flags, /*rate=*/0.02, /*rps=*/20.0,
                                               /*seconds=*/600, /*seed=*/7);
    PlatformSimConfig& cfg = sc.sim;
    cfg.trace = &collector;
    cfg.timeseries = &series;
    if (profile) {
      cfg.profiler = &profiler;
    }
    RequireValid(cfg.Validate());
    flags.RequireAllRead();
    billing = MakeBillingModel(sc.platform);
    seed = sc.seed;
    if (profile) {
      profiler.BeginPhase("simulate");
    }
    PlatformSim sim(cfg, seed);
    const PlatformSimResult res = sim.Run(sc.Arrivals(), PyAesWorkload());
    if (profile) {
      profiler.EndPhase();
      profiler.BeginPhase("price_spans");
    }
    // PlatformSim prices spans post-run; feed the priced spans back into the
    // series so the billed column exists — in span emission order, the order
    // reconciliation buckets in.
    TagPlatformSpanBilling(collector.mutable_spans(), res, cfg, billing);
    IngestBilledSpans(series, collector.spans());
    if (profile) {
      profiler.EndPhase();
    }
    scenario = "platform: " + std::to_string(res.requests.size()) + " requests, " +
               std::to_string(res.attempts.size()) + " attempts, " +
               std::to_string(res.cold_starts) + " cold starts";
  }

  // The acceptance gate: per-window billed USD must reproduce the span
  // totals bit-for-bit. A mismatch means telemetry dropped or double-counted
  // money — an integrity failure, same exit code as a tripped invariant.
  if (!Reconciled("monitor", "billed-USD", ReconcileBilledUsd(series, collector.spans()))) {
    return cli::kIntegrityViolation;
  }

  const std::vector<SloAlert> alerts = EvaluateSlo(series, slo);

  std::error_code ec;
  std::filesystem::create_directories(*out, ec);
  if (ec) {
    std::fprintf(stderr, "monitor: cannot create %s: %s\n", out->c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string series_path = *out + "/timeseries.jsonl";
  const std::string alerts_path = *out + "/alerts.jsonl";
  if (!WriteTextFile(series_path, TimeSeriesJsonl(series)) ||
      !WriteTextFile(alerts_path, SloAlertsJsonl(alerts))) {
    std::fprintf(stderr, "monitor: cannot write artifacts under %s\n", out->c_str());
    return 1;
  }
  if (profile && !WriteTextFile(*out + "/profile.json", profiler.ChromeTraceJson())) {
    std::fprintf(stderr, "monitor: cannot write profile under %s\n", out->c_str());
    return 1;
  }

  // --- Dashboard ---
  std::printf("%s on %s, seed %llu\n", scenario.c_str(), billing.platform.c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("%zu windows of %llds; SLO: %.0fms @ %s (burn %gx/%dw fast, %gx/%dw slow)\n",
              series.window_count(), static_cast<long long>(window_s), slo_ms,
              FormatPercent(slo.target, 2).c_str(), slo.fast_burn, slo.fast_windows,
              slo.slow_burn, slo.slow_windows);

  TextTable totals({"metric", "total"});
  int64_t completions = 0;
  int64_t failures = 0;
  int64_t cold = 0;
  for (size_t i = 0; i < series.window_count(); ++i) {
    completions += series.window_at(i).completions;
    failures += series.window_at(i).failures;
    cold += series.window_at(i).cold_starts;
  }
  totals.AddRow({"completions", FormatDouble(static_cast<double>(completions), 0)});
  totals.AddRow({"failures", FormatDouble(static_cast<double>(failures), 0)});
  totals.AddRow({"cold starts", FormatDouble(static_cast<double>(cold), 0)});
  totals.AddRow({"billed USD", FormatSci(series.TotalBilledUsd(), 4)});
  for (int k = 0; k < kWasteKindCount; ++k) {
    const Usd w = series.TotalWasteUsd(static_cast<WasteKind>(k));
    if (std::abs(w) > 0.0) {
      totals.AddRow({std::string("waste: ") + WasteKindName(static_cast<WasteKind>(k)),
                     FormatSci(w, 4)});
    }
  }
  totals.AddRow({"reconciliation", "bitwise ok"});
  std::printf("%s", totals.Render().c_str());

  if (series.window_count() > 1) {
    ChartSeries billed{"billed", '$', {}};
    ChartSeries waste{"waste", 'w', {}};
    ChartSeries p95{"p95", '9', {}};
    ChartSeries p50{"p50", '5', {}};
    for (size_t i = 0; i < series.window_count(); ++i) {
      const double t = static_cast<double>((static_cast<int64_t>(i) + 1) * window_s);
      billed.points.push_back({t, series.window_at(i).billed_usd});
      waste.points.push_back({t, series.window_at(i).WasteTotal()});
      p95.points.push_back({t, series.window_at(i).latency_us.Quantile(0.95) / 1000.0});
      p50.points.push_back({t, series.window_at(i).latency_us.Quantile(0.50) / 1000.0});
    }
    PrintChart("billed ($) and waste (w) USD per window", "USD", std::move(billed),
               std::move(waste));
    PrintChart("p95 (9) and p50 (5) latency per window", "ms", std::move(p95),
               std::move(p50));
  }

  if (alerts.empty()) {
    std::printf("SLO: no burn-rate transitions\n");
  }
  for (const SloAlert& a : alerts) {
    std::printf("SLO %s: %s at t=%llds (fast %.1fx, slow %.1fx, window $%s)\n",
                a.slo.c_str(), a.firing ? "FIRING" : "resolved",
                static_cast<long long>(a.time / kMicrosPerSec), a.fast_burn,
                a.slow_burn, FormatSci(a.window_billed_usd, 3).c_str());
  }
  if (profile) {
    std::printf("Engine: %lld events, queue peak %lld, %llu RNG draws\n",
                static_cast<long long>(profiler.events_total()),
                static_cast<long long>(profiler.queue_depth_peak()),
                static_cast<unsigned long long>(profiler.rng_draws()));
  }
  std::printf("Wrote %s (%zu windows) and %s (%zu alerts)%s\n", series_path.c_str(),
              series.window_count(), alerts_path.c_str(), alerts.size(),
              profile ? " and profile.json" : "");
  return 0;
}

// ---------------------------------------------------------------------------
// `faascost audit`: integrity-audited simulation runs with deterministic
// checkpoint/resume. The scenario is rebuilt from the same flags on both the
// checkpointing run and the resuming run; the checkpoint's config_hash and
// input_digest reject a resume under a different setup.

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

struct CheckpointPlan {
  std::string path;
  MicroSecs at = 0;     // One-shot checkpoint at this sim time.
  MicroSecs every = 0;  // Rolling checkpoint (atomic overwrite) each interval.
};

// Parses --checkpoint/--checkpoint-at/--checkpoint-every; nullopt without
// --checkpoint, a usage error when the combination is inconsistent.
std::optional<CheckpointPlan> ParseCheckpointPlan(const Flags& flags) {
  const auto path = flags.Get("checkpoint");
  const int64_t at_s = flags.GetSeconds("checkpoint-at", 0);
  const int64_t every_s = flags.GetSeconds("checkpoint-every", 0);
  if (!path.has_value()) {
    if (at_s > 0 || every_s > 0) {
      throw UsageError("--checkpoint-at/--checkpoint-every need --checkpoint");
    }
    return std::nullopt;
  }
  if ((at_s > 0) == (every_s > 0)) {
    throw UsageError(
        "--checkpoint needs exactly one of --checkpoint-at N or "
        "--checkpoint-every N (seconds)");
  }
  return CheckpointPlan{*path, at_s * kMicrosPerSec, every_s * kMicrosPerSec};
}

// The audit flags both sims share.
struct AuditOptions {
  AuditLevel level = AuditLevel::kFull;
  std::optional<CheckpointPlan> plan;
  int64_t scan_cadence = 0;
  std::optional<std::string> resume;
  bool json = false;
};

// Loads the checkpoint at `path`, checks that it belongs to this scenario
// before any state is restored, hands its state to `restore`, and verifies
// the restored state digest; throws CheckpointError (CLI exit 3) otherwise.
template <typename Engine, typename Restore>
void ResumeVerified(Engine& engine, const std::string& path, const std::string& sim,
                    uint64_t input_digest, Restore restore) {
  const LoadedCheckpoint cp = LoadCheckpoint(path);
  if (cp.header.sim != sim) {
    throw CheckpointError("checkpoint is for sim '" + cp.header.sim +
                          "', this run is '" + sim + "'");
  }
  if (cp.header.config_hash != engine.ConfigHash()) {
    throw CheckpointError(
        "checkpoint config_hash " + DigestHex(cp.header.config_hash) +
        " does not match this scenario (" + DigestHex(engine.ConfigHash()) +
        "); rerun with the flags the checkpoint was taken under");
  }
  if (cp.header.input_digest != input_digest) {
    throw CheckpointError("checkpoint input_digest " +
                          DigestHex(cp.header.input_digest) +
                          " does not match the regenerated input trace (" +
                          DigestHex(input_digest) + ")");
  }
  restore(cp.state());
  const uint64_t restored = engine.Digest();
  if (restored != cp.header.state_digest) {
    throw CheckpointError("state digest after restore is " + DigestHex(restored) +
                          ", checkpoint recorded " + DigestHex(cp.header.state_digest));
  }
}

// Drives an engine (PlatformEngine or FleetEngine: Start/Resume handled by
// the caller) to completion, writing checkpoints per `plan` along the way,
// and returns the end-of-run state digest.
template <typename Engine>
uint64_t RunAudited(Engine& engine, const std::optional<CheckpointPlan>& plan,
                    const std::string& sim, uint64_t seed, uint64_t input_digest) {
  const auto write_checkpoint = [&]() {
    CheckpointHeader header;
    header.sim = sim;
    header.seed = seed;
    header.config_hash = engine.ConfigHash();
    header.input_digest = input_digest;
    header.sim_time_us = engine.now();
    header.state_digest = engine.Digest();
    WriteCheckpoint(plan->path, header, [&](JsonWriter& w) { engine.SaveState(w); });
  };
  if (plan.has_value()) {
    const MicroSecs step = plan->every > 0 ? plan->every : plan->at;
    for (MicroSecs t = engine.now() + step; !engine.done(); t += plan->every) {
      engine.AdvanceUntil(t);
      if (!engine.done()) {
        write_checkpoint();
      }
      if (plan->every == 0) {
        break;  // One-shot --checkpoint-at.
      }
    }
  }
  engine.RunToEnd();
  return engine.Digest();
}

// Shared result line for both sims.
void PrintAuditSummary(bool json, const std::string& sim, const std::string& platform,
                       uint64_t seed, AuditLevel level, const Auditor& auditor,
                       MicroSecs end_time, uint64_t digest, int64_t requests,
                       int64_t successes, int64_t attempts, Usd total_usd,
                       bool resumed) {
  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.KV("sim", sim);
    w.KV("platform", platform);
    w.KV("seed", static_cast<int64_t>(seed));
    w.KV("audit_level", AuditLevelName(level));
    w.KV("resumed", resumed);
    w.KV("checks_run", auditor.checks_run());
    w.KV("scans_run", auditor.scans_run());
    w.KV("end_time_us", end_time);
    w.KV("state_digest", DigestHex(digest));
    w.KV("requests", requests);
    w.KV("successes", successes);
    w.KV("attempts", attempts);
    w.KV("billed_usd", total_usd);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return;
  }
  std::printf("%s%s on %s, seed %llu, audit level %s: %lld checks, %lld scans, "
              "0 violations\n",
              sim.c_str(), resumed ? " (resumed)" : "", platform.c_str(),
              static_cast<unsigned long long>(seed), AuditLevelName(level),
              static_cast<long long>(auditor.checks_run()),
              static_cast<long long>(auditor.scans_run()));
  std::printf("Requests: %lld (%lld ok), attempts: %lld, billed $%.6g\n",
              static_cast<long long>(requests), static_cast<long long>(successes),
              static_cast<long long>(attempts), total_usd);
  std::printf("State digest: %s at t=%lldus\n", DigestHex(digest).c_str(),
              static_cast<long long>(end_time));
}

int AuditPlatformSim(const Flags& flags, const AuditOptions& opts) {
  PlatformScenario sc = ReadPlatformScenario(flags, /*rate=*/0.05, /*rps=*/5.0,
                                             /*seconds=*/120, /*seed=*/1);
  PlatformSimConfig& sim_config = sc.sim;
  RequireValid(sim_config.Validate());
  flags.RequireAllRead();
  const AuditLevel level = opts.level;
  const uint64_t seed = sc.seed;
  Auditor auditor(level, opts.scan_cadence);
  if (level != AuditLevel::kOff) {
    sim_config.auditor = &auditor;
  }

  // The platform checkpoint is self-contained (future arrivals live in the
  // serialized event queue), so there is no external input digest.
  PlatformEngine engine(sim_config, seed);
  if (opts.resume.has_value()) {
    ResumeVerified(engine, *opts.resume, "platform", /*input_digest=*/0,
                   [&](const JsonValue& state) { engine.LoadState(state); });
  } else {
    engine.Start(sc.Arrivals(), PyAesWorkload());
  }

  const uint64_t digest = RunAudited(engine, opts.plan, "platform", seed, 0);
  const MicroSecs end_time = engine.now();
  const PlatformSimResult res = engine.Finish();

  const BillingModel billing = MakeBillingModel(sc.platform);
  Usd total = 0.0;
  for (const auto& att : res.attempts) {
    total += ComputeInvoice(billing,
                            BillableRecord(att, sim_config.vcpus, sim_config.mem_mb))
                 .total;
  }
  if (level == AuditLevel::kFull) {
    AuditPlatformRun(res, sim_config, seed, auditor, &billing, total);
  } else if (level == AuditLevel::kBasic) {
    AuditPlatformRun(res, sim_config, seed, auditor);
  }

  PrintAuditSummary(opts.json, "platform", billing.platform, seed, level, auditor,
                    end_time, digest, static_cast<int64_t>(res.requests.size()),
                    res.successes, static_cast<int64_t>(res.attempts.size()), total,
                    opts.resume.has_value());
  return 0;
}

int AuditFleetSim(const Flags& flags, const AuditOptions& opts) {
  FleetScenario sc = ReadFleetScenario(flags, /*host_faults=*/true);
  FleetSimConfig& fcfg = sc.sim;
  fcfg.retry.breaker_threshold = static_cast<int>(flags.GetInt("breaker-threshold", 0));
  RequireValid(fcfg.Validate());
  flags.RequireAllRead();
  const AuditLevel level = opts.level;
  const uint64_t seed = sc.seed;
  Auditor auditor(level, opts.scan_cadence);
  if (level != AuditLevel::kOff) {
    fcfg.auditor = &auditor;
  }

  // The fleet checkpoint does not embed the request trace; it is regenerated
  // from the same flags and guarded by input_digest.
  const std::vector<RequestRecord> trace = TraceGenerator(sc.trace, seed).Generate();
  const BillingModel billing = MakeBillingModel(sc.platform);
  const uint64_t input_digest = FleetEngine::DigestTrace(trace);

  FleetEngine engine(fcfg);
  if (opts.resume.has_value()) {
    ResumeVerified(engine, *opts.resume, "fleet", input_digest,
                   [&](const JsonValue& state) { engine.Resume(trace, billing, state); });
  } else {
    engine.Start(trace, billing);
  }

  const uint64_t digest = RunAudited(engine, opts.plan, "fleet", seed, input_digest);
  const MicroSecs end_time = engine.now();
  const FleetResult res = engine.Finish();
  if (level != AuditLevel::kOff) {
    AuditFleetRun(res, fcfg, auditor);
  }

  PrintAuditSummary(opts.json, "fleet", billing.platform, seed, level, auditor, end_time,
                    digest, res.requests, res.successes, res.attempts, res.revenue,
                    opts.resume.has_value());
  return 0;
}

// Workflow engine: cost of chains / fan-outs / map-reduces under resilience
// policies (retries, deadline budgets, hedging, async redrives + DLQ, quorum
// joins), optionally with a zonal outage mid-run.
int CmdWorkflows(const Flags& flags) {
  const Platform platform = ReadPlatform(flags);

  const std::string archetype = flags.Get("archetype").value_or("chain");
  const int hops = static_cast<int>(flags.GetInt("hops", 5));
  if (hops < 1) {
    throw UsageError("--hops must be >= 1");
  }
  const int quorum = static_cast<int>(flags.GetInt("quorum", 0));

  WorkflowSimConfig cfg;
  cfg.workflows = flags.GetInt("workflows", 200);
  cfg.wps = flags.GetDouble("wps", 2.0);
  cfg.zones = static_cast<int>(flags.GetInt("zones", 1));
  cfg.failure_rate = flags.GetDouble("rate", 0.0);
  cfg.init_failure_rate = flags.GetDouble("init-fail-rate", cfg.failure_rate / 4.0);
  cfg.pricing = MakeWorkflowPricing(platform);

  HopSpec proto;
  proto.exec_mean = MillisToMicros(flags.GetDuration("exec-ms", 80.0, kMicrosPerMilli));
  proto.timeout = MillisToMicros(flags.GetDuration("timeout-ms", 0.0, kMicrosPerMilli));
  proto.async = flags.GetBool("async");
  if (archetype == "chain") {
    cfg.dags.push_back(MakeChainDag("chain", hops, proto, cfg.zones > 1));
  } else if (archetype == "fanout") {
    cfg.dags.push_back(MakeFanOutDag("fanout", hops, quorum, proto));
  } else if (archetype == "mapreduce") {
    cfg.dags.push_back(MakeMapReduceDag("mapreduce", hops, proto));
  } else {
    throw UsageError("--archetype must be chain, fanout or mapreduce, got '" + archetype +
                     "'");
  }

  cfg.policy.retry.max_attempts = static_cast<int>(flags.GetInt("retries", 3));
  cfg.policy.retry.breaker_threshold =
      static_cast<int>(flags.GetInt("breaker-threshold", 0));
  cfg.policy.deadline.deadline =
      MillisToMicros(flags.GetDuration("deadline-ms", 0.0, kMicrosPerMilli));
  cfg.policy.deadline.propagate = !flags.GetBool("no-propagate");
  cfg.policy.hedge.hedge_after =
      MillisToMicros(flags.GetDuration("hedge-ms", 0.0, kMicrosPerMilli));
  cfg.policy.redrive.max_redrives = static_cast<int>(flags.GetInt("async-redrives", 2));

  if (const auto outage = ReadOutage<ZonalOutageSpec>(flags)) {
    cfg.outages.push_back(*outage);
  }

  const AuditLevel level = ReadAuditLevel(flags, "off");
  Auditor auditor(level);
  if (level != AuditLevel::kOff) {
    cfg.auditor = &auditor;
  }

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool json = flags.GetBool("json");
  RequireValid(cfg.Validate());
  flags.RequireAllRead();
  const BillingModel billing = MakeBillingModel(platform);
  const WorkflowSimResult res = SimulateWorkflows(cfg, billing, seed);
  if (level != AuditLevel::kOff) {
    AuditWorkflowRun(res, cfg, seed, auditor, billing);
  }

  const WorkflowCounters& c = res.counters;
  const double per_success =
      c.workflows_succeeded > 0
          ? res.usd_total / static_cast<double>(c.workflows_succeeded)
          : 0.0;

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.KV("platform", billing.platform);
    w.KV("archetype", archetype);
    w.KV("hops", static_cast<int64_t>(hops));
    w.KV("workflows", cfg.workflows);
    w.KV("seed", static_cast<int64_t>(seed));
    w.KV("failure_rate", cfg.failure_rate);
    w.KV("max_attempts", cfg.policy.retry.max_attempts);
    w.KV("deadline_ms", MicrosToMillis(cfg.policy.deadline.deadline));
    w.KV("deadline_propagates", cfg.policy.deadline.propagate);
    w.KV("hedge_ms", MicrosToMillis(cfg.policy.hedge.hedge_after));
    w.KV("succeeded", c.workflows_succeeded);
    w.KV("failed", c.workflows_failed);
    w.KV("degraded_successes", c.degraded_successes);
    w.KV("attempts", static_cast<int64_t>(res.attempts.size()));
    w.KV("dispatched_attempts", c.dispatched_attempts);
    w.KV("client_retries", c.client_retries);
    w.KV("hedges", c.hedges);
    w.KV("hedge_wins", c.hedge_wins);
    w.KV("hedge_losers", c.hedge_losers);
    w.KV("provider_redrives", c.provider_redrives);
    w.KV("dead_letters", c.dead_letters);
    w.KV("upstream_skipped", c.upstream_skipped);
    w.KV("fail_fast", c.fail_fast);
    w.KV("circuit_open", c.circuit_open);
    w.KV("breaker_trips", c.breaker_trips);
    w.KV("cold_starts", c.cold_starts);
    w.KV("outage_killed", c.outage_killed);
    w.KV("stragglers", c.stragglers);
    w.KV("usd_attempts", res.usd_attempts);
    w.KV("usd_transitions", res.usd_transitions);
    w.KV("usd_dlq", res.usd_dlq);
    w.KV("usd_total", res.usd_total);
    w.KV("usd_useful", res.usd_useful);
    w.KV("usd_wasted", res.usd_wasted);
    w.KV("usd_hedge_losers", res.usd_hedge_losers);
    w.KV("usd_stragglers", res.usd_stragglers);
    w.KV("cost_per_successful_workflow", per_success);
    if (level != AuditLevel::kOff) {
      w.KV("audit_level", AuditLevelName(level));
      w.KV("audit_checks", auditor.checks_run());
    }
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("%s %s x%lld hops=%d: %lld ok (%lld degraded), %lld failed\n",
              billing.platform.c_str(), archetype.c_str(),
              static_cast<long long>(cfg.workflows), hops,
              static_cast<long long>(c.workflows_succeeded),
              static_cast<long long>(c.degraded_successes),
              static_cast<long long>(c.workflows_failed));
  std::printf("Attempts:             %zu (%lld dispatched, %lld retries, %lld hedges,"
              " %lld redrives)\n",
              res.attempts.size(), static_cast<long long>(c.dispatched_attempts),
              static_cast<long long>(c.client_retries),
              static_cast<long long>(c.hedges),
              static_cast<long long>(c.provider_redrives));
  std::printf("  hedge losers:       %lld   dead letters: %lld   stragglers: %lld\n",
              static_cast<long long>(c.hedge_losers),
              static_cast<long long>(c.dead_letters),
              static_cast<long long>(c.stragglers));
  std::printf("  unbilled rows:      %lld circuit-open, %lld upstream-skipped,"
              " %lld fail-fast\n",
              static_cast<long long>(c.circuit_open),
              static_cast<long long>(c.upstream_skipped),
              static_cast<long long>(c.fail_fast));
  std::printf("Cold starts:          %lld   outage kills: %lld   breaker trips: %lld\n",
              static_cast<long long>(c.cold_starts),
              static_cast<long long>(c.outage_killed),
              static_cast<long long>(c.breaker_trips));
  std::printf("Billed total:         $%.6g (invocations $%.6g + transitions $%.6g"
              " + DLQ $%.6g)\n",
              res.usd_total, res.usd_attempts, res.usd_transitions, res.usd_dlq);
  std::printf("Wasted:               $%.6g (%.1f%%; hedge losers $%.4g,"
              " stragglers $%.4g)\n",
              res.usd_wasted,
              res.usd_total > 0.0 ? res.usd_wasted / res.usd_total * 100.0 : 0.0,
              res.usd_hedge_losers, res.usd_stragglers);
  if (c.workflows_succeeded > 0) {
    std::printf("Cost per success:     $%.6g\n", per_success);
  }
  if (level != AuditLevel::kOff) {
    std::printf("Audit:                %s, %lld checks, ok\n", AuditLevelName(level),
                static_cast<long long>(auditor.checks_run()));
  }
  return 0;
}

// Cost-of-network decomposition: one fleet run with the zone topology and
// the monthly-cumulative transfer meter attached, reported the way the
// provider invoices it — compute, per-request fees, each transfer class on
// its own ladder, and flat-priced storage operations. The report is gated
// on the telemetry contract: per-window transfer USD and billed USD must
// reproduce the span folds bit-for-bit, else the tool exits with the same
// code as a tripped invariant (cli::kIntegrityViolation).
int CmdNetwork(const Flags& flags) {
  FleetScenario sc = ReadFleetScenario(flags, /*host_faults=*/false);
  const Platform platform = sc.platform;
  const uint64_t seed = sc.seed;
  TraceGenConfig& tcfg = sc.trace;
  // Trace records carry explicit payload hints; the model's own payload
  // distribution stays disabled so sizes are pinned by the trace.
  tcfg.payload_request_mean_kb = flags.GetDouble("req-kb", 16.0);
  tcfg.payload_response_mean_kb = flags.GetDouble("resp-kb", 64.0);
  tcfg.failure_rate_mean = flags.GetDouble("rate", 0.0);
  if (tcfg.failure_rate_mean < 0.0 || tcfg.failure_rate_mean > 1.0) {
    throw UsageError("--rate must be in [0, 1]");
  }

  NetworkModelConfig ncfg;
  ncfg.topology.zones = static_cast<int>(flags.GetInt("zones", 3));
  ncfg.topology.zones_per_region =
      static_cast<int>(flags.GetInt("zones-per-region", ncfg.topology.zones));
  ncfg.class_a_ops_per_request = flags.GetInt("class-a", 1);
  ncfg.class_b_ops_per_request = flags.GetInt("class-b", 2);
  if (const auto outage = ReadOutage<NetOutage>(flags)) {
    ncfg.outages.push_back(*outage);
  }
  FleetSimConfig& fcfg = sc.sim;
  const int64_t window_s = flags.GetSeconds("window", 5);
  const bool json = flags.GetBool("json");
  RequireValid(ncfg.Validate());
  RequireValid(fcfg.Validate());
  flags.RequireAllRead();

  NetworkModel net(ncfg, MakeNetworkPricing(platform), seed);
  SpanCollector sink;
  TimeSeries series(window_s * kMicrosPerSec);
  fcfg.network = &net;
  fcfg.trace_sink = &sink;
  fcfg.timeseries = &series;

  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, seed).Generate();
  const BillingModel billing = MakeBillingModel(platform);
  const FleetResult res = SimulateFleet(trace, billing, fcfg);
  const NetworkBill& bill = net.bill();

  // Acceptance gates: both USD columns must reproduce their span folds
  // bit-for-bit, window by window, and the meter's transfer count must
  // match the engine's. A mismatch means money was dropped or
  // double-counted between the engine, the meter and telemetry.
  if (!Reconciled("network", "transfer-USD", ReconcileTransferUsd(series, sink.spans())) ||
      !Reconciled("network", "billed-USD", ReconcileBilledUsd(series, sink.spans()))) {
    return cli::kIntegrityViolation;
  }
  if (res.net_transfers != bill.transfers || res.net_bytes != series.TotalNetBytes()) {
    std::fprintf(stderr,
                 "network: meter/engine disagree: %lld vs %lld transfers, "
                 "%lld vs %lld bytes\n",
                 static_cast<long long>(res.net_transfers),
                 static_cast<long long>(bill.transfers),
                 static_cast<long long>(res.net_bytes),
                 static_cast<long long>(series.TotalNetBytes()));
    return cli::kIntegrityViolation;
  }

  const Usd compute_usd = res.revenue - res.fee_revenue;
  const Usd network_usd = bill.TotalUsd();
  const Usd total_usd = res.revenue + network_usd;
  const auto gb = [](int64_t bytes) {
    return static_cast<double>(bytes) / static_cast<double>(kBytesPerGb);
  };

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.KV("platform", billing.platform);
    w.KV("requests", tcfg.num_requests);
    w.KV("functions", tcfg.num_functions);
    w.KV("seconds", tcfg.window / kMicrosPerSec);
    w.KV("zones", static_cast<int64_t>(ncfg.topology.zones));
    w.KV("zones_per_region", static_cast<int64_t>(ncfg.topology.zones_per_region));
    w.KV("seed", static_cast<int64_t>(seed));
    w.KV("attempts", res.attempts);
    w.KV("successes", res.successes);
    w.KV("compute_usd", compute_usd);
    w.KV("request_fee_usd", res.fee_revenue);
    w.Key("transfer");
    w.BeginObject();
    for (int c = 0; c < kTransferClassCount; ++c) {
      w.Key(TransferClassName(static_cast<TransferClass>(c)));
      w.BeginObject();
      w.KV("gb", gb(bill.bytes[c]));
      w.KV("usd", bill.usd[c]);
      w.EndObject();
    }
    w.EndObject();
    w.Key("storage_ops");
    w.BeginObject();
    w.KV("class_a_ops", bill.class_a_ops);
    w.KV("class_b_ops", bill.class_b_ops);
    w.KV("usd", bill.ops_usd);
    w.EndObject();
    w.KV("net_transfers", bill.transfers);
    w.KV("rerouted_transfers", bill.rerouted_transfers);
    w.KV("detour_usd", bill.detour_usd);
    w.KV("network_usd", network_usd);
    w.KV("total_usd", total_usd);
    w.KV("network_share", total_usd > 0.0 ? network_usd / total_usd : 0.0);
    w.KV("reconciled", true);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return cli::kOk;
  }

  std::printf("%s: %lld requests / %lld functions over %llds, %d zones "
              "(%d per region), seed %llu\n",
              billing.platform.c_str(), static_cast<long long>(tcfg.num_requests),
              static_cast<long long>(tcfg.num_functions),
              static_cast<long long>(tcfg.window / kMicrosPerSec),
              ncfg.topology.zones, ncfg.topology.zones_per_region,
              static_cast<unsigned long long>(seed));
  TextTable t({"line item", "volume", "USD", "share"});
  const auto share = [&](Usd usd) {
    return total_usd > 0.0 ? FormatPercent(usd / total_usd, 1) : "-";
  };
  t.AddRow({"compute", std::to_string(res.attempts) + " attempts",
            FormatSci(compute_usd, 4), share(compute_usd)});
  t.AddRow({"request fees", std::to_string(res.requests) + " requests",
            FormatSci(res.fee_revenue, 4), share(res.fee_revenue)});
  for (int c = 0; c < kTransferClassCount; ++c) {
    t.AddRow({TransferClassName(static_cast<TransferClass>(c)),
              FormatDouble(gb(bill.bytes[c]), 3) + " GB", FormatSci(bill.usd[c], 4),
              share(bill.usd[c])});
  }
  t.AddRow({"storage ops",
            std::to_string(bill.class_a_ops) + "A/" +
                std::to_string(bill.class_b_ops) + "B",
            FormatSci(bill.ops_usd, 4), share(bill.ops_usd)});
  t.AddRow({"total", FormatDouble(gb(res.net_bytes), 3) + " GB moved",
            FormatSci(total_usd, 4), share(total_usd)});
  std::printf("%s", t.Render().c_str());
  if (bill.rerouted_transfers > 0) {
    std::printf("Outage detours:       %lld transfers rerouted, $%.6g surcharge\n",
                static_cast<long long>(bill.rerouted_transfers), bill.detour_usd);
  }
  std::printf("Network share:        %.2f%% of total spend "
              "(reconciled bit-for-bit against telemetry)\n",
              total_usd > 0.0 ? network_usd / total_usd * 100.0 : 0.0);
  return cli::kOk;
}

int CmdAuditIntegrity(const Flags& flags) {
  const std::string sim = flags.Get("sim").value_or("platform");
  AuditOptions opts;
  opts.level = ReadAuditLevel(flags, "full");
  opts.plan = ParseCheckpointPlan(flags);
  opts.scan_cadence = flags.GetInt("scan-cadence", 8192);
  if (opts.scan_cadence < 0) {
    throw UsageError("--scan-cadence must be >= 0 (0 disables scans)");
  }
  opts.resume = flags.Get("resume");
  opts.json = flags.GetBool("json");
  if (sim == "platform") {
    return AuditPlatformSim(flags, opts);
  }
  if (sim == "fleet") {
    return AuditFleetSim(flags, opts);
  }
  throw UsageError("--sim must be platform or fleet, got '" + sim + "'");
}

int Usage() {
  std::fprintf(stderr,
               "usage: faascost <command> [flags]\n"
               "  platforms                            list supported platforms\n"
               "  bill --platform P --exec-ms N ...    bill one request\n"
               "  cost [--trace f.csv|--requests N]    cost a workload on all platforms\n"
               "  audit --sim platform|fleet           integrity-audited run with\n"
               "        [--audit-level L] [--checkpoint f.json --checkpoint-every N]\n"
               "        [--resume f.json]              deterministic checkpoint/resume\n"
               "  rightsize --cpu-ms N --slo-ms N      quantization-aware rightsizing\n"
               "  generate --out f.csv [--requests N]  write a synthetic trace\n"
               "  failures --platform P --rate R       cost of failures and retries\n"
               "  chaos --platform P --mtbf-s N        cost of fleet host failures\n"
               "  observe --out DIR [--platform P]     trace one run (trace.json +\n"
               "                                       timeseries.jsonl + summary)\n"
               "  monitor --out DIR [--sim fleet|platform]  windowed telemetry\n"
               "        [--window S --slo MS --slo-target F --profile-engine]\n"
               "                                       (timeseries.jsonl + alerts.jsonl)\n"
               "  workflows --archetype A --hops N     cost of workflow DAGs under\n"
               "        [--rate R --init-fail-rate R --exec-ms N --retries N\n"
               "         --deadline-ms N --hedge-ms N --async --quorum K\n"
               "         --audit-level L]              resilience policies\n"
               "  network [--platform P] [--zones N]    cost-of-network decomposition\n"
               "        [--req-kb K --resp-kb K --class-a N --class-b N\n"
               "         --outage-zone Z --window S]   (compute/requests/egress/ops)\n"
               "A flag the command does not read, a stray argument or a nan/inf\n"
               "number is a usage error (exit 1).\n");
  return cli::kUsage;
}

int Dispatch(const std::string& cmd, const Flags& flags) {
  static constexpr std::pair<const char*, int (*)(const Flags&)> kCommands[] = {
      {"platforms", CmdPlatforms},
      {"bill", CmdBill},
      {"cost", CmdCost},
      {"audit", CmdAuditIntegrity},
      {"rightsize", CmdRightsize},
      {"generate", CmdGenerate},
      {"failures", CmdFailures},
      {"chaos", CmdChaos},
      {"observe", CmdObserve},
      {"monitor", CmdMonitor},
      {"workflows", CmdWorkflows},
      {"network", CmdNetwork},
  };
  for (const auto& [name, run] : kCommands) {
    if (cmd == name) {
      return run(flags);
    }
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string cmd = argv[1];
  const Flags flags(argc, argv, 2);
  // Distinct exit codes so scripts (and CI) can tell a simulator-integrity
  // failure from a bad input artifact without parsing stderr.
  try {
    return Dispatch(cmd, flags);
  } catch (const IntegrityViolation& e) {
    std::fprintf(stderr, "faascost: integrity violation: %s\n", e.what());
    return cli::kIntegrityViolation;
  } catch (const CheckpointError& e) {
    std::fprintf(stderr, "faascost: checkpoint error: %s\n", e.what());
    return cli::kMalformedArtifact;
  } catch (const JsonParseError& e) {
    std::fprintf(stderr, "faascost: unparseable artifact: %s\n", e.what());
    return cli::kMalformedArtifact;
  } catch (const UsageError& e) {
    std::istringstream lines(e.what());
    for (std::string line; std::getline(lines, line);) {
      std::fprintf(stderr, "%s: %s\n", cmd.c_str(), line.c_str());
    }
    return cli::kUsage;
  } catch (const std::exception& e) {
    // Bad flag values surface as library exceptions (std::invalid_argument
    // from config validation, std::length_error from a negative count);
    // the CLI contract is a one-line stderr message and exit 1, never an
    // uncaught-exception abort.
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return cli::kUsage;
  }
}

}  // namespace
}  // namespace faascost

int main(int argc, char** argv) { return faascost::Main(argc, argv); }
