#include "src/trace/generator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <new>
#include <stdexcept>
#include <system_error>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace faascost {

namespace {

// Weight split between function-level and request-level utilization latents.
// Functions have characteristic utilization levels; requests jitter around
// them. The squares sum to one so the combined latent stays standard normal.
constexpr double kFunctionLatentWeight = 0.5;
const double kRequestLatentWeight = std::sqrt(1.0 - 0.5 * 0.5);

// Most threads Generate fills with. The fill is a few hundred ns per request,
// so past this the serial dry pass and sort dominate anyway.
constexpr int kMaxFillThreads = 8;

// One fill thread per CPU this process may run on, capped.
int FillThreads() {
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = CPU_COUNT(&set);
  }
#endif
  return std::clamp(cpus, 1, kMaxFillThreads);
}

// Starts `fn` on a new thread, or returns an empty (non-joinable) jthread
// when none can be started; callers then do the work themselves.
template <typename Fn>
std::jthread TrySpawn(const Fn& fn) {
  try {
    return std::jthread(fn);
  } catch (const std::system_error&) {
    return std::jthread();
  }
}

// Replays an Rng's raw words the way Normal() consumes them, without its
// transcendental math. Normal() draws a (u1, u2) pair, redrawing u1 while it
// is <= 1e-300, on every other call and returns the cached spare in between;
// the tracker keeps the spare's parity and the last pair, from which State()
// rebuilds the spare's exact bits. Every other draw the generator makes uses
// a fixed number of words and runs on rng() directly.
class DryStream {
 public:
  explicit DryStream(Rng rng)
      : rng_(rng), has_spare_(rng.SaveState().has_spare_normal) {}

  Rng& rng() { return rng_; }

  void SkipNormal() {
    if (has_spare_) {
      has_spare_ = false;
      return;
    }
    u1_ = rng_.NextDouble();
    u2_ = rng_.NextDouble();
    while (u1_ <= 1e-300) {
      u1_ = rng_.NextDouble();
    }
    has_spare_ = true;
    drew_pair_ = true;
  }

  // The full state the real stream has at this point, stale spare included.
  RngState State() const {
    RngState st = rng_.SaveState();
    st.has_spare_normal = has_spare_;
    if (drew_pair_) {
      const double spare = Rng::BoxMuller(u1_, u2_).second;
      std::memcpy(&st.spare_normal_bits, &spare, sizeof(spare));
    }
    return st;
  }

 private:
  Rng rng_;
  double u1_ = 0.0;
  double u2_ = 0.0;
  bool has_spare_ = false;
  bool drew_pair_ = false;
};

// Draws exactly the raw words TraceGenerator::FillRange (with MakeRequest)
// consumes for one request, and returns the request's arrival. Any drift
// between the two shows up as a chunk ending off its snapshot.
MicroSecs SkipRequest(const TraceGenConfig& config, DryStream& main, DryStream& payload) {
  main.rng().NextDouble();  // ZipfTable::Sample's uniform.
  const MicroSecs arrival = main.rng().UniformInt(0, config.window - 1);
  main.SkipNormal();  // Execution duration.
  main.SkipNormal();  // CorrelatedNormals: two normals.
  main.SkipNormal();
  if (main.rng().Bernoulli(config.cold_start_fraction)) {
    main.SkipNormal();  // Init duration (LogNormal).
  }
  if (config.payload_request_mean_kb > 0.0) {
    payload.SkipNormal();
  }
  if (config.payload_response_mean_kb > 0.0) {
    payload.SkipNormal();
  }
  return arrival;
}

// Sort key of one request: its arrival and its place in generation order.
struct ArrivalKey {
  MicroSecs arrival;
  int64_t index;
};

// Both streams' full positions at a chunk boundary.
struct StreamSnapshot {
  RngState main;
  RngState payload;
};

TraceGenConfig Validated(TraceGenConfig config) {
  const std::vector<std::string> errors = config.Validate();
  if (!errors.empty()) {
    std::string msg = "invalid TraceGenConfig";
    for (const auto& e : errors) {
      msg += "; " + e;
    }
    throw std::invalid_argument(msg);
  }
  return config;
}

}  // namespace

std::vector<std::string> TraceGenConfig::Validate() const {
  std::vector<std::string> errors;
  if (num_requests < 0) {
    errors.push_back("num_requests must be >= 0, got " + std::to_string(num_requests));
  }
  if (num_functions < 1) {
    errors.push_back("num_functions must be >= 1, got " + std::to_string(num_functions));
  }
  if (window < 1) {
    errors.push_back("window must be >= 1 us, got " + std::to_string(window));
  }
  if (combos.empty()) {
    errors.push_back("combos must not be empty");
  } else {
    double total_weight = 0.0;
    for (const auto& combo : combos) {
      total_weight += combo.weight;
    }
    if (!(total_weight > 0.0)) {
      errors.push_back("combos total weight must be > 0, got " +
                       std::to_string(total_weight));
    }
  }
  return errors;
}

double StdNormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double KumaraswamyParams::Quantile(double u) const {
  u = std::clamp(u, 1e-12, 1.0 - 1e-12);
  return std::pow(1.0 - std::pow(1.0 - u, 1.0 / b), 1.0 / a);
}

double KumaraswamyParams::Cdf(double x) const {
  x = std::clamp(x, 0.0, 1.0);
  return 1.0 - std::pow(1.0 - std::pow(x, a), b);
}

TraceGenerator::TraceGenerator(TraceGenConfig config, uint64_t seed)
    : config_(Validated(std::move(config))),
      rng_(seed),
      payload_seed_(DeriveSeed(seed, kNetStream)),
      popularity_(config_.num_functions, config_.zipf_exponent) {
  // Global lognormal location from the target mean and the combined sigma.
  const double sigma_total_sq =
      config_.exec_ln_sigma_function * config_.exec_ln_sigma_function +
      config_.exec_ln_sigma_request * config_.exec_ln_sigma_request;
  const double mu_global =
      std::log(config_.exec_mean_ms * static_cast<double>(kMicrosPerMilli)) -
      sigma_total_sq / 2.0;

  double total_weight = 0.0;
  double mean_ln_vcpu = 0.0;
  for (const auto& combo : config_.combos) {
    total_weight += combo.weight;
    mean_ln_vcpu += combo.weight * std::log(combo.vcpus);
  }
  mean_ln_vcpu /= total_weight;

  functions_.reserve(static_cast<size_t>(config_.num_functions));
  for (int64_t id = 0; id < config_.num_functions; ++id) {
    FunctionProfile fn;
    fn.function_id = id;
    // Weighted combo choice.
    double pick = rng_.NextDouble() * total_weight;
    const AllocCombo* chosen = &config_.combos.back();
    for (const auto& combo : config_.combos) {
      if (pick < combo.weight) {
        chosen = &combo;
        break;
      }
      pick -= combo.weight;
    }
    fn.vcpus = chosen->vcpus;
    fn.mem_mb = chosen->mem_mb;
    const double alloc_shift =
        config_.exec_alloc_exponent * (std::log(fn.vcpus) - mean_ln_vcpu);
    fn.exec_ln_mu = rng_.Normal(mu_global + alloc_shift, config_.exec_ln_sigma_function);
    const auto [zc, zm] = rng_.CorrelatedNormals(config_.util_copula_rho);
    fn.cpu_latent_shift = kFunctionLatentWeight * zc;
    fn.mem_latent_shift = kFunctionLatentWeight * zm;
    if (config_.failure_rate_mean > 0.0) {
      // Beta(alpha, beta) with mean m: beta = alpha * (1 - m) / m.
      const double m = std::min(config_.failure_rate_mean, 0.999);
      const double alpha = config_.failure_rate_alpha;
      const double beta = alpha * (1.0 - m) / m;
      fn.failure_rate = std::clamp(rng_.Beta(alpha, beta), 0.0, 1.0);
    }
    functions_.push_back(fn);
  }
}

RequestRecord TraceGenerator::MakeRequest(const FunctionProfile& fn, MicroSecs arrival,
                                          Rng& rng) const {
  RequestRecord r;
  r.function_id = fn.function_id;
  r.arrival = arrival;
  r.alloc_vcpus = fn.vcpus;
  r.alloc_mem_mb = fn.mem_mb;

  const double exec_us = std::exp(rng.Normal(fn.exec_ln_mu, config_.exec_ln_sigma_request));
  r.exec_duration = std::max<MicroSecs>(1, static_cast<MicroSecs>(exec_us));

  const auto [zc, zm] = rng.CorrelatedNormals(config_.util_copula_rho);
  const double latent_cpu = fn.cpu_latent_shift + kRequestLatentWeight * zc;
  const double latent_mem = fn.mem_latent_shift + kRequestLatentWeight * zm;
  const double cpu_util = config_.cpu_util.Quantile(StdNormalCdf(latent_cpu));
  const double mem_util = config_.mem_util.Quantile(StdNormalCdf(latent_mem));

  r.cpu_time = std::max<MicroSecs>(
      1, static_cast<MicroSecs>(cpu_util * fn.vcpus * static_cast<double>(r.exec_duration)));
  r.used_mem_mb = mem_util * fn.mem_mb;
  r.failure_rate = fn.failure_rate;

  if (rng.Bernoulli(config_.cold_start_fraction)) {
    r.cold_start = true;
    r.init_duration = std::max<MicroSecs>(
        1, static_cast<MicroSecs>(rng.LogNormal(config_.init_ln_mu, config_.init_ln_sigma)));
  }
  return r;
}

void TraceGenerator::FillRange(int64_t begin, int64_t end, const int64_t* slot, Rng& rng,
                               Rng& payload_rng, RequestRecord* out) const {
  const bool want_req_payload = config_.payload_request_mean_kb > 0.0;
  const bool want_resp_payload = config_.payload_response_mean_kb > 0.0;
  const double req_mu =
      want_req_payload
          ? std::log(config_.payload_request_mean_kb * 1024.0) -
                config_.payload_request_ln_sigma * config_.payload_request_ln_sigma / 2.0
          : 0.0;
  const double resp_mu =
      want_resp_payload
          ? std::log(config_.payload_response_mean_kb * 1024.0) -
                config_.payload_response_ln_sigma * config_.payload_response_ln_sigma / 2.0
          : 0.0;
  for (int64_t i = begin; i < end; ++i) {
    const int64_t fid = popularity_.Sample(rng) - 1;
    const FunctionProfile& fn = functions_[static_cast<size_t>(fid)];
    const MicroSecs arrival = rng.UniformInt(0, config_.window - 1);
    RequestRecord& r = out[slot[i]];
    r = MakeRequest(fn, arrival, rng);
    if (want_req_payload) {
      r.req_bytes = std::max<int64_t>(
          1, static_cast<int64_t>(
                 payload_rng.LogNormal(req_mu, config_.payload_request_ln_sigma)));
    }
    if (want_resp_payload) {
      r.resp_bytes = std::max<int64_t>(
          1, static_cast<int64_t>(
                 payload_rng.LogNormal(resp_mu, config_.payload_response_ln_sigma)));
    }
  }
}

std::vector<RequestRecord> TraceGenerator::Generate() {
  const int64_t n = config_.num_requests;
  const int64_t chunks = (n + kChunkRequests - 1) / kChunkRequests;
  const auto count = static_cast<size_t>(n);
  const int64_t threads = std::min<int64_t>(chunks, FillThreads());

  // Where each request lands in the sorted output, and both streams'
  // positions at every chunk boundary (plus the end).
  std::vector<int64_t> slot(count);
  std::vector<StreamSnapshot> snapshots;
  snapshots.reserve(static_cast<size_t>(chunks) + 1);
  std::vector<RequestRecord> out;
  {
    // Value-initializing the output is one serial pass over fresh pages; with
    // threads to spare it runs beside the dry pass and the sort. Should the
    // helper not start or run out of memory, `out` stays empty and the
    // caller's resize below does the work (or throws the bad_alloc).
    std::jthread init;
    if (threads > 1) {
      init = TrySpawn([&out, count] {
        try {
          out.resize(count);
        } catch (const std::bad_alloc&) {
        }
      });
    }

    // Dry pass. Payload draws live on their own stream (see TraceGenConfig):
    // the main stream's draw sequence, and with it every other field, is the
    // same whether payload synthesis is on or off.
    std::vector<ArrivalKey> keys;
    keys.reserve(count);
    DryStream main(rng_.Fork());
    DryStream payload(Rng{payload_seed_});
    for (int64_t i = 0; i < n; ++i) {
      if (i % kChunkRequests == 0) {
        snapshots.push_back({main.State(), payload.State()});
      }
      keys.push_back({SkipRequest(config_, main, payload), i});
    }
    snapshots.push_back({main.State(), payload.State()});

    // The output order is std::sort's over the records with this arrival-only
    // comparator. Introsort's moves depend only on comparison results, so
    // sorting the keys instead gives the same permutation, tied arrivals
    // included; a stable or radix sort would not.
    std::sort(keys.begin(), keys.end(),
              [](const ArrivalKey& a, const ArrivalKey& b) { return a.arrival < b.arrival; });
    for (size_t p = 0; p < count; ++p) {
      slot[static_cast<size_t>(keys[p].index)] = static_cast<int64_t>(p);
    }
  }  // Joins the init helper.
  out.resize(count);

  // Parallel fill: threads take whole chunks, restore the chunk's snapshots
  // and write each record to its sorted slot. They allocate nothing.
  std::vector<char> drifted(static_cast<size_t>(chunks), 0);
  std::atomic<int64_t> next_chunk{0};
  const auto fill = [&] {
    Rng rng(0);
    Rng payload_rng(0);
    for (int64_t c = next_chunk++; c < chunks; c = next_chunk++) {
      const auto k = static_cast<size_t>(c);
      rng.LoadState(snapshots[k].main);
      payload_rng.LoadState(snapshots[k].payload);
      FillRange(c * kChunkRequests, std::min(n, (c + 1) * kChunkRequests), slot.data(), rng,
                payload_rng, out.data());
      drifted[k] = !(rng.SaveState() == snapshots[k + 1].main &&
                     payload_rng.SaveState() == snapshots[k + 1].payload);
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (int64_t t = 1; t < threads; ++t) {
      helpers.push_back(TrySpawn(fill));  // One that cannot start just leaves more chunks.
    }
    fill();
  }  // Joins every helper.
  for (size_t k = 0; k < drifted.size(); ++k) {
    if (drifted[k] != 0) {
      throw std::logic_error("TraceGenerator::Generate: chunk " + std::to_string(k) +
                             " ended off its dry-pass snapshot; the dry pass no longer "
                             "draws what MakeRequest draws");
    }
  }
  return out;
}

std::vector<SandboxLifecycle> TraceGenerator::GenerateLifecycles(int64_t count) {
  std::vector<SandboxLifecycle> out;
  out.reserve(static_cast<size_t>(count));
  Rng rng = rng_.Fork();
  for (int64_t i = 0; i < count; ++i) {
    const int64_t fid = popularity_.Sample(rng) - 1;
    const FunctionProfile& fn = functions_[static_cast<size_t>(fid)];
    SandboxLifecycle lc;
    lc.function_id = fn.function_id;
    lc.alloc_vcpus = fn.vcpus;
    lc.alloc_mem_mb = fn.mem_mb;
    lc.init_duration = std::max<MicroSecs>(
        1, static_cast<MicroSecs>(rng.LogNormal(config_.init_ln_mu, config_.init_ln_sigma)));
    const double n_extra = rng.LogNormal(config_.lifecycle_ln_mu, config_.lifecycle_ln_sigma);
    const int64_t n = 1 + static_cast<int64_t>(n_extra);
    lc.request_durations.reserve(static_cast<size_t>(n));
    for (int64_t k = 0; k < n; ++k) {
      const double exec_us =
          std::exp(rng.Normal(fn.exec_ln_mu, config_.exec_ln_sigma_request));
      lc.request_durations.push_back(std::max<MicroSecs>(1, static_cast<MicroSecs>(exec_us)));
    }
    out.push_back(std::move(lc));
  }
  return out;
}

}  // namespace faascost
