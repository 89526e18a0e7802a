// Deterministic random number generation for the simulators and the synthetic
// trace generator.
//
// All stochastic components in faascost draw from an explicitly seeded `Rng`
// so every experiment is reproducible bit-for-bit. The class wraps a
// xoshiro256** engine and provides the distributions the trace generator and
// platform simulator need (uniform, normal, lognormal, exponential, beta via
// gamma sampling, bounded Zipf, and correlated normal pairs for the Gaussian
// copula).

#ifndef FAASCOST_COMMON_RNG_H_
#define FAASCOST_COMMON_RNG_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/stream_registry.h"

namespace faascost {

// Golden-ratio increment used to decorrelate derived seeds (splitmix64's
// gamma). Historically the fault streams seeded themselves with
// `seed ^ kSeedGamma`; DeriveSeed generalizes that to numbered streams.
inline constexpr uint64_t kSeedGamma = 0x9e3779b97f4a7c15ULL;

// Derives the seed of an independent RNG stream from a base seed. Stream 0
// reproduces the legacy `seed ^ kSeedGamma` derivation bit-for-bit (golden
// outputs depend on it); distinct stream numbers give distinct seeds for the
// same base seed, so concurrently-running fault streams can never collide.
inline constexpr uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return seed ^ (kSeedGamma * (stream + 1));
}

// Stream numbers live in src/common/stream_registry.h (included above): one
// canonical table so faaslint R7 can prove the numbers never collide.

// Full serializable position of one Rng stream: the xoshiro256** engine
// words plus the Box-Muller spare. Restoring a saved state resumes the
// stream bit-exactly, which is what checkpoint/resume and the integrity
// digests rely on. The spare normal is carried as its IEEE-754 bit pattern
// so a save/load round trip through text formats cannot perturb it.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  uint64_t spare_normal_bits = 0;
  bool has_spare_normal = false;

  bool operator==(const RngState&) const = default;
};

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Snapshot / restore of the full stream position (see RngState).
  RngState SaveState() const;
  void LoadState(const RngState& state);

  // Raw 64-bit output of the underlying engine.
  uint64_t NextU64();

  // Engine steps taken since construction (or LoadState, which resets it).
  // Telemetry only — the engine flight recorder reports it — so it is
  // deliberately NOT part of RngState: restoring a checkpoint resumes the
  // stream bit-exactly while the profiler starts counting afresh.
  uint64_t draw_count() const { return draw_count_; }

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive). Throws std::invalid_argument
  // when hi < lo.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  // Standard normal via Box-Muller (cached spare value).
  double Normal();
  double Normal(double mean, double stddev);

  // The Box-Muller pair Normal() derives from its two uniforms u1 (in
  // (1e-300, 1)) and u2: it returns the first and caches the second as the
  // spare. Public so a caller that replays the stream's raw words can
  // rebuild the spare's exact bits.
  static std::pair<double, double> BoxMuller(double u1, double u2);

  // Lognormal with the given parameters of the underlying normal.
  double LogNormal(double mu, double sigma);

  // Exponential with the given rate (lambda). Throws std::invalid_argument
  // unless rate > 0.
  double Exponential(double rate);

  // Gamma(shape, scale) via Marsaglia-Tsang. Throws std::invalid_argument
  // unless shape > 0 and scale > 0.
  double Gamma(double shape, double scale);

  // Beta(a, b) sampled as Gamma ratios.
  double Beta(double a, double b);

  // Pair of standard normals with correlation rho (Gaussian copula input).
  std::pair<double, double> CorrelatedNormals(double rho);

  // Zipf-distributed integer in [1, n] with exponent s. Uses an inverted-CDF
  // table owned by the caller-visible helper `ZipfTable`.
  // (Use ZipfTable for repeated draws; this is a convenience for small n.)
  int64_t Zipf(int64_t n, double s);

  // Fork a statistically independent child stream. Deterministic: the child
  // seed is derived from this engine's next output.
  Rng Fork();

 private:
  uint64_t state_[4];
  uint64_t draw_count_ = 0;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

// Precomputed inverse-CDF table for Zipf draws; O(log n) per sample.
class ZipfTable {
 public:
  // Throws std::invalid_argument unless n >= 1.
  ZipfTable(int64_t n, double exponent);

  int64_t Sample(Rng& rng) const;
  int64_t size() const { return static_cast<int64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace faascost

#endif  // FAASCOST_COMMON_RNG_H_
