#include "src/common/rng.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace faascost {

namespace {

// SplitMix64, used to expand a single seed into the xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

RngState Rng::SaveState() const {
  RngState st;
  for (int i = 0; i < 4; ++i) {
    st.s[i] = state_[i];
  }
  std::memcpy(&st.spare_normal_bits, &spare_normal_, sizeof(st.spare_normal_bits));
  st.has_spare_normal = has_spare_normal_;
  return st;
}

void Rng::LoadState(const RngState& state) {
  for (int i = 0; i < 4; ++i) {
    state_[i] = state.s[i];
  }
  std::memcpy(&spare_normal_, &state.spare_normal_bits, sizeof(spare_normal_));
  has_spare_normal_ = state.has_spare_normal;
  draw_count_ = 0;
}

uint64_t Rng::NextU64() {
  // xoshiro256** step.
  ++draw_count_;
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  // Distribution parameters reach here from workload configs; reject bad
  // ranges in release builds too instead of wrapping modulo garbage.
  if (hi < lo) {
    throw std::invalid_argument("Rng::UniformInt: hi (" + std::to_string(hi) +
                                ") must be >= lo (" + std::to_string(lo) + ")");
  }
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // Rejection-free modulo is fine here: span << 2^64 for all our uses.
  return lo + static_cast<int64_t>(NextU64() % span);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) {
    u1 = NextDouble();
  }
  const auto [z0, z1] = BoxMuller(u1, u2);
  spare_normal_ = z1;
  has_spare_normal_ = true;
  return z0;
}

std::pair<double, double> Rng::BoxMuller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Exponential(double rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("Rng::Exponential: rate must be > 0, got " +
                                std::to_string(rate));
  }
  double u = NextDouble();
  while (u <= 1e-300) {
    u = NextDouble();
  }
  return -std::log(u) / rate;
}

double Rng::Gamma(double shape, double scale) {
  if (!(shape > 0.0) || !(scale > 0.0)) {
    throw std::invalid_argument("Rng::Gamma: shape and scale must be > 0, got shape=" +
                                std::to_string(shape) + " scale=" +
                                std::to_string(scale));
  }
  if (shape < 1.0) {
    // Boost to shape+1 and correct with a power of a uniform.
    const double u = std::max(NextDouble(), 1e-300);
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v * scale;
    }
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double Rng::Beta(double a, double b) {
  const double x = Gamma(a, 1.0);
  const double y = Gamma(b, 1.0);
  return x / (x + y);
}

std::pair<double, double> Rng::CorrelatedNormals(double rho) {
  const double z1 = Normal();
  const double z2 = Normal();
  return {z1, rho * z1 + std::sqrt(std::max(0.0, 1.0 - rho * rho)) * z2};
}

int64_t Rng::Zipf(int64_t n, double s) {
  const ZipfTable table(n, s);
  return table.Sample(*this);
}

Rng Rng::Fork() { return Rng(NextU64()); }

ZipfTable::ZipfTable(int64_t n, double exponent) {
  if (n < 1) {
    throw std::invalid_argument("ZipfTable: n must be >= 1, got " + std::to_string(n));
  }
  cdf_.resize(static_cast<size_t>(n));
  double acc = 0.0;
  for (int64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), exponent);
    cdf_[static_cast<size_t>(k - 1)] = acc;
  }
  for (auto& v : cdf_) {
    v /= acc;
  }
}

int64_t ZipfTable::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // Binary search for the first cdf entry >= u.
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(cdf_.size()) - 1;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (cdf_[static_cast<size_t>(mid)] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + 1;
}

}  // namespace faascost
