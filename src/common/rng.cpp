#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace aladdin {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  ALADDIN_CHECK(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(Next());  // full 64-bit range
  // Debiased via rejection sampling on the top of the range.
  const std::uint64_t limit = (~std::uint64_t{0}) - (~std::uint64_t{0}) % range;
  std::uint64_t x;
  do {
    x = Next();
  } while (x >= limit);
  return lo + static_cast<std::int64_t>(x % range);
}

double Rng::UniformDouble() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

std::int64_t Rng::Zipf(std::int64_t n, double s) {
  ALADDIN_CHECK(n >= 1);
  ALADDIN_CHECK(s > 0.0);
  // Rejection-inversion sampling (W. Hormann & G. Derflinger 1996).
  // H(x) is the integral of the density x^-s generalized to reals.
  const double one_minus_s = 1.0 - s;
  auto H = [&](double x) {
    if (std::abs(one_minus_s) < 1e-12) return std::log(x);
    return std::pow(x, one_minus_s) / one_minus_s;
  };
  auto Hinv = [&](double x) {
    if (std::abs(one_minus_s) < 1e-12) return std::exp(x);
    return std::pow(one_minus_s * x, 1.0 / one_minus_s);
  };
  const double h_x1 = H(1.5) - 1.0;
  const double h_n = H(static_cast<double>(n) + 0.5);
  for (;;) {
    const double u = h_x1 + UniformDouble() * (h_n - h_x1);
    const double x = Hinv(u);
    std::int64_t k = static_cast<std::int64_t>(std::llround(x));
    if (k < 1) k = 1;
    if (k > n) k = n;
    // Accept k when u lands inside the bar over k.
    if (u >= H(static_cast<double>(k) + 0.5) -
                 std::pow(static_cast<double>(k), -s)) {
      return k;
    }
  }
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    ALADDIN_CHECK(w >= 0.0);
    total += w;
  }
  ALADDIN_CHECK(total > 0.0);
  double target = UniformDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical tail
}

}  // namespace aladdin
