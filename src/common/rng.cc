#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "common/thread_pool.h"

namespace hyperprof {

namespace {

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
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(x);
  // Avoid the all-zero state, which is a fixed point of xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextExponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::NextGaussian() {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

double Rng::NextBoundedPareto(double alpha, double lo, double hi) {
  assert(alpha > 0 && lo > 0 && hi > lo);
  double u = NextDouble();
  double la = std::pow(lo, alpha);
  double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

namespace {

/**
 * Vose's pairing. On entry `prob` holds the scaled weights n * p_i; on
 * exit it holds each column's acceptance probability and `alias` (size n,
 * zero-filled) its alias.
 */
void PairAliases(std::vector<double>& prob, std::vector<uint32_t>& alias) {
  const size_t n = prob.size();
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (prob[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    // prob[s] is final from here on: s never re-enters either list.
    alias[s] = l;
    prob[l] = prob[l] + prob[s] - 1.0;
    (prob[l] < 1.0 ? small : large).push_back(l);
  }
  for (uint32_t l : large) prob[l] = 1.0;
  for (uint32_t s : small) prob[s] = 1.0;
}

}  // namespace

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  const size_t n = weights.empty() ? 1 : weights.size();
  std::vector<double> w(weights);
  if (w.empty()) w.push_back(1.0);
  double total = 0;
  for (double v : w) {
    assert(v >= 0);
    total += v;
  }
  if (total <= 0) {
    w.assign(n, 1.0);
    total = static_cast<double>(n);
  }
  normalized_.resize(n);
  for (size_t i = 0; i < n; ++i) normalized_[i] = w[i] / total;

  prob_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    prob_[i] = normalized_[i] * static_cast<double>(n);
  }
  alias_.assign(n, 0);
  PairAliases(prob_, alias_);
}

size_t AliasSampler::Sample(Rng& rng) const {
  size_t i = rng.NextBounded(prob_.size());
  return rng.NextDouble() < prob_[i] ? i : alias_[i];
}

double AliasSampler::Probability(size_t i) const { return normalized_[i]; }

std::vector<double> ZipfWeights(size_t n, double s) {
  std::vector<double> w(n == 0 ? 1 : n);
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return w;
}

ZipfSampler::ZipfSampler(size_t n, double s, ThreadPool* pool)
    : prob_(n == 0 ? 1 : n), alias_(prob_.size(), 0) {
  // The same arithmetic, in the same order per element, as AliasSampler
  // over ZipfWeights(n, s); prob_ holds the weights, then the scaled
  // weights, then the acceptance probabilities. Rank 0 weighs 1, so the
  // total is positive and the all-zero fallback never applies.
  ForEachRange(pool, prob_.size(), [this, s](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      prob_[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    }
  });
  double total = 0;
  for (double w : prob_) total += w;
  const double count = static_cast<double>(prob_.size());
  ForEachRange(pool, prob_.size(),
               [this, total, count](size_t begin, size_t end) {
                 for (size_t i = begin; i < end; ++i) {
                   prob_[i] = prob_[i] / total * count;
                 }
               });
  PairAliases(prob_, alias_);
}

size_t ZipfSampler::Sample(Rng& rng) const {
  size_t i = rng.NextBounded(prob_.size());
  return rng.NextDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace hyperprof
