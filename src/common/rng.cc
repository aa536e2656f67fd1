#include "common/rng.h"

#include <algorithm>
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

/** The unnormalized weight of Zipf rank i. */
double RankWeight(size_t i, double s) {
  return 1.0 / std::pow(static_cast<double>(i + 1), s);
}

/** The largest float <= x. */
float FloatBelow(double x) {
  const float f = static_cast<float>(x);
  return static_cast<double>(f) > x ? std::nextafter(f, -1.0f) : f;
}

/** The smallest float >= x. */
float FloatAbove(double x) {
  const float f = static_cast<float>(x);
  return static_cast<double>(f) < x ? std::nextafter(f, 2.0f) : f;
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
  for (size_t i = 0; i < w.size(); ++i) w[i] = RankWeight(i, s);
  return w;
}

double ZipfSampler::Scale(double weight) const {
  return weight / total_ * static_cast<double>(n_);
}

ZipfSampler::ZipfSampler(size_t n, double s, ThreadPool* pool)
    : n_(n == 0 ? 1 : n), s_(s) {
  // The same arithmetic, in the same order per element, as AliasSampler
  // over ZipfWeights(n, s): `scaled` holds the weights, then the scaled
  // weights, then the acceptances of the columns it keeps. Rank 0 weighs
  // 1, so the total is positive and the all-zero fallback never applies.
  std::vector<double> scaled(n_);
  ForEachRange(pool, n_, [&scaled, s](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) scaled[i] = RankWeight(i, s);
  });
  for (double w : scaled) total_ += w;
  ForEachRange(pool, n_, [this, &scaled](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) scaled[i] = Scale(scaled[i]);
  });
  size_t k = 0;
  while (k < n_ && !(scaled[k] < 1.0)) ++k;
  for (size_t i = k; i < n_; ++i) {
    if (!(scaled[i] < 1.0)) {
      // The small columns are not a suffix (s < 0): keep every column.
      k_ = small_top_ = n_;
      alias_.assign(n_, 0);
      PairAliases(scaled, alias_);
      prob_ = std::move(scaled);
      return;
    }
  }

  // PairAliases without its worklists. The large stack only ever takes
  // back the column it just gave up, so it is always a prefix [0, top) of
  // [0, k); the small stack is the unpopped part of [k, n) plus at most
  // one column demoted from the large stack, which is popped next. Same
  // pops in the same order, so the columns are PairAliases' bit for bit.
  // Popped small columns keep their scaled weight and take aliases in
  // nonincreasing order, so first_ records all their aliases.
  k_ = k;
  alias_.assign(k, 0);
  first_.assign(k, 0);
  size_t small_top = n_;  // unpopped original small columns: [k, small_top)
  size_t large_top = k;   // the large stack: [0, large_top)
  bool demoted = false;   // column large_top sits on top of the small stack
  bool sorted = true;     // popped small weights nonincreasing in index
  double last = 0;        // the last popped small weight
  while ((demoted || small_top > k) && large_top > 0) {
    const size_t l = --large_top;
    size_t small;
    if (demoted) {
      small = l + 1;
      alias_[small] = static_cast<uint32_t>(l);
    } else {
      small = --small_top;
      sorted = sorted && !(scaled[small] < last);
      last = scaled[small];
    }
    first_[l] = static_cast<uint32_t>(small_top);
    scaled[l] = scaled[l] + scaled[small] - 1.0;
    demoted = scaled[l] < 1.0;
    if (!demoted) ++large_top;
  }
  for (size_t l = 0; l < large_top; ++l) scaled[l] = 1.0;
  if (demoted) scaled[large_top] = 1.0;
  small_top_ = small_top;
  prob_.assign(scaled.begin(), scaled.begin() + k);

  // Each bucket's bounds come from its lowest and highest popped columns,
  // which hold its largest and smallest weight only while the weights
  // are sorted; otherwise every draw in the band recomputes.
  buckets_.resize(((n_ - k) + (size_t{1} << kBucketShift) - 1) >>
                  kBucketShift);
  ForEachRange(pool, buckets_.size(), [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const size_t lo_col = std::max(k + (b << kBucketShift), small_top);
      const size_t hi_col = std::min(k + ((b + 1) << kBucketShift), n_) - 1;
      if (lo_col > hi_col) continue;  // never popped
      Bucket& bucket = buckets_[b];
      const uint32_t top = static_cast<uint32_t>(k - 1);
      bucket.alias_lo = static_cast<uint32_t>(SmallAlias(lo_col, 0, top));
      bucket.alias_hi = static_cast<uint32_t>(SmallAlias(hi_col, 0, top));
      if (sorted) {
        bucket.lo = FloatBelow(scaled[hi_col]);
        bucket.hi = FloatAbove(scaled[lo_col]);
      }
    }
  });
}

size_t ZipfSampler::SmallAlias(size_t i, uint32_t lo, uint32_t hi) const {
  return static_cast<size_t>(std::upper_bound(first_.begin() + lo,
                                              first_.begin() + hi + 1, i) -
                             first_.begin()) -
         1;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const size_t i = rng.NextBounded(n_);
  const double u = rng.NextDouble();
  if (i < k_) return u < prob_[i] ? i : alias_[i];
  if (i < small_top_) return i;
  const Bucket& b = buckets_[(i - k_) >> kBucketShift];
  if (u < b.lo || (u < b.hi && u < Scale(RankWeight(i, s_)))) return i;
  return SmallAlias(i, b.alias_lo, b.alias_hi);
}

double ZipfSampler::Acceptance(size_t i) const {
  if (i < k_) return prob_[i];
  if (i < small_top_) return 1.0;
  return Scale(RankWeight(i, s_));
}

size_t ZipfSampler::Alias(size_t i) const {
  if (i < k_) return alias_[i];
  if (i < small_top_) return 0;
  const Bucket& b = buckets_[(i - k_) >> kBucketShift];
  return SmallAlias(i, b.alias_lo, b.alias_hi);
}

}  // namespace hyperprof
