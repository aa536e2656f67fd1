#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hyperprof {

void RunningStat::Add(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = x;
    max_ = x;
    return;
  }
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  uint64_t n = count_ + other.count_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = n;
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

namespace {

// Merging sketches with different geometries silently corrupts quantiles
// (the bucket indices mean different values), so the contract is enforced
// with a hard abort in every build mode — an assert would vanish under
// NDEBUG, which is exactly how the original histogram Merge bug shipped.
[[noreturn]] void SketchGeometryMismatch(const SketchGeometry& a,
                                         const SketchGeometry& b) {
  std::fprintf(stderr,
               "LatencySketch::Merge: geometry mismatch: "
               "(min=%g bpd=%d decades=%d) vs (min=%g bpd=%d decades=%d)\n",
               a.min_value, a.buckets_per_decade, a.decades, b.min_value,
               b.buckets_per_decade, b.decades);
  std::abort();
}

}  // namespace

LatencySketch::LatencySketch(SketchGeometry geometry)
    : geometry_(geometry), log_min_(std::log10(geometry.min_value)) {
  assert(geometry.min_value > 0 && geometry.buckets_per_decade > 0 &&
         geometry.decades > 0);
  counts_.assign(geometry_.bucket_count(), 0);
}

size_t LatencySketch::BucketFor(double value) const {
  double pos = (std::log10(value) - log_min_) *
               static_cast<double>(geometry_.buckets_per_decade);
  if (pos < 0) return 0;  // rounding jitter at the min_value boundary
  size_t i = static_cast<size_t>(pos);
  return std::min(i, counts_.size() - 1);
}

double LatencySketch::BucketLow(size_t i) const {
  return std::pow(10.0, log_min_ +
                            static_cast<double>(i) /
                                static_cast<double>(
                                    geometry_.buckets_per_decade));
}

double LatencySketch::BucketHigh(size_t i) const { return BucketLow(i + 1); }

void LatencySketch::Add(double value) {
  if (!std::isfinite(value)) {
    // NaN/±inf would poison sum_ and feed log10 garbage into a size_t
    // cast (UB); they get their own bin and touch nothing else.
    ++nonfinite_;
    return;
  }
  ++count_;
  sum_ += value;
  if (value < geometry_.min_value) {
    ++underflow_;  // tracked as its own region, not folded into bucket 0
    return;
  }
  ++counts_[BucketFor(value)];
}

void LatencySketch::Merge(const LatencySketch& other) {
  if (!(geometry_ == other.geometry_)) {
    SketchGeometryMismatch(geometry_, other.geometry_);
  }
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  underflow_ += other.underflow_;
  nonfinite_ += other.nonfinite_;
  sum_ += other.sum_;
}

void LatencySketch::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  underflow_ = 0;
  nonfinite_ = 0;
  sum_ = 0.0;
}

double LatencySketch::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  // The underflow region covers [0, min_value): samples known to be below
  // the first bucket must not report as >= BucketLow(0).
  if (underflow_ > 0 && target <= static_cast<double>(underflow_)) {
    return geometry_.min_value * (target / static_cast<double>(underflow_));
  }
  uint64_t seen = underflow_;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (static_cast<double>(seen + counts_[i]) >= target) {
      double within =
          (target - static_cast<double>(seen)) /
          static_cast<double>(counts_[i]);
      return BucketLow(i) + within * (BucketHigh(i) - BucketLow(i));
    }
    seen += counts_[i];
  }
  return BucketHigh(counts_.size() - 1);
}

size_t LatencySketch::memory_bytes() const {
  return sizeof(*this) + counts_.capacity() * sizeof(counts_[0]);
}

std::vector<double> NormalizeToFractions(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  std::vector<double> out(weights.size(), 0.0);
  if (total <= 0) return out;
  for (size_t i = 0; i < weights.size(); ++i) out[i] = weights[i] / total;
  return out;
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double d = 0;
  for (size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

}  // namespace hyperprof
