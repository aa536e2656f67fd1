#ifndef HYPERPROF_COMMON_STATS_H_
#define HYPERPROF_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyperprof {

/**
 * Single-pass running mean/variance/min/max (Welford's algorithm).
 *
 * Used throughout the profiling aggregators where per-sample storage would
 * be prohibitive at fleet scale.
 */
class RunningStat {
 public:
  void Add(double x);

  /** Merges another accumulator (parallel-combine, Chan et al.). */
  void Merge(const RunningStat& other);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return count_ ? mean_ * static_cast<double>(count_) : 0.0; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/**
 * Bucket layout of a log-scaled sketch: geometric buckets starting at
 * `min_value` with `buckets_per_decade` buckets per factor-of-10 across
 * `decades` decades. Two sketches are mergeable iff their geometries are
 * identical — same bucket count is NOT sufficient (e.g. (1e-9, 20, 15) and
 * (1e-6, 20, 15) have equal-size count vectors but disjoint value ranges).
 */
struct SketchGeometry {
  double min_value = 1e-6;
  int buckets_per_decade = 10;
  int decades = 9;

  bool operator==(const SketchGeometry&) const = default;

  size_t bucket_count() const {
    return static_cast<size_t>(buckets_per_decade) * decades + 1;
  }
};

/**
 * Latency geometry of RPC and load-generator histograms (seconds): 1 ns
 * to 10^6 s at 20 buckets per decade, so one bucket is ~12% wide.
 */
inline constexpr SketchGeometry kLatencyHistogramGeometry{1e-9, 20, 15};

/**
 * Mergeable log-bucketed quantile sketch.
 *
 * The streaming-profiler window type: shards accumulate samples into
 * per-window sketches and combine them at epoch barriers by summing bucket
 * counts, without retaining samples. Quantiles are a pure function of the
 * integer bucket counts and the geometry, so any merge order — or a fused
 * single-shard accumulation — yields bit-identical quantile estimates.
 *
 * Sample routing:
 *  - non-finite values (NaN, ±inf) go to a dedicated counted bin and are
 *    excluded from count()/sum()/quantiles (they would otherwise poison
 *    the sum and hit UB in the log-bucket computation);
 *  - finite values below `min_value` (including negatives) count into an
 *    explicit underflow region that the quantile walk interpolates over
 *    [0, min_value), instead of being conflated with the first bucket;
 *  - everything else lands in its log bucket, with the last bucket
 *    absorbing overflow.
 *
 * Merge() enforces the geometry contract with a hard check in all build
 * modes: merging mismatched geometries aborts rather than silently
 * corrupting quantiles.
 *
 * Add/Merge/Clear never allocate after construction.
 */
class LatencySketch {
 public:
  explicit LatencySketch(SketchGeometry geometry = SketchGeometry{});

  void Add(double value);

  /** Sums bucket counts; aborts on geometry mismatch (all build modes). */
  void Merge(const LatencySketch& other);

  /** Zeroes all counters; keeps the bucket storage (no allocation). */
  void Clear();

  /** Finite samples (in-range + underflow); excludes the non-finite bin. */
  uint64_t count() const { return count_; }
  uint64_t underflow() const { return underflow_; }
  uint64_t nonfinite() const { return nonfinite_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /**
   * Value at quantile q in [0, 1] by linear interpolation within the
   * bucket (or within [0, min_value) for the underflow region). Depends
   * only on the integer counts, so it is merge-order invariant.
   */
  double Quantile(double q) const;

  const SketchGeometry& geometry() const { return geometry_; }
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }
  size_t memory_bytes() const;

 private:
  size_t BucketFor(double value) const;  // value finite and >= min_value
  double BucketLow(size_t i) const;
  double BucketHigh(size_t i) const;

  SketchGeometry geometry_;
  double log_min_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t underflow_ = 0;
  uint64_t nonfinite_ = 0;
  double sum_ = 0.0;
};

/**
 * Normalizes a weight vector to fractions summing to 1.
 *
 * Zero-total inputs normalize to all-zeros (callers treat that as "no
 * samples in this category").
 */
std::vector<double> NormalizeToFractions(const std::vector<double>& weights);

/**
 * L1 distance between two distributions (sum of |a_i - b_i|).
 *
 * The recovery tests use this to assert that profiled breakdowns match the
 * configured ground truth.
 */
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_STATS_H_
