#include "common/stats.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hyperprof {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
  EXPECT_EQ(stat.sum(), 0.0);
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat stat;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(v);
  EXPECT_EQ(stat.count(), 8u);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  // Sample variance of the classic dataset is 32/7.
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(stat.min(), 2.0);
  EXPECT_EQ(stat.max(), 9.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  Rng rng(5);
  RunningStat all, left, right;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextGaussian() * 3 + 1;
    all.Add(v);
    (i % 2 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat stat, empty;
  stat.Add(3.0);
  stat.Merge(empty);
  EXPECT_EQ(stat.count(), 1u);
  empty.Merge(stat);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 3.0);
}

// LogHistogramTest: LatencySketch at kLatencyHistogramGeometry, the
// geometry of the RPC and load-generator latency histograms.
LatencySketch LatencyHistogram(double min_value = 1e-9) {
  SketchGeometry geometry = kLatencyHistogramGeometry;
  geometry.min_value = min_value;
  return LatencySketch(geometry);
}

TEST(LogHistogramTest, CountAndMean) {
  LatencySketch hist = LatencyHistogram();
  hist.Add(1e-3);
  hist.Add(3e-3);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.mean(), 2e-3);
}

TEST(LogHistogramTest, QuantilesOrdered) {
  LatencySketch hist = LatencyHistogram();
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) hist.Add(rng.NextExponential(1e-3));
  double p50 = hist.Quantile(0.5);
  double p90 = hist.Quantile(0.9);
  double p99 = hist.Quantile(0.99);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  // Exponential(1ms): median = ln(2) ms, p90 = ln(10) ms.
  EXPECT_NEAR(p50, std::log(2.0) * 1e-3, 0.15e-3);
  EXPECT_NEAR(p90, std::log(10.0) * 1e-3, 0.4e-3);
}

TEST(LogHistogramTest, UnderflowCountsButClamps) {
  LatencySketch hist = LatencyHistogram(1e-6);
  hist.Add(1e-9);  // below min bucket
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GT(hist.Quantile(0.5), 0.0);
}

TEST(LogHistogramTest, MergeAddsCounts) {
  LatencySketch a = LatencyHistogram();
  LatencySketch b = LatencyHistogram();
  a.Add(1e-3);
  b.Add(2e-3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.sum(), 3e-3);
}

// Regression: Merge used to check only bucket-vector size (and only via
// assert, compiled out under NDEBUG). These two geometries have identical
// bucket counts but disjoint value ranges; merging them must die in every
// build mode instead of silently corrupting quantiles.
TEST(LogHistogramDeathTest, MergeRejectsMismatchedGeometry) {
  LatencySketch nanos = LatencyHistogram(1e-9);
  LatencySketch micros = LatencyHistogram(1e-6);
  nanos.Add(1e-3);
  micros.Add(1e-3);
  EXPECT_DEATH(nanos.Merge(micros), "geometry mismatch");
}

TEST(LogHistogramDeathTest, MergeRejectsMismatchedBucketsPerDecade) {
  // Same total bucket count as the latency geometry.
  LatencySketch coarse(SketchGeometry{1e-9, 10, 30});
  LatencySketch fine = LatencyHistogram();
  EXPECT_DEATH(fine.Merge(coarse), "geometry mismatch");
}

// Regression: Add(NaN/±inf) used to flow log10 output into a size_t cast
// (UB) and poison sum_. Non-finite samples now land in a dedicated bin and
// leave count/sum/quantiles untouched.
TEST(LogHistogramTest, NonFiniteSamplesAreIsolated) {
  LatencySketch hist = LatencyHistogram();
  hist.Add(1e-3);
  hist.Add(std::numeric_limits<double>::quiet_NaN());
  hist.Add(std::numeric_limits<double>::infinity());
  hist.Add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.nonfinite(), 3u);
  EXPECT_DOUBLE_EQ(hist.mean(), 1e-3);
  EXPECT_TRUE(std::isfinite(hist.Quantile(0.5)));
  EXPECT_TRUE(std::isfinite(hist.Quantile(1.0)));

  LatencySketch other = LatencyHistogram();
  other.Add(std::numeric_limits<double>::quiet_NaN());
  hist.Merge(other);
  EXPECT_EQ(hist.nonfinite(), 4u);
  EXPECT_EQ(hist.count(), 1u);
}

// Regression: underflow samples were double-bookkept into counts_[0], so
// low quantiles reported at least BucketLow(0) for samples known to be
// below min_value. With 3 of 4 samples in the underflow region, the median
// must interpolate inside [0, min_value), at exactly min_value * (2/3).
TEST(LogHistogramTest, UnderflowQuantilesInterpolateBelowMinValue) {
  LatencySketch hist = LatencyHistogram(1e-6);
  hist.Add(1e-9);
  hist.Add(1e-9);
  hist.Add(1e-9);
  hist.Add(1e-3);
  EXPECT_EQ(hist.count(), 4u);
  // Median: target = 2 of 3 underflow samples.
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 1e-6 * (2.0 / 3.0));
  EXPECT_LT(hist.Quantile(0.5), 1e-6);
  // p95 lands on the in-range sample's bucket (~1e-3, bucket is ~12% wide).
  EXPECT_GT(hist.Quantile(0.95), 1e-3 * 0.88);
  EXPECT_LT(hist.Quantile(0.95), 1e-3 * 1.13);
}

TEST(LatencySketchTest, BasicAccounting) {
  LatencySketch sketch;
  sketch.Add(5e-4);
  sketch.Add(2e-3);
  sketch.Add(1e-9);                                      // underflow
  sketch.Add(std::numeric_limits<double>::quiet_NaN());  // non-finite
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_EQ(sketch.underflow(), 1u);
  EXPECT_EQ(sketch.nonfinite(), 1u);
  EXPECT_NEAR(sketch.sum(), 5e-4 + 2e-3 + 1e-9, 1e-15);
}

TEST(LatencySketchTest, ClearResetsWithoutChangingGeometry) {
  LatencySketch sketch;
  for (int i = 0; i < 100; ++i) sketch.Add(1e-3);
  sketch.Add(std::numeric_limits<double>::infinity());
  sketch.Clear();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.nonfinite(), 0u);
  EXPECT_EQ(sketch.underflow(), 0u);
  EXPECT_DOUBLE_EQ(sketch.sum(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0);
  sketch.Add(2e-3);
  EXPECT_EQ(sketch.count(), 1u);
}

TEST(LatencySketchDeathTest, MergeRejectsMismatchedGeometry) {
  LatencySketch a(SketchGeometry{1e-6, 10, 9});
  LatencySketch b(SketchGeometry{1e-7, 10, 9});
  EXPECT_DEATH(a.Merge(b), "geometry mismatch");
}

// Sharded windows combine through Merge at epoch barriers. Quantiles are a
// pure function of the integer bucket counts, so N shards merged in any
// order must reproduce the fused single-sketch quantiles bit-for-bit.
TEST(LatencySketchTest, RandomizedMergeMatchesOneshot) {
  Rng rng(101);
  for (int round = 0; round < 20; ++round) {
    int shards = 1 + static_cast<int>(rng.NextBounded(8));
    LatencySketch fused;
    std::vector<LatencySketch> parts(static_cast<size_t>(shards));
    int samples = 200 + static_cast<int>(rng.NextBounded(800));
    for (int i = 0; i < samples; ++i) {
      double v = rng.NextExponential(1e-3);
      if (rng.NextBounded(50) == 0) v = 1e-9;  // underflow sprinkle
      if (rng.NextBounded(97) == 0) v = std::numeric_limits<double>::infinity();
      fused.Add(v);
      parts[rng.NextBounded(static_cast<uint64_t>(shards))].Add(v);
    }
    LatencySketch merged;
    // Merge in a rotated order to exercise order-independence.
    size_t start = rng.NextBounded(static_cast<uint64_t>(shards));
    for (int s = 0; s < shards; ++s) {
      merged.Merge(parts[(start + static_cast<size_t>(s)) % shards]);
    }
    EXPECT_EQ(merged.count(), fused.count());
    EXPECT_EQ(merged.underflow(), fused.underflow());
    EXPECT_EQ(merged.nonfinite(), fused.nonfinite());
    EXPECT_EQ(merged.bucket_counts(), fused.bucket_counts());
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(merged.Quantile(q), fused.Quantile(q)) << "q=" << q;
    }
    EXPECT_NEAR(merged.sum(), fused.sum(), 1e-12);
  }
}

TEST(LogHistogramTest, RandomizedMergeMatchesOneshot) {
  Rng rng(202);
  for (int round = 0; round < 10; ++round) {
    int shards = 2 + static_cast<int>(rng.NextBounded(5));
    LatencySketch fused = LatencyHistogram();
    std::vector<LatencySketch> parts(static_cast<size_t>(shards), fused);
    for (int i = 0; i < 500; ++i) {
      double v = rng.NextExponential(2e-3);
      fused.Add(v);
      parts[rng.NextBounded(static_cast<uint64_t>(shards))].Add(v);
    }
    LatencySketch merged = LatencyHistogram();
    for (const LatencySketch& part : parts) merged.Merge(part);
    EXPECT_EQ(merged.count(), fused.count());
    for (double q : {0.05, 0.5, 0.9, 0.999}) {
      EXPECT_DOUBLE_EQ(merged.Quantile(q), fused.Quantile(q)) << "q=" << q;
    }
    EXPECT_NEAR(merged.sum(), fused.sum(), 1e-9);
  }
}

TEST(NormalizeToFractionsTest, SumsToOne) {
  auto fractions = NormalizeToFractions({1, 2, 3, 4});
  double sum = 0;
  for (double f : fractions) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(fractions[3], 0.4);
}

TEST(NormalizeToFractionsTest, ZeroTotalYieldsZeros) {
  auto fractions = NormalizeToFractions({0, 0});
  EXPECT_EQ(fractions[0], 0.0);
  EXPECT_EQ(fractions[1], 0.0);
}

TEST(L1DistanceTest, Basics) {
  EXPECT_DOUBLE_EQ(L1Distance({1, 0}, {0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(L1Distance({0.5, 0.5}, {0.5, 0.5}), 0.0);
}

}  // namespace

TEST(RunningStatTest, SingleSample) {
  RunningStat stat;
  stat.Add(4.5);
  EXPECT_EQ(stat.count(), 1u);
  EXPECT_DOUBLE_EQ(stat.mean(), 4.5);
  EXPECT_DOUBLE_EQ(stat.min(), 4.5);
  EXPECT_DOUBLE_EQ(stat.max(), 4.5);
  EXPECT_DOUBLE_EQ(stat.sum(), 4.5);
  // One sample has no spread.
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
}

TEST(RunningStatTest, MergeTwoEmpties) {
  RunningStat a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(LogHistogramTest, EmptyHistogramEdges) {
  LatencySketch hist = LatencyHistogram();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  // Quantiles of an empty histogram must not crash and stay finite.
  EXPECT_GE(hist.Quantile(0.0), 0.0);
  EXPECT_GE(hist.Quantile(0.5), 0.0);
  EXPECT_GE(hist.Quantile(1.0), 0.0);
}

TEST(LogHistogramTest, SingleSampleQuantilesBracketValue) {
  // With one sample every quantile interpolates inside that sample's
  // bucket, so p0 and p100 bracket the value within bucket resolution.
  LatencySketch hist = LatencyHistogram();
  hist.Add(5e-3);
  double p0 = hist.Quantile(0.0);
  double p100 = hist.Quantile(1.0);
  EXPECT_LE(p0, 5e-3 * 1.13);  // one 20-per-decade bucket is ~12% wide
  EXPECT_GE(p100, 5e-3 * 0.88);
  EXPECT_LE(p0, p100);
  EXPECT_DOUBLE_EQ(hist.mean(), 5e-3);
}

TEST(LogHistogramTest, ExtremeQuantilesOrderedUnderLoad) {
  LatencySketch hist = LatencyHistogram();
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) hist.Add(rng.NextExponential(2e-3));
  double p0 = hist.Quantile(0.0);
  double p100 = hist.Quantile(1.0);
  EXPECT_GT(p0, 0.0);
  EXPECT_LE(p0, hist.Quantile(0.5));
  EXPECT_LE(hist.Quantile(0.99), p100);
}

TEST(NormalizeToFractionsTest, EmptyInput) {
  EXPECT_TRUE(NormalizeToFractions({}).empty());
}

TEST(NormalizeToFractionsTest, SingleWeight) {
  auto fractions = NormalizeToFractions({7.0});
  ASSERT_EQ(fractions.size(), 1u);
  EXPECT_DOUBLE_EQ(fractions[0], 1.0);
}

TEST(L1DistanceTest, EmptyVectorsAreIdentical) {
  EXPECT_DOUBLE_EQ(L1Distance({}, {}), 0.0);
}

}  // namespace hyperprof
