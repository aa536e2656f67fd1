#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace hyperprof {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], n / 10.0, 5 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    int64_t value = rng.NextInt(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
  }
  // Degenerate range.
  EXPECT_EQ(rng.NextInt(5, 5), 5);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double value = rng.NextGaussian();
    sum += value;
    sum_sq += value * value;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(23);
  const int n = 100001;
  std::vector<double> values(n);
  for (auto& value : values) value = rng.NextLogNormal(1.0, 0.5);
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  // Median of lognormal(mu, sigma) is e^mu.
  EXPECT_NEAR(values[n / 2], std::exp(1.0), 0.1);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    double value = rng.NextBoundedPareto(1.2, 1.0, 1000.0);
    EXPECT_GE(value, 1.0);
    EXPECT_LE(value, 1000.0);
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child stream should not track parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(37);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.NextBool(0.3);
  EXPECT_NEAR(heads / static_cast<double>(n), 0.3, 0.01);
}

TEST(AliasSamplerTest, NormalizesWeights) {
  AliasSampler sampler({1.0, 3.0});
  EXPECT_DOUBLE_EQ(sampler.Probability(0), 0.25);
  EXPECT_DOUBLE_EQ(sampler.Probability(1), 0.75);
}

TEST(AliasSamplerTest, EmpiricalFrequenciesMatchWeights) {
  AliasSampler sampler({0.1, 0.2, 0.3, 0.4});
  Rng rng(41);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  for (int v = 0; v < 4; ++v) {
    double expected = sampler.Probability(v);
    EXPECT_NEAR(counts[v] / static_cast<double>(n), expected, 0.01);
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  AliasSampler sampler({0.0, 1.0, 0.0});
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(sampler.Sample(rng), 1u);
  }
}

TEST(AliasSamplerTest, AllZeroWeightsFallBackToUniform) {
  AliasSampler sampler({0.0, 0.0});
  Rng rng(47);
  int first = 0;
  for (int i = 0; i < 10000; ++i) {
    if (sampler.Sample(rng) == 0) ++first;
  }
  EXPECT_NEAR(first / 10000.0, 0.5, 0.05);
}

TEST(AliasSamplerTest, SingleElement) {
  AliasSampler sampler({5.0});
  Rng rng(53);
  EXPECT_EQ(sampler.Sample(rng), 0u);
}

TEST(ZipfSamplerTest, RankOneIsMostPopular) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(59);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfSamplerTest, HeadMassMatchesTheory) {
  const size_t n = 1000;
  const double s = 0.9;
  ZipfSampler zipf(n, s);
  Rng rng(61);
  int head = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  // Theoretical mass of the top 10 ranks.
  double num = 0, den = 0;
  for (size_t k = 1; k <= n; ++k) {
    double w = std::pow(static_cast<double>(k), -s);
    den += w;
    if (k <= 10) num += w;
  }
  EXPECT_NEAR(head / static_cast<double>(draws), num / den, 0.01);
}

TEST(ZipfSamplerTest, DrawsMatchAliasSamplerOverZipfWeights) {
  // The in-place table, built serially or on a pool, must equal the
  // generic alias table over the same weights and give exactly its draws.
  // s >= 0 pairs without worklists; s < 0 (increasing weights) takes the
  // generic pairing.
  // The pool runs at small sizes so the sanitizer jobs cover the pooled
  // build.
  ThreadPool pool(3);
  const std::pair<size_t, double> cases[] = {
      {0, 0.9},   {1, 0.9},    {1, 0.0},     {2, 1.0},    {3, -0.5},
      {7, 0.0},   {100, 0.0},  {1000, 0.6},  {4096, 0.99}, {5000, 1.3},
      {20000, 0.85}, {1 << 18, 0.9}};
  for (const auto& [n, s] : cases) {
    const AliasSampler reference(ZipfWeights(n, s));
    const ZipfSampler serial(n, s);
    const ZipfSampler pooled(n, s, &pool);
    ASSERT_EQ(serial.size(), reference.size()) << n << " " << s;
    ASSERT_EQ(pooled.size(), reference.size()) << n << " " << s;
    // Bit-exact tables: a last-bit difference would almost never show in
    // a draw, so compare the columns themselves.
    for (size_t i = 0; i < reference.size(); ++i) {
      for (const ZipfSampler* built : {&serial, &pooled}) {
        ASSERT_EQ(built->Acceptance(i), reference.Acceptance(i))
            << "n=" << n << " s=" << s << " column " << i;
        ASSERT_EQ(built->Alias(i), reference.Alias(i))
            << "n=" << n << " s=" << s << " column " << i;
      }
    }
    for (uint64_t seed = 1; seed <= 64; ++seed) {
      Rng want_rng(seed), serial_rng(seed), pooled_rng(seed);
      for (int i = 0; i < 200; ++i) {
        const size_t want = reference.Sample(want_rng);
        ASSERT_EQ(serial.Sample(serial_rng), want)
            << "n=" << n << " s=" << s << " seed=" << seed << " draw=" << i;
        ASSERT_EQ(pooled.Sample(pooled_rng), want)
            << "n=" << n << " s=" << s << " seed=" << seed << " draw=" << i;
      }
    }
  }
}

TEST(ZipfSamplerTest, EmptyRankSpaceSamplesRankZero) {
  const ZipfSampler zipf(0, 0.9);
  EXPECT_EQ(zipf.size(), 1u);
  Rng rng(67);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

}  // namespace
}  // namespace hyperprof
