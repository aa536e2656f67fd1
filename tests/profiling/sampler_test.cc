#include "profiling/sampler.h"

#include <gtest/gtest.h>

#include <vector>

namespace hyperprof::profiling {
namespace {

MicroarchProfile FlatProfile() {
  MicroarchProfile profile;
  profile.ipc = 1.0;
  return profile;
}

TEST(SamplerTest, LongActivityYieldsProportionalSamples) {
  CpuProfiler profiler(SimTime::Micros(100), 3e9, Rng(1));
  profiler.RecordActivity("f", SimTime::Millis(10), FlatProfile());
  // 10ms / 100us = 100 samples (+-1 from the fractional draw).
  EXPECT_NEAR(static_cast<double>(profiler.sample_count()), 100.0, 1.0);
}

TEST(SamplerTest, ShortActivitiesSampleProportionallyInExpectation) {
  CpuProfiler profiler(SimTime::Micros(100), 3e9, Rng(2));
  // 10k activities of 10us = 1s of CPU; expect ~10000 * 0.1 = 1000 samples.
  for (int i = 0; i < 10000; ++i) {
    profiler.RecordActivity("short", SimTime::Micros(10), FlatProfile());
  }
  EXPECT_NEAR(static_cast<double>(profiler.sample_count()), 1000.0, 100.0);
}

TEST(SamplerTest, RelativeCategoryWeightsRecovered) {
  CpuProfiler profiler(SimTime::Micros(50), 3e9, Rng(3));
  // "hot" gets 3x the CPU time of "cold".
  for (int i = 0; i < 3000; ++i) {
    profiler.RecordActivity("hot", SimTime::Micros(30), FlatProfile());
  }
  for (int i = 0; i < 1000; ++i) {
    profiler.RecordActivity("cold", SimTime::Micros(30), FlatProfile());
  }
  uint32_t hot_id = profiler.InternSymbol("hot");
  uint64_t hot = profiler.symbol_totals()[hot_id].samples;
  double fraction = static_cast<double>(hot) /
                    static_cast<double>(profiler.sample_count());
  EXPECT_NEAR(fraction, 0.75, 0.04);
}

TEST(SamplerTest, ZeroDurationIgnored) {
  CpuProfiler profiler(SimTime::Micros(100), 3e9, Rng(4));
  profiler.RecordActivity("f", SimTime::Zero(), FlatProfile());
  EXPECT_EQ(profiler.sample_count(), 0u);
  EXPECT_TRUE(profiler.symbol_totals().empty());
  EXPECT_EQ(profiler.activities_recorded(), 0u);
}

TEST(SamplerTest, CyclesPerSampleMatchesPeriodAndFrequency) {
  CpuProfiler profiler(SimTime::Micros(500), 2e9, Rng(5));
  EXPECT_DOUBLE_EQ(profiler.CyclesPerSample(), 1e6);
  profiler.RecordActivity("f", SimTime::Millis(5), FlatProfile());
  ASSERT_GT(profiler.sample_count(), 0u);
  const SymbolTotals& f = profiler.symbol_totals()[profiler.InternSymbol("f")];
  EXPECT_EQ(f.samples, profiler.sample_count());
  EXPECT_EQ(f.counters.cycles(), f.samples * 1000000u);
}

TEST(SamplerTest, SymbolsInterned) {
  CpuProfiler profiler(SimTime::Micros(10), 3e9, Rng(6));
  profiler.RecordActivity("alpha", SimTime::Millis(1), FlatProfile());
  profiler.RecordActivity("beta", SimTime::Millis(1), FlatProfile());
  profiler.RecordActivity("alpha", SimTime::Millis(1), FlatProfile());
  uint32_t alpha = profiler.InternSymbol("alpha");
  uint32_t beta = profiler.InternSymbol("beta");
  EXPECT_NE(alpha, beta);
  EXPECT_EQ(profiler.SymbolName(alpha), "alpha");
  EXPECT_EQ(profiler.SymbolName(beta), "beta");
}

TEST(SamplerTest, TotalCpuTimeAccumulates) {
  CpuProfiler profiler(SimTime::Micros(100), 3e9, Rng(7));
  profiler.RecordActivity("f", SimTime::Millis(2), FlatProfile());
  profiler.RecordActivity("g", SimTime::Millis(3), FlatProfile());
  EXPECT_EQ(profiler.total_cpu_time(), SimTime::Millis(5));
  EXPECT_EQ(profiler.activities_recorded(), 2u);
}

/** One reported activity of a test stream. */
struct Activity {
  const char* symbol;
  SimTime duration;
};

void Feed(CpuProfiler& profiler, const std::vector<Activity>& stream,
          Rng& rng) {
  MicroarchProfile profile;
  profile.ipc = 0.8;
  profile.br_mpki = 5;
  profile.l1i_mpki = 20;
  profile.llc_mpki = 1;
  for (const Activity& activity : stream) {
    profiler.RecordActivity(activity.symbol, activity.duration, profile, rng);
  }
}

TEST(CpuProfilerTest, AbsorbMatchesSingleStream) {
  // Short activities leave some symbols unsampled in one stream; stream B
  // first samples its symbols in a different order and adds a new one.
  std::vector<Activity> a;
  std::vector<Activity> b;
  for (int i = 0; i < 200; ++i) {
    a.push_back({"alpha", SimTime::Micros(70)});
    a.push_back({"beta", SimTime::Micros(130)});
    a.push_back({"rare", SimTime::Nanos(50)});
    b.push_back({"gamma", SimTime::Micros(40)});
    b.push_back({"rare", SimTime::Micros(90)});
    b.push_back({"alpha", SimTime::Micros(20)});
  }
  const SimTime period = SimTime::Micros(100);
  CpuProfiler shard_a(period, 3e9, Rng(1));
  CpuProfiler shard_b(period, 3e9, Rng(2));
  Rng rng_a(11);
  Rng rng_b(12);
  Feed(shard_a, a, rng_a);
  Feed(shard_b, b, rng_b);
  CpuProfiler merged(period, 3e9, Rng(3));
  merged.AbsorbSamples(shard_a);
  merged.AbsorbSamples(shard_b);

  CpuProfiler single(period, 3e9, Rng(4));
  Rng replay_a(11);
  Rng replay_b(12);
  Feed(single, a, replay_a);
  Feed(single, b, replay_b);

  ASSERT_GT(single.sample_count(), 0u);
  EXPECT_EQ(merged.sample_count(), single.sample_count());
  EXPECT_EQ(merged.total_cpu_time(), single.total_cpu_time());
  EXPECT_EQ(merged.activities_recorded(), single.activities_recorded());
  ASSERT_EQ(merged.symbol_totals().size(), single.symbol_totals().size());
  for (uint32_t id = 0; id < single.symbol_totals().size(); ++id) {
    SCOPED_TRACE(single.SymbolName(id));
    EXPECT_EQ(merged.SymbolName(id), single.SymbolName(id));
    const SymbolTotals& got = merged.symbol_totals()[id];
    const SymbolTotals& want = single.symbol_totals()[id];
    EXPECT_EQ(got.samples, want.samples);
    EXPECT_EQ(got.counters.cycles(), want.counters.cycles());
    EXPECT_EQ(got.counters.instructions(), want.counters.instructions());
    EXPECT_EQ(got.counters.BrMpki(), want.counters.BrMpki());
    EXPECT_EQ(got.counters.L1iMpki(), want.counters.L1iMpki());
    EXPECT_EQ(got.counters.LlcMpki(), want.counters.LlcMpki());
  }
}

}  // namespace
}  // namespace hyperprof::profiling
