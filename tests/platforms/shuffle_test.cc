#include "platforms/shuffle.h"

#include <gtest/gtest.h>

namespace hyperprof::platforms {
namespace {

class ShuffleTest : public ::testing::Test {
 protected:
  ShuffleTest() : rpc_(&simulator_, &network_, Rng(2)) {}

  ShuffleResult RunShuffle(ShuffleParams params, uint64_t seed) {
    ShuffleRunner runner(&simulator_, &rpc_);
    ShuffleResult result;
    bool done = false;
    runner.Run(params, Rng(seed), net::NodeId{0, 0, 1},
               [&](const ShuffleResult& r) {
                 result = r;
                 done = true;
               });
    simulator_.Run();
    EXPECT_TRUE(done);
    return result;
  }

  sim::Simulator simulator_;
  net::NetworkModel network_;
  net::RpcSystem rpc_;
};

TEST_F(ShuffleTest, MovesAllBytes) {
  ShuffleParams params;
  params.num_mappers = 4;
  params.num_reducers = 4;
  params.bytes_per_mapper = 1 << 20;
  ShuffleResult result = RunShuffle(params, 3);
  // Partitioning truncates fractions; within 1% of the total.
  EXPECT_NEAR(static_cast<double>(result.total_bytes), 4.0 * (1 << 20),
              0.01 * 4 * (1 << 20));
  EXPECT_GT(result.makespan, SimTime::Zero());
  EXPECT_EQ(result.num_reducers, 4);
}

TEST_F(ShuffleTest, MakespanGrowsWithVolume) {
  ShuffleParams small;
  small.bytes_per_mapper = 1 << 20;
  ShuffleParams large = small;
  large.bytes_per_mapper = 64 << 20;
  SimTime small_time = RunShuffle(small, 5).makespan;
  SimTime large_time = RunShuffle(large, 5).makespan;
  EXPECT_GT(large_time, small_time * 4);
}

TEST_F(ShuffleTest, SkewConcentratesBytes) {
  ShuffleParams even;
  even.partition_zipf_s = 0.0;
  even.num_mappers = 1;  // single mapper: per-mapper hot spots visible
  even.num_reducers = 8;
  ShuffleParams skewed = even;
  skewed.partition_zipf_s = 2.0;
  double even_skew = RunShuffle(even, 7).SkewFactor();
  double skewed_skew = RunShuffle(skewed, 7).SkewFactor();
  EXPECT_LT(even_skew, 1.5);
  EXPECT_GT(skewed_skew, 2.0);
}

TEST_F(ShuffleTest, MakespanAtLeastSlowestReducerWork) {
  ShuffleParams params;
  params.num_mappers = 2;
  params.num_reducers = 2;
  params.bytes_per_mapper = 8 << 20;
  ShuffleResult result = RunShuffle(params, 9);
  // The hottest reducer must at least ingest and merge its input.
  double lower_bound_s =
      static_cast<double>(result.max_reducer_bytes) /
          params.ingest_bytes_per_second +
      static_cast<double>(result.max_reducer_bytes) /
          params.merge_bytes_per_second;
  EXPECT_GT(result.makespan.ToSeconds(), lower_bound_s);
}

TEST_F(ShuffleTest, DeterministicGivenSeeds) {
  ShuffleParams params;
  SimTime first, second;
  {
    sim::Simulator simulator;
    net::RpcSystem rpc(&simulator, &network_, Rng(2));
    ShuffleRunner runner(&simulator, &rpc);
    runner.Run(params, Rng(11), net::NodeId{0, 0, 1},
               [&](const ShuffleResult& r) { first = r.makespan; });
    simulator.Run();
  }
  {
    sim::Simulator simulator;
    net::RpcSystem rpc(&simulator, &network_, Rng(2));
    ShuffleRunner runner(&simulator, &rpc);
    runner.Run(params, Rng(11), net::NodeId{0, 0, 1},
               [&](const ShuffleResult& r) { second = r.makespan; });
    simulator.Run();
  }
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hyperprof::platforms
