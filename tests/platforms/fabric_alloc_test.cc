// Pins the allocation-free sharded storage fabric (DESIGN.md §17): once a
// sharded platform is warmed, an Advance window of the sharded_scan query
// shape (compute, one read, compute) through the worker kernels, the
// ShardGroup exchange, the fabric's hop records and the storage plane must
// perform ZERO heap allocations, apart from pools growing at a new
// high-water mark.
//
// This binary replaces the global allocator with the counting shim of
// tests/common/counting_alloc.h; it must stay its own test executable so
// the override can't leak into other suites.

#include <cstdio>

#include "../common/counting_alloc.h"
#include "gtest/gtest.h"
#include "platforms/fleet.h"

namespace hyperprof::platforms {
namespace {

// Not per query: pools that grow only at a new high-water mark of in-flight
// work (the fabric's hop records, the engines' query states and phase
// runs, the filesystem's operations, kernel heaps, a cache free list, the
// mailboxes), which a measured window still reaches now and then. The
// same budget as engine_alloc_test's.
constexpr uint64_t kHighWaterBudget = 8;

/** The sharded_scan benchmark platform: compute, one 64 KiB read, compute. */
PlatformSpec ScanSpec() {
  PlatformSpec spec;
  spec.name = "sharded_scan";
  spec.activity_mean_seconds = 50e-6;
  spec.worker_cores = 0;  // sharded engines use the infinite-cores model
  spec.block_space = 1 << 14;
  for (size_t c = 0; c < profiling::kNumFnCategories; ++c) {
    spec.compute_mix[c] = 1.0;
  }
  QueryTypeSpec query;
  query.name = "scan";
  query.phases.push_back(PhaseSpec::Compute(0.002));
  IoPhaseSpec io;
  io.num_blocks = 1;
  io.block_bytes = 64 << 10;
  query.phases.push_back(PhaseSpec::Io(io));
  query.phases.push_back(PhaseSpec::Compute(0.001));
  spec.query_types.push_back(std::move(query));
  return spec;
}

TEST(FabricAllocTest, WarmedShardedScanWindowAllocatesNothing) {
  FleetConfig config;
  config.queries_per_platform = 40000;
  config.arrival_rate_qps = 50000;
  config.trace_sample_one_in = 1u << 30;  // effectively no trace sampled
  config.parallelism = 1;                 // serial: no runner threads
  config.shards_per_platform = 2;
  config.shard_window = SimTime::Micros(500);
  // Fileserver caches small enough to fill during warm-up: a growing
  // cache table is storage state, not the fabric path.
  config.dfs.store.ram_bytes = 1ULL << 20;
  config.dfs.store.ssd_bytes = 4ULL << 20;
  FleetSimulation fleet(config);
  fleet.AddPlatform(ScanSpec());
  fleet.Start();
  // Warm-up: 10k queries' worth of virtual time grows every pool to its
  // steady in-flight size.
  ASSERT_TRUE(fleet.Advance(SimTime::Millis(200)));
  const uint64_t posted_before = fleet.ShardStatsOf(0).messages_posted;
  const uint64_t allocations = CountAllocations(
      [&] { ASSERT_TRUE(fleet.Advance(SimTime::Millis(400))); });
  // One request and one reply envelope per read.
  const uint64_t hops =
      (fleet.ShardStatsOf(0).messages_posted - posted_before) / 2;
  std::printf("sharded_scan: %llu allocations over %llu fabric round trips\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(hops));
  EXPECT_GT(hops, 5000u);
  EXPECT_LE(allocations, kHighWaterBudget);
  fleet.Finish();
  EXPECT_EQ(fleet.Result(0).queries_completed, config.queries_per_platform);
  EXPECT_EQ(fleet.ShardStatsOf(0).undelivered, 0u);
}

}  // namespace
}  // namespace hyperprof::platforms
