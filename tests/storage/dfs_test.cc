#include "storage/dfs.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/fault.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace hyperprof::storage {
namespace {

class DfsTest : public ::testing::Test {
 protected:
  DfsTest() : rpc_(&simulator_, &network_, Rng(2)) {}

  DfsParams SmallParams() {
    DfsParams params;
    params.num_fileservers = 4;
    params.store.ram_bytes = 1 << 20;
    params.store.ssd_bytes = 8 << 20;
    return params;
  }

  sim::Simulator simulator_;
  net::NetworkModel network_;
  net::RpcSystem rpc_;
  net::NodeId client_{0, 0, 1};
};

TEST_F(DfsTest, ReadCompletesWithTimes) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  IoResult result;
  bool done = false;
  dfs.Read(client_, 42, 4096, [&](const IoResult& r) {
    result = r;
    done = true;
  });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.served_by, Tier::kHdd);  // cold
  EXPECT_GT(result.total_time, result.device_time);
  EXPECT_GT(result.network_time, SimTime::Zero());
}

TEST_F(DfsTest, SecondReadHitsRam) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  Tier second_tier = Tier::kHdd;
  dfs.Read(client_, 42, 4096, [&](const IoResult&) {
    dfs.Read(client_, 42, 4096,
             [&](const IoResult& r) { second_tier = r.served_by; });
  });
  simulator_.Run();
  EXPECT_EQ(second_tier, Tier::kRam);
}

TEST_F(DfsTest, BlocksSpreadAcrossFileservers) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  std::vector<int> hits(4, 0);
  for (uint64_t block = 0; block < 200; ++block) {
    ++hits[dfs.HomeServer(block)];
  }
  for (int count : hits) {
    EXPECT_GT(count, 20);  // roughly uniform placement
  }
}

TEST_F(DfsTest, HomeServerIsStable) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  for (uint64_t block = 0; block < 50; ++block) {
    EXPECT_EQ(dfs.HomeServer(block), dfs.HomeServer(block));
  }
}

TEST_F(DfsTest, WriteReplicatesToMultipleServers) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  dfs.Write(client_, 7, 8192, /*replication=*/3,
            [&](const IoResult&) { done = true; });
  simulator_.Run();
  ASSERT_TRUE(done);
  uint64_t total_writes = 0;
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    total_writes += dfs.server_store(s).writes();
  }
  EXPECT_EQ(total_writes, 3u);
}

TEST_F(DfsTest, ReplicationClampedToServerCount) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  dfs.Write(client_, 7, 1024, /*replication=*/99,
            [&](const IoResult&) { done = true; });
  simulator_.Run();
  ASSERT_TRUE(done);
  uint64_t total_writes = 0;
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    total_writes += dfs.server_store(s).writes();
  }
  EXPECT_EQ(total_writes, 4u);  // clamped to num_fileservers
}

TEST_F(DfsTest, WriteWaitsForSlowestReplica) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  SimTime single_time, replicated_time;
  dfs.Write(client_, 11, 4096, 1,
            [&](const IoResult& r) { single_time = r.total_time; });
  simulator_.Run();
  dfs.Write(client_, 12, 4096, 3,
            [&](const IoResult& r) { replicated_time = r.total_time; });
  simulator_.Run();
  // Max-of-three is stochastically >= a single ack; with jitter it is
  // almost surely strictly larger.
  EXPECT_GE(replicated_time, single_time);
}

TEST_F(DfsTest, PrewarmZipfWarmsHotBlocks) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  dfs.PrewarmZipf(/*ram_blocks=*/10, /*ssd_blocks=*/50, 4096);
  Tier hot_tier = Tier::kHdd, warm_tier = Tier::kHdd,
       cold_tier = Tier::kRam;
  dfs.Read(client_, 5, 4096, [&](const IoResult& r) {
    hot_tier = r.served_by;
  });
  dfs.Read(client_, 30, 4096, [&](const IoResult& r) {
    warm_tier = r.served_by;
  });
  dfs.Read(client_, 5000, 4096, [&](const IoResult& r) {
    cold_tier = r.served_by;
  });
  simulator_.Run();
  EXPECT_EQ(hot_tier, Tier::kRam);
  EXPECT_EQ(warm_tier, Tier::kSsd);
  EXPECT_EQ(cold_tier, Tier::kHdd);
}

/** A DFS on a private event kernel and fabric, for side-by-side runs. */
struct DfsPlane {
  explicit DfsPlane(const DfsParams& params)
      : rpc(&simulator, &network, Rng(2)),
        dfs(&simulator, &rpc, params, Rng(3)) {}
  sim::Simulator simulator;
  net::NetworkModel network;
  net::RpcSystem rpc;
  DistributedFileSystem dfs;
};

void ExpectSameCache(const LruCache& a, const LruCache& b, uint64_t ids,
                     const char* what) {
  EXPECT_EQ(a.entry_count(), b.entry_count()) << what;
  EXPECT_EQ(a.used_bytes(), b.used_bytes()) << what;
  EXPECT_EQ(a.hits(), b.hits()) << what;
  EXPECT_EQ(a.misses(), b.misses()) << what;
  EXPECT_EQ(a.evictions(), b.evictions()) << what;
  for (uint64_t id = 0; id < ids; ++id) {
    ASSERT_EQ(a.Contains(id), b.Contains(id)) << what << " id " << id;
  }
}

void ExpectSameStores(const DistributedFileSystem& a,
                      const DistributedFileSystem& b, uint64_t ids) {
  ASSERT_EQ(a.num_fileservers(), b.num_fileservers());
  for (uint32_t s = 0; s < a.num_fileservers(); ++s) {
    SCOPED_TRACE(testing::Message() << "fileserver " << s);
    ExpectSameCache(a.server_store(s).ram_cache(),
                    b.server_store(s).ram_cache(), ids, "RAM");
    ExpectSameCache(a.server_store(s).ssd_cache(),
                    b.server_store(s).ssd_cache(), ids, "SSD");
    for (Tier tier : {Tier::kRam, Tier::kSsd, Tier::kHdd}) {
      EXPECT_EQ(a.server_store(s).tier_reads(tier),
                b.server_store(s).tier_reads(tier));
    }
  }
}

/**
 * The per-block reference for PrewarmZipf: every warmed id inserted into
 * its home fileserver's caches in increasing id order.
 */
void EagerPrewarmZipf(DistributedFileSystem& dfs, uint64_t ram_blocks,
                      uint64_t ssd_blocks, uint64_t block_bytes) {
  for (uint64_t id = 0; id < ssd_blocks; ++id) {
    TieredStore& store = dfs.server_store(dfs.HomeServer(id));
    store.Prewarm(id, block_bytes, Tier::kSsd);
    if (id < ram_blocks) store.Prewarm(id, block_bytes, Tier::kRam);
  }
}

TEST_F(DfsTest, LazyPrewarmMatchesEagerPrewarm) {
  // Both tiers overflow during the fill (4 KiB blocks: 256 fit in RAM and
  // 2048 on SSD per fileserver), so the warm-time evictions are part of
  // the check. An odd fileserver count keeps the ownership uneven.
  DfsParams params = SmallParams();
  params.num_fileservers = 5;
  const uint64_t kIds = 30000;
  DfsPlane eager(params), lazy(params);
  EagerPrewarmZipf(eager.dfs, /*ram_blocks=*/3000, /*ssd_blocks=*/20000,
                   4096);
  lazy.dfs.PrewarmZipf(3000, 20000, 4096);
  ExpectSameStores(eager.dfs, lazy.dfs, kIds);

  // A mixed read/write stream over hot and cold ids must then hit, miss,
  // admit and evict identically.
  Rng ids(17);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t id = ids.NextBounded(kIds);
    for (DfsPlane* plane : {&eager, &lazy}) {
      if (i % 5 == 0) {
        plane->dfs.Write(client_, id, 4096, /*replication=*/2,
                         [](const IoResult&) {});
      } else {
        plane->dfs.Read(client_, id, 4096, [](const IoResult&) {});
      }
    }
  }
  eager.simulator.Run();
  lazy.simulator.Run();
  ExpectSameStores(eager.dfs, lazy.dfs, kIds);
  EXPECT_EQ(eager.simulator.Now(), lazy.simulator.Now());
  // The lazy caches hold only the blocks the stream touched.
  EXPECT_LT(lazy.dfs.memory_bytes(), eager.dfs.memory_bytes());
}

TEST_F(DfsTest, PrewarmKeepsRamWithinTheSsdPrefix) {
  // RAM warms only ids that also go to SSD.
  DfsPlane plane(SmallParams());
  plane.dfs.PrewarmZipf(/*ram_blocks=*/40, /*ssd_blocks=*/10, 4096);
  for (uint64_t id = 0; id < 40; ++id) {
    const TieredStore& store =
        plane.dfs.server_store(plane.dfs.HomeServer(id));
    EXPECT_EQ(store.ram_cache().Contains(id), id < 10) << id;
    EXPECT_EQ(store.ssd_cache().Contains(id), id < 10) << id;
  }
}

TEST_F(DfsTest, TierServeFractionsAggregateAcrossServers) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  dfs.PrewarmZipf(100, 100, 4096);
  int outstanding = 0;
  for (uint64_t block = 0; block < 100; ++block) {
    ++outstanding;
    dfs.Read(client_, block, 4096, [&](const IoResult&) { --outstanding; });
  }
  simulator_.Run();
  EXPECT_EQ(outstanding, 0);
  EXPECT_NEAR(dfs.TierServeFraction(Tier::kRam), 1.0, 1e-9);
}

TEST_F(DfsTest, TierServeFractionSumsRawCountersExactly) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  dfs.PrewarmZipf(20, 60, 4096);
  for (uint64_t block = 0; block < 120; ++block) {
    dfs.Read(client_, block, 4096, [](const IoResult&) {});
  }
  simulator_.Run();
  for (Tier tier : {Tier::kRam, Tier::kSsd, Tier::kHdd}) {
    uint64_t total = 0, tier_count = 0;
    for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
      total += dfs.server_store(s).reads();
      tier_count += dfs.server_store(s).tier_reads(tier);
    }
    ASSERT_GT(total, 0u);
    // Exact equality: the aggregate is the raw-counter ratio, not a sum of
    // re-rounded per-store fractions.
    EXPECT_EQ(dfs.TierServeFraction(tier),
              static_cast<double>(tier_count) / static_cast<double>(total));
  }
}

TEST_F(DfsTest, TierServeFractionOldRoundingMathLosesCounts) {
  // Regression pin for the bug this replaces: the old aggregation derived
  // each store's per-tier count as round(fraction * reads + 0.5), where
  // fraction itself is served/reads in double. Past 2^51 reads the
  // round-trip through the fraction no longer recovers the integer. These
  // (reads, served) pairs were found by search; each one re-derives to a
  // different count, so an aggregation built on the old math reports a
  // wrong total while summing raw counters is exact at any magnitude.
  struct Pair {
    uint64_t reads, served;
  };
  const Pair kDiverging[] = {
      {7378732916781557ULL, 7226161561168607ULL},
      {8435094068304335ULL, 6537899815195893ULL},
      {7004262855817095ULL, 6878807688530173ULL},
      {8348309313425887ULL, 6854008534861993ULL},
      {4921447804138685ULL, 4510805342071287ULL},
  };
  for (const Pair& pair : kDiverging) {
    double fraction = static_cast<double>(pair.served) /
                      static_cast<double>(pair.reads);
    uint64_t rederived = static_cast<uint64_t>(
        fraction * static_cast<double>(pair.reads) + 0.5);
    EXPECT_NE(rederived, pair.served)
        << "expected divergence for reads=" << pair.reads;
  }
}

TEST_F(DfsTest, ZeroReplicationWriteReportsInvalidArgument) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  bool callback_was_async = true;
  dfs.Write(client_, 7, 4096, /*replication=*/0, [&](const IoResult& r) {
    done = true;
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  });
  // The completion must not have run on the caller's stack.
  callback_was_async = !done;
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(callback_was_async);
  EXPECT_EQ(dfs.invalid_writes(), 1u);
  uint64_t total_writes = 0;
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    total_writes += dfs.server_store(s).writes();
  }
  EXPECT_EQ(total_writes, 0u);  // nothing touched any store
}

TEST_F(DfsTest, QuorumWriteCompletesEarlyAndStragglersFinish) {
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  IoResult at_completion;
  SimTime quorum_time;
  dfs.Write(client_, 7, 8192, /*replication=*/3, /*quorum_acks=*/1,
            [&](const IoResult& r) {
              done = true;
              at_completion = r;
              quorum_time = simulator_.Now();
            });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(at_completion.ok());
  EXPECT_EQ(at_completion.acks, 1u);  // released at the first ack
  EXPECT_EQ(dfs.background_acks(), 2u);
  // All three replicas still landed, just in the background.
  uint64_t total_writes = 0;
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    total_writes += dfs.server_store(s).writes();
  }
  EXPECT_EQ(total_writes, 3u);
  // The quorum completion is no later than a full-set write of the same
  // block from an identical substrate.
  sim::Simulator full_sim;
  net::NetworkModel full_net;
  net::RpcSystem full_rpc(&full_sim, &full_net, Rng(2));
  DistributedFileSystem full_dfs(&full_sim, &full_rpc, SmallParams(), Rng(3));
  SimTime full_time;
  full_dfs.Write(client_, 7, 8192, 3,
                 [&](const IoResult&) { full_time = full_sim.Now(); });
  full_sim.Run();
  EXPECT_LE(quorum_time, full_time);
}

TEST_F(DfsTest, WriteFailsWhenQuorumUnreachable) {
  net::FaultModel faults{Rng(9)};
  // Every fileserver node is down for the whole test window.
  for (uint32_t s = 0; s < 4; ++s) {
    faults.AddOutage({net::NodeId{0, 100, s}, SimTime::Zero(),
                      SimTime::FromSeconds(100)});
  }
  rpc_.set_fault_model(&faults);
  DistributedFileSystem dfs(&simulator_, &rpc_, SmallParams(), Rng(3));
  bool done = false;
  dfs.Write(client_, 7, 4096, /*replication=*/2, /*quorum_acks=*/2,
            [&](const IoResult& r) {
              done = true;
              EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
              EXPECT_EQ(r.acks, 0u);
            });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(dfs.failed_writes(), 1u);
}

TEST_F(DfsTest, ReadRetriesThroughTransientFaultAndReportsAttempts) {
  net::FaultModel faults{Rng(9)};
  net::FaultSpec errors;
  errors.error_probability = 1.0;
  faults.SetMethodFaults("dfs.Read", errors);
  rpc_.set_fault_model(&faults);
  DfsParams params = SmallParams();
  params.read_policy.max_attempts = 2;
  params.read_policy.backoff_base = SimTime::FromSeconds(1);
  DistributedFileSystem dfs(&simulator_, &rpc_, params, Rng(3));
  // Heal the fault before the backed-off retry fires.
  simulator_.Schedule(SimTime::FromSeconds(0.5), [&]() {
    faults.SetMethodFaults("dfs.Read", net::FaultSpec{});
  });
  bool done = false;
  dfs.Read(client_, 42, 4096, [&](const IoResult& r) {
    done = true;
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_GT(r.wasted_time, SimTime::Zero());
  });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(dfs.failed_reads(), 0u);
}

TEST_F(DfsTest, ReadExhaustingPolicySurfacesError) {
  net::FaultModel faults{Rng(9)};
  net::FaultSpec errors;
  errors.error_probability = 1.0;
  faults.SetMethodFaults("dfs.Read", errors);
  rpc_.set_fault_model(&faults);
  DfsParams params = SmallParams();
  params.read_policy.max_attempts = 2;
  DistributedFileSystem dfs(&simulator_, &rpc_, params, Rng(3));
  bool done = false;
  dfs.Read(client_, 42, 4096, [&](const IoResult& r) {
    done = true;
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(r.attempts, 2u);
  });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(dfs.failed_reads(), 1u);
}

TEST_F(DfsTest, HedgedReadCutsInjectedSlowdownTail) {
  net::FaultModel faults{Rng(9)};
  net::FaultSpec slow;
  slow.slowdown_probability = 1.0;
  slow.slowdown_floor = SimTime::Millis(20);
  slow.slowdown_ceil = SimTime::Millis(20);
  faults.SetMethodFaults("dfs.Read", slow);
  rpc_.set_fault_model(&faults);
  DfsParams params = SmallParams();
  params.read_policy.max_attempts = 2;
  params.read_policy.hedge_delay = SimTime::Millis(1);
  DistributedFileSystem dfs(&simulator_, &rpc_, params, Rng(3));
  bool done = false;
  dfs.Read(client_, 42, 4096, [&](const IoResult& r) {
    done = true;
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.hedged);
  });
  simulator_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(rpc_.hedges_issued(), 1u);
  EXPECT_EQ(rpc_.cancelled_attempts(), 1u);
}


/**
 * Pins the firing order of same-instant events through the RPC and DFS
 * continuations. With zero network jitter, deterministic media times and
 * server times equal to the fileserver's, an 8-way CallFixed fan-out and
 * the replica RPCs of a quorum write all complete at one instant, so the
 * recorded order is decided purely by the kernel's insertion tie-break:
 * any reordering of Schedule calls inside the continuations shows here.
 * The second round starts from a completion, so it runs on recycled
 * exchange and write records.
 */
TEST(TieOrderTest, SameInstantCompletionsFireInPinnedOrder) {
  net::NetworkParams net_params;
  for (net::PathParams* path :
       {&net_params.same_host, &net_params.same_cluster,
        &net_params.cross_cluster, &net_params.cross_region}) {
    path->jitter_sigma = 0;
  }
  DfsParams params;
  params.num_fileservers = 8;
  params.store.ram.latency_sigma = 0;
  params.store.ssd.latency_sigma = 0;
  params.store.hdd.latency_sigma = 0;
  constexpr uint64_t kBytes = 8192;
  // The replica server time: the SSD log append plus fileserver CPU,
  // computed exactly as the store and the filesystem do.
  const SimTime server_time =
      SimTime::FromSeconds(params.store.ssd.access_latency.ToSeconds() +
                           static_cast<double>(kBytes) /
                               params.store.ssd.bandwidth_bps) +
      params.server_cpu_per_request;

  sim::Simulator simulator;
  net::NetworkModel network(net_params);
  net::RpcSystem rpc(&simulator, &network, Rng(2));
  DistributedFileSystem dfs(&simulator, &rpc, params, Rng(3));
  const net::NodeId client{0, 0, 1};
  std::vector<std::string> log;
  auto record = [&](const std::string& label) {
    log.push_back(label + "@" + std::to_string(simulator.Now().nanos()));
  };

  std::function<void(int)> round = [&](int r) {
    const std::string tag = "r" + std::to_string(r) + ".";
    auto fan_out = [&](int first, int last) {
      for (int i = first; i < last; ++i) {
        net::RpcOptions options;
        options.method = "tie.Stream";
        options.request_bytes = kBytes;
        options.response_bytes = 64;
        rpc.CallFixed(client, net::NodeId{0, 100, static_cast<uint32_t>(i)},
                      options, server_time,
                      [&, tag, i](const net::RpcOutcome&) {
                        record(tag + "rpc" + std::to_string(i));
                        simulator.Schedule(SimTime::Zero(), [&, tag, i]() {
                          record(tag + "after" + std::to_string(i));
                        });
                      });
      }
    };
    fan_out(0, 4);
    dfs.Write(client, /*block_id=*/5 + r, kBytes, /*replication=*/3,
              /*quorum_acks=*/2, [&, tag, r](const IoResult& io) {
                record(tag + "write.acks" + std::to_string(io.acks));
                if (r == 0) round(1);
              });
    // A handler-driven exchange on the generic path, tied with the rest.
    rpc.CallWithPolicy(
        client, net::NodeId{0, 100, 8}, net::RpcOptions{"tie.Serve", kBytes, 64},
        net::RpcCallPolicy{},
        [&, tag](auto respond) {
          record(tag + "serve");
          simulator.Schedule(server_time, std::move(respond));
        },
        [&, tag](const net::RpcOutcome&) { record(tag + "handler"); });
    fan_out(4, 8);
  };
  round(0);
  simulator.Run();

  // Each round: the handler runs when its request lands; then the eight
  // fan-out completions, the quorum write (released by its second ack,
  // between the calls issued before and after it) and the handler call
  // complete at one instant in issue order, and the zero-delay follow-ups
  // fire after every completion already queued for that instant.
  std::vector<std::string> expected;
  for (const auto& [r, serve_at, done_at] :
       {std::tuple{0, 133653, 352856}, std::tuple{1, 486509, 705712}}) {
    const std::string tag = "r" + std::to_string(r) + ".";
    const std::string at = "@" + std::to_string(done_at);
    expected.push_back(tag + "serve@" + std::to_string(serve_at));
    for (const char* label :
         {"rpc0", "rpc1", "rpc2", "rpc3", "write.acks2", "handler", "rpc4",
          "rpc5", "rpc6", "rpc7", "after0", "after1", "after2", "after3",
          "after4", "after5", "after6", "after7"}) {
      expected.push_back(tag + label + at);
    }
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(dfs.background_acks(), 2u);
  EXPECT_EQ(rpc.completed_calls(), 24u);
}

}  // namespace
}  // namespace hyperprof::storage
