// Pins the allocation-free fused query path (DESIGN.md, continuation
// ownership): once a fused engine and its substrate are warmed, a second
// batch of queries through the real engine, RPC fabric, filesystem,
// shuffle and barriers must perform ZERO heap allocations per query, apart
// from the residual sites listed here by name with their counts.
//
// This binary replaces the global allocator with the counting shim of
// tests/common/counting_alloc.h; it must stay its own test executable so
// the override can't leak into other suites.
//
// The substrate is staged so that only the query path is measured:
// fileserver caches small enough to fill during warm-up (a growing cache
// table is storage state, not the query path), and the tracer in
// kSampleReservoir mode (kRetainAll keeps every trace by design).

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "../common/counting_alloc.h"
#include "gtest/gtest.h"
#include "net/rpc.h"
#include "platforms/engine.h"
#include "platforms/platforms.h"
#include "profiling/aggregate.h"
#include "sim/barrier.h"

namespace hyperprof::platforms {
namespace {

/** One residual allocation site and its count per consensus round. */
struct ResidualSite {
  const char* site;
  uint64_t count;
};

// The consensus path is not pooled: one Paxos round (a fresh group of
// three acceptors, one prepare and one accept round) allocates at these
// sites. Spanner's read_write_txn and global_commit queries run one round
// each; no other default query type allocates.
constexpr ResidualSite kPaxosRoundSites[] = {
    {"engine: acceptor placement vector", 1},
    {"engine: make_shared<PaxosGroup>", 1},
    {"engine: Propose completion (captures the group)", 1},
    {"PaxosGroup: acceptor state vector", 1},
    {"Propose: make_shared<ProposerRun>", 1},
    {"prepare: make_shared<Phase1State>", 1},
    {"prepare: make_shared<AcceptorReply> per acceptor", 3},
    {"prepare: acceptor service closure per acceptor", 3},
    {"prepare: reply completion closure per acceptor", 3},
    {"accept: make_shared<Phase2State>", 1},
    {"accept: make_shared<std::string> proposed value", 1},
    {"accept: make_shared<AcceptorReply> per acceptor", 3},
    {"accept: handler closure per acceptor", 3},
    {"accept: acceptor service closure per acceptor", 3},
    {"accept: reply completion closure per acceptor", 3},
    {"accept: decision closure", 1},
};

// Not per query: pools that grow only at a new high-water mark, which a
// measured batch still reaches now and then.
//   - a fileserver cache's free-slot list (doubling) when more of its
//     slots are free at once than ever before;
//   - the engine's QueryState pool when more queries are in flight than
//     ever before;
//   - traced, the tracer's open-trace slots, each sized to the longest
//     trace finished so far, when more traces are open than ever before
//     or a trace is longer than any before.
// Measured per batch, untraced / traced: BigQuery 1 / 1 and BigTable 1 / 2
// (free list, span storage), Spanner 5 / 6 (4 free list, 1 query state,
// span storage).
constexpr uint64_t kHighWaterBudget = 8;

uint64_t PaxosRoundAllocations() {
  uint64_t total = 0;
  for (const ResidualSite& site : kPaxosRoundSites) total += site.count;
  return total;
}

/**
 * A fused engine on a substrate staged for steady-state counting. The
 * tracer runs in kSampleReservoir mode; `traced` samples every query
 * (its per-type rows count consensus rounds), otherwise none is sampled.
 * Tracing never changes the simulated timeline, so a traced and an
 * untraced harness of one spec run identical queries.
 */
class Harness {
 public:
  Harness(PlatformSpec spec, bool traced)
      : spec_(Staged(std::move(spec))),
        rpc_(&simulator_, &network_, Rng(2)),
        dfs_(&simulator_, &rpc_, SmallCaches(), Rng(3)),
        tracer_(traced ? 1 : kNeverSampled, Rng(4), ReservoirRetention()),
        profiler_(SimTime::Micros(1000), 3e9, Rng(5)),
        registry_(profiling::BuildFleetRegistry()),
        block_sampler_(spec_.block_space, spec_.block_zipf_s),
        engine_(Context(), spec_, Rng(7)) {}

  /** Runs `queries` arrivals to completion. */
  void RunBatch(uint64_t queries) {
    bool done = false;
    engine_.Run(queries, 2000.0, [&done] { done = true; });
    simulator_.Run();
    EXPECT_TRUE(done);
  }

  /** Queries finished so far whose type runs a consensus round. */
  uint64_t ConsensusQueries() const {
    std::vector<std::string> paxos_types;
    for (const QueryTypeSpec& type : spec_.query_types) {
      for (const PhaseSpec& phase : type.phases) {
        if (phase.kind == PhaseSpec::Kind::kRemote && phase.remote.use_paxos) {
          paxos_types.push_back(type.name);
        }
      }
    }
    uint64_t count = 0;
    for (const auto& row : tracer_.breakdown().TypeRows(tracer_.names())) {
      for (const std::string& name : paxos_types) {
        if (row.query_type == name) count += row.aggregate.query_count;
      }
    }
    return count;
  }

  uint64_t completed() const { return engine_.queries_completed(); }

 private:
  static constexpr uint32_t kNeverSampled = 1u << 31;

  static PlatformSpec Staged(PlatformSpec spec) {
    // A small block space keeps the sampler cheap to build; the query
    // path does not depend on its size.
    spec.block_space = 1 << 16;
    return spec;
  }

  static storage::DfsParams SmallCaches() {
    storage::DfsParams params;
    params.store.ram_bytes = 1ULL << 20;
    params.store.ssd_bytes = 4ULL << 20;
    return params;
  }

  static profiling::TracerOptions ReservoirRetention() {
    profiling::TracerOptions options;
    options.retention = profiling::TraceRetention::kSampleReservoir;
    options.reservoir_capacity = 0;
    return options;
  }

  EngineContext Context() {
    EngineContext context;
    context.simulator = &simulator_;
    context.dfs = &dfs_;
    context.rpc = &rpc_;
    context.tracer = &tracer_;
    context.profiler = &profiler_;
    context.registry = &registry_;
    context.block_sampler = &block_sampler_;
    return context;
  }

  PlatformSpec spec_;
  sim::Simulator simulator_;
  net::NetworkModel network_;
  net::RpcSystem rpc_;
  storage::DistributedFileSystem dfs_;
  profiling::Tracer tracer_;
  profiling::CpuProfiler profiler_;
  profiling::FunctionRegistry registry_;
  ZipfSampler block_sampler_;
  PlatformEngine engine_;
};

constexpr uint64_t kWarmupQueries = 5000;
constexpr uint64_t kMeasuredQueries = 2000;

/**
 * Warms a fused engine of `spec`, untraced and traced, then counts the
 * allocations of a second batch of each against its residual budget
 * (consensus rounds x the listed sites).
 */
void ExpectSteadyState(const PlatformSpec& spec) {
  Harness untraced(spec, /*traced=*/false);
  Harness traced(spec, /*traced=*/true);
  untraced.RunBatch(kWarmupQueries);
  traced.RunBatch(kWarmupQueries);
  const uint64_t rounds_before = traced.ConsensusQueries();
  const uint64_t untraced_allocations =
      CountAllocations([&] { untraced.RunBatch(kMeasuredQueries); });
  const uint64_t traced_allocations =
      CountAllocations([&] { traced.RunBatch(kMeasuredQueries); });
  const uint64_t rounds = traced.ConsensusQueries() - rounds_before;
  EXPECT_EQ(untraced.completed(), kWarmupQueries + kMeasuredQueries);
  EXPECT_EQ(traced.completed(), kWarmupQueries + kMeasuredQueries);
  std::printf("%s: %llu allocations untraced, %llu traced, over %llu "
              "queries (%llu consensus rounds)\n",
              spec.name.c_str(),
              static_cast<unsigned long long>(untraced_allocations),
              static_cast<unsigned long long>(traced_allocations),
              static_cast<unsigned long long>(kMeasuredQueries),
              static_cast<unsigned long long>(rounds));
  const uint64_t consensus = rounds * PaxosRoundAllocations();
  for (uint64_t allocations : {untraced_allocations, traced_allocations}) {
    ASSERT_GE(allocations, consensus) << spec.name;
    EXPECT_LE(allocations - consensus, kHighWaterBudget) << spec.name;
  }
}

TEST(EngineAllocTest, BigQueryFusedQueriesAllocateNothing) {
  ExpectSteadyState(BigQuerySpec());
}

TEST(EngineAllocTest, BigTableFusedQueriesAllocateNothing) {
  ExpectSteadyState(BigTableSpec());
}

TEST(EngineAllocTest, SpannerAllocatesOnlyAtListedPaxosSites) {
  ExpectSteadyState(SpannerSpec());
}

TEST(EngineAllocTest, BarrierTokenCopiesDoNotAllocate) {
  sim::BarrierPool barriers;
  int fired = 0;
  // Warm the pool's record table.
  barriers.Arm(1, [&] { ++fired; })();
  const uint64_t allocations = CountAllocations([&] {
    sim::BarrierPool::Token token = barriers.Arm(2, [&] { ++fired; });
    std::function<void()> as_function = token;  // stored inline
    sim::Simulator::Callback as_callback = token;
    as_function();
    as_callback();
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(fired, 2);
}

TEST(EngineAllocTest, PlainCallsReuseOneExchangeRecord) {
  // A warmed RpcSystem: a handler-driven plain call and a fixed call,
  // each starting the next from its completion, allocate nothing.
  sim::Simulator simulator;
  net::NetworkModel network;
  net::RpcSystem rpc(&simulator, &network, Rng(1));
  const net::NodeId client{0, 0, 0};
  const net::NodeId server{0, 0, 1};
  int remaining = 0;
  std::function<void()> next = [&] {
    if (remaining-- <= 0) return;
    rpc.CallWithPolicy(
        client, server, net::RpcOptions{}, net::RpcCallPolicy{},
        [&](net::RpcSystem::Respond respond) {
          simulator.Schedule(SimTime::Micros(5), respond);
        },
        [&](const net::RpcOutcome&) {
          rpc.CallFixed(client, server, net::RpcOptions{}, SimTime::Micros(5),
                        [&](const net::RpcOutcome&) { next(); });
        });
  };
  remaining = 10;
  next();
  simulator.Run();
  remaining = 100;
  const uint64_t allocations = CountAllocations([&] {
    next();
    simulator.Run();
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(rpc.completed_calls(), 220u);
}

}  // namespace
}  // namespace hyperprof::platforms
